"""Live policies and the rounder hold only their running state; the offline
passes own the per-round records.

A policy or rounder fed round by round keeps no history: the memory it
retains after 300 rounds is what it retains after 30.  The records an
offline pass collects are, bit for bit, those of stepping the same policy
one round at a time, and the rows the live API returns are their rows.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsel import rounding
from divsel.core import Instance, marginals
from divsel.fixed_policy import new_fixed_policy, run_fixed_policy
from divsel.generators import gen_random
from divsel.unknown_policy import VARIANTS, RoundBlock, UnknownPolicy, run_unknown_policy

from conftest import tiny_instances

#: Bytes a live object may retain after 300 rounds beyond what it retains
#: after 30: a record per round of the 270 more would take far more.
SLACK = 512


def repeated_instance(times):
    """Thirty d = 8 rounds repeated ``times`` times: every round size the
    long feed meets, the short feed meets too."""
    base = gen_random(d=8, n=30, a=2, density=0.4, min_arrivals=1, c_max=2.0, seed=5)
    rounds = [rnd.bit_lists() for rnd in base.rounds] * times
    return Instance.from_bit_lists(base.d, base.c, len(rounds) * 2, rounds, 2)


LONG = repeated_instance(10)
ROUNDS = list(LONG.rounds)  # the views are built here, not while traced


def retained(feed, count):
    """Traced bytes still held after ``feed`` takes the first ``count``
    rounds, one at a time, each returned row dropped."""
    gc.collect()
    tracemalloc.start()
    try:
        for rnd in ROUNDS[:count]:
            feed(rnd)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def fixed_policy():
    return new_fixed_policy(LONG.d, LONG.c, LONG.capacity, marginals(LONG), 1)


def unknown_policy(variant):
    return UnknownPolicy(LONG.d, LONG.c, LONG.per_round_capacity, variant, topup_enabled=True)


class TestBoundedMemory:
    def assert_flat(self, make, feed):
        retained(lambda rnd, obj=make(): feed(obj, rnd), 30)  # warm-up: what a first call sets up once
        short, long = (retained(lambda rnd, obj=make(): feed(obj, rnd), count) for count in (30, 300))
        assert long <= short + SLACK, (short, long)

    def test_fixed_policy(self):
        self.assert_flat(fixed_policy, lambda policy, rnd: policy.process_round(rnd))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_unknown_policy_with_topup(self, variant):
        self.assert_flat(lambda: unknown_policy(variant), lambda policy, rnd: policy.process_round(rnd))

    def test_rounder(self):
        rows = {id(rnd): row for rnd, row in zip(ROUNDS, fixed_policy_rows())}
        self.assert_flat(lambda: rounding.new_rounder(1), lambda state, rnd: rounding.process_round(state, rows[id(rnd)]))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fork_copies_no_history(self, variant):
        sizes = []
        for count in (30, 300):
            policy = unknown_policy(variant)
            for rnd in ROUNDS[:count]:
                policy.process_round(rnd)
            gc.collect()
            tracemalloc.start()
            try:
                twin = policy.fork()
                sizes.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
            assert not [name for name, value in vars(twin).items() if isinstance(value, (list, dict))]
        assert sizes[1] <= sizes[0] + SLACK, sizes


def fixed_policy_rows():
    """The fixed policy's rows on the long instance, some of them nonzero."""
    rows = [rec.emitted.tolist() for rec in run_fixed_policy(LONG, 1).trace]
    assert any(any(row) for row in rows)
    return rows


def record_bytes(rec):
    """Every field of a record as (dtype, shape, bytes), floats as bytes."""
    return tuple(
        (value.dtype.str, value.shape, value.tobytes()) if isinstance(value, np.ndarray) else np.float64(value).tobytes()
        for value in (getattr(rec, name) for name in rec.__slots__)
    )


class TestPassesEqualLiveSteps:
    @settings(max_examples=60, deadline=None)
    @given(tiny_instances(), st.sampled_from(VARIANTS), st.booleans(), st.booleans())
    def test_unknown_pass(self, inst, variant, topup, continue_after_cap):
        config = (inst.d, inst.c, inst.per_round_capacity, variant, topup, continue_after_cap)
        run = run_unknown_policy(inst, variant, topup, continue_after_cap)
        stepped, live = UnknownPolicy(*config), UnknownPolicy(*config)
        records = [rec for rnd in inst.rounds for rec in stepped.process_rounds(RoundBlock.of_round(rnd))]
        assert list(map(record_bytes, run.trace)) == list(map(record_bytes, records))
        assert [live.process_round(rnd) for rnd in inst.rounds] == [rec.emitted.tolist() for rec in records]
        for policy in (stepped, live):
            assert policy.u.tobytes() == run.policy.u.tobytes()
            assert (policy.round_index, policy.emitted_total) == (run.policy.round_index, run.policy.emitted_total)

    @settings(max_examples=60, deadline=None)
    @given(tiny_instances(), st.integers(0, 3))
    def test_fixed_pass(self, inst, seed):
        run = run_fixed_policy(inst, seed)
        stepped, live = (new_fixed_policy(inst.d, inst.c, inst.capacity, marginals(inst), seed) for _ in range(2))
        records = [stepped.step(rnd) for rnd in inst.rounds]
        assert list(map(record_bytes, run.trace)) == list(map(record_bytes, records))
        assert [live.process_round(rnd) for rnd in inst.rounds] == [rec.emitted.tolist() for rec in records]
        for policy in (stepped, live):
            assert policy.round_index == run.policy.round_index == inst.n
            assert (policy.v.tobytes(), policy.z_acc.tobytes()) == (run.policy.v.tobytes(), run.policy.z_acc.tobytes())
            assert [(a.y_used, a.z_used) for a in policy.agents] == [(a.y_used, a.z_used) for a in run.policy.agents]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0 - 2**-53, 1.0]) | st.floats(0.0, 1.0), max_size=5),
             max_size=6),
    st.floats(0.0, 1.0, exclude_max=True),
)
def test_selection_count_equals_the_picks_the_caller_collects(rows, pos):
    """The rounder keeps no picks: a caller feeding the rows one by one
    collects them, and they are the picks of the flat row, offset by row."""
    state, picks, offset = rounding.rounder_at(pos), [], 0
    for row in rows:
        picks += [offset + j for j in rounding.process_round(state, row)]
        offset += len(row)
    flat = [x for row in rows for x in row]
    assert picks == rounding.process_round(rounding.rounder_at(pos), flat)
    assert rounding.selection_count(flat, pos) == len(picks)
