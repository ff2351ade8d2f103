import hashlib
import math
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsel import unknown_policy
from divsel.core import core_mask, least_utility, max_over_attributes, solution_from_rows, validate_feasibility
from divsel.errors import ContractError, DimensionError, ShapeError
from divsel.generators import gen_fcs, gen_fhc, gen_random
from divsel.harness import run_policy
from divsel.unknown_policy import (
    RoundBlock,
    UnknownPass,
    UnknownPolicy,
    forward_round,
    hybrid_round,
    myopic_round,
    policy_solution,
    unknown_family_passes,
    run_unknown_policy,
    topup_solution,
    variant_solution,
    water_fill,
)

from conftest import adjustment_lp, fill_value, make_instance, make_round, tiny_instances


def myopic(c, a, rnd):
    """``myopic_round`` on a round, as a list."""
    return myopic_round(c, a, rnd).tolist()


def forward(u, c, a, rnd):
    """``forward_round`` on a round: (y, z, x) as lists, and the next
    utilities."""
    y, z, x, _, u_next = forward_round(u, c, a, rnd)
    return y.tolist(), z.tolist(), x.tolist(), u_next


class TestMyopic:
    def test_scarce_dimension_pins_alpha(self):
        # phi = (3, 1) with a = 2: alpha = min(1, 2/2) = 1; the lone
        # attribute-2 candidate must carry its whole dimension.
        rnd = make_round(2, ((0,),) * 3 + ((1,),))
        x = myopic((1.0, 1.0), 2, rnd)
        assert x == [pytest.approx(1.0 / 3.0)] * 3 + [pytest.approx(1.0)]

    def test_empty_round(self):
        assert myopic((1.0, 1.0), 2, make_round(2, ())) == []

    def test_single_dimension_uses_arrivals(self):
        rnd = make_round(1, ((0,), (0,)))
        x = myopic((1.0,), 5, rnd)
        assert x == [1.0, 1.0]
        assert sum(x) <= 5

    def test_missing_dimension_zeroes_round(self):
        rnd = make_round(2, ((0,),))
        assert myopic((1.0, 1.0), 4, rnd) == [0.0]

    def test_per_round_mass_within_a(self):
        inst = gen_random(d=5, n=6, a=2, density=0.5, min_arrivals=1, c_max=2.0, seed=3)
        for rnd in inst.rounds:
            x = myopic(inst.c, inst.per_round_capacity, rnd)
            assert sum(x) <= inst.per_round_capacity + 1e-9


class TestCoreSet:
    """Core candidates (popcount^2 >= d) get the forward pass's tendency 1."""

    @staticmethod
    def core_positions(rnd, d):
        y, _, _, _ = forward(np.zeros(d), (1.0,) * d, 1, rnd)
        assert core_mask(rnd.lens, d).tolist() == [v == 1.0 for v in y]
        return [j for j, v in enumerate(y) if v == 1.0]

    def test_two_of_three_attributes_is_core(self):
        rnd = make_round(3, ((0, 1),))
        assert self.core_positions(rnd, 3) == [0]

    def test_one_of_four_is_regular(self):
        rnd = make_round(4, ((2,),))
        assert self.core_positions(rnd, 4) == []

    def test_boundary_equality_included(self):
        rnd = make_round(4, ((0, 3),))
        assert self.core_positions(rnd, 4) == [0]


class TestWaterFill:
    def test_two_level_hand_trace(self):
        budget = 2.0 * math.sqrt(2.0)
        z = water_fill([0.0, 2.0], [5.0, 5.0], budget, [1.0, 1.0])
        # Raise dim 1 alone by 2, then split the remaining 0.828 evenly.
        assert z.tolist() == [pytest.approx(2.414213562373095), pytest.approx(0.41421356237309515)]
        assert fill_value([0.0, 2.0], z, [1.0, 1.0]) == pytest.approx(2.414213562373095)

    def test_zero_budget(self):
        z = water_fill([3.0, 1.0], [5.0, 5.0], 0.0, [1.0, 1.0])
        assert z.tolist() == [0.0, 0.0]
        assert fill_value([3.0, 1.0], z, [1.0, 1.0]) == 1.0

    def test_first_cap_terminates(self):
        z = water_fill([0.0, 0.0], [0.5, 10.0], 10.0, [1.0, 1.0])
        assert z.tolist() == [pytest.approx(0.5), pytest.approx(0.5)]
        assert fill_value([0.0, 0.0], z, [1.0, 1.0]) == pytest.approx(0.5)

    def test_continue_after_cap_improves_mass_not_value(self):
        u, caps, c = [0.0, 0.0], [0.5, 10.0], [1.0, 1.0]
        z_stop = water_fill(u, caps, 10.0, c)
        z_go = water_fill(u, caps, 10.0, c, continue_after_cap=True)
        assert fill_value(u, z_go, c) == pytest.approx(fill_value(u, z_stop, c))
        assert sum(z_go) > sum(z_stop)
        assert z_go[0] == pytest.approx(0.5) and z_go[1] == pytest.approx(9.5)

    def test_weighted_rates(self):
        # c = (1, 2): the cheap dimension raises level twice as fast per unit z.
        z = water_fill([0.0, 0.0], [10.0, 10.0], 3.0, [1.0, 2.0])
        # tied levels: z1 = L, z2 = L/2, consumption L + L/2 = 3 -> L = 2.
        assert z.tolist() == [pytest.approx(2.0), pytest.approx(1.0)]

    def test_continue_after_cap_stops_when_the_budget_binds_first(self, monkeypatch):
        # Round 193 of this stream: the budget binds below the next cap, but
        # rounding leaves the consumption ~1e-12 short of the budget, so no
        # dimension freezes.  The freezing loop used to repeat that state
        # forever; a worker thread turns a relapse into a failure.
        inst = gen_random(d=64, n=400, a=4, density=0.1, min_arrivals=1, c_max=2.0, seed=7)
        c, a, u = inst.c, inst.per_round_capacity, np.zeros(inst.d)
        for rnd in inst.rounds[:193]:
            u = forward_round(u, c, a, rnd, continue_after_cap=True)[-1]
        seen = []

        def recording(u, caps, budget, c, continue_after_cap=False):
            seen.append((list(u), caps, budget, c))
            return water_fill(u, caps, budget, c)

        monkeypatch.setattr(unknown_policy, "water_fill", recording)
        forward_round(u, c, a, inst.rounds[193], continue_after_cap=True)
        [(u, caps, budget, c)] = seen

        z_stop = water_fill(u, caps, budget, c)
        assert math.fsum(z_stop) < budget - 1e-12
        result = []
        worker = threading.Thread(
            target=lambda: result.append(water_fill(u, caps, budget, c, continue_after_cap=True)),
            daemon=True,
        )
        worker.start()
        worker.join(60)
        assert result, "water_fill did not return"
        [z_go] = result
        assert fill_value(u, z_go, c) == pytest.approx(fill_value(u, z_stop, c), abs=1e-9)
        assert sum(z_go) <= budget + 1e-9
        assert all(zk <= cap for zk, cap in zip(z_go, caps))

    @pytest.mark.parametrize("seed", range(60))
    def test_value_matches_lp(self, seed):
        # Odd seeds: d <= 7; even seeds: up to 64.  Every third seed draws u
        # from four values (ties), caps are 0 half the time (no arrivals), and
        # every fourth seed sets the budget to the consumption at one of the
        # join or cap levels, so the budget lands on an event.
        import random

        rng = random.Random(seed)
        d = rng.randint(1, 7) if seed % 2 else rng.randint(8, 64)
        if seed % 3 == 0:
            u = [rng.choice([0.0, 0.5, 1.0, 2.5]) for _ in range(d)]
        else:
            u = [rng.uniform(0, 5) for _ in range(d)]
        caps = [rng.choice([0.0, rng.uniform(0, 4)]) for _ in range(d)]
        c = [rng.uniform(1.0, 3.0) for _ in range(d)]
        if seed % 4 == 0:
            level = rng.choice(u + [u[k] + c[k] * caps[k] for k in range(d)])
            budget = math.fsum(min(caps[k], max(0.0, (level - u[k]) / c[k])) for k in range(d))
        else:
            budget = rng.uniform(0, 8 * d / 4)
        z = water_fill(u, caps, budget, c)
        z_go = water_fill(u, caps, budget, c, continue_after_cap=True)
        for fill in (z, z_go):
            assert sum(fill) <= budget + 1e-9
            assert all(0.0 <= zk <= caps[k] for k, zk in enumerate(fill))
        lp_value, _ = adjustment_lp(u, caps, budget, c)
        assert fill_value(u, z, c) == pytest.approx(lp_value, abs=1e-7)
        assert fill_value(u, z_go, c) == pytest.approx(fill_value(u, z, c), abs=1e-9)
        assert all(go >= stop for go, stop in zip(z_go, z))

    @pytest.mark.parametrize("d", [256, 1024])
    def test_sweep_scales_with_d(self, d):
        # Budget 0.9 * sum(caps): the cap mode passes nearly every cap event.
        rng = np.random.default_rng(d)
        u, caps, c = rng.uniform(0, 5, d), rng.uniform(0, 4, d), rng.uniform(1, 3, d)
        budget = 0.9 * float(caps.sum())
        lp_value, _ = adjustment_lp(u.tolist(), caps.tolist(), budget, c.tolist())
        for continue_after_cap in (False, True):
            start = time.perf_counter()
            z = water_fill(u, caps, budget, c, continue_after_cap)
            assert time.perf_counter() - start < 5.0
            assert fill_value(u, z, c) == pytest.approx(lp_value, abs=1e-7)
            assert sum(z) <= budget + 1e-9
        assert sum(z) == pytest.approx(budget)


class TestForward:
    def test_hand_traced_round(self):
        # d=4, a=2: four two-attribute candidates covering each dimension
        # twice.  All are core; u rises to 2 per dim, then the fill adds 1
        # per dim, and the transform gives 0.25 + 0.125 = 0.375 each.
        rnd = make_round(4, ((0, 1), (2, 3), (0, 2), (1, 3)))
        y, z, x, u = forward(np.zeros(4), (1.0,) * 4, 2, rnd)
        assert y == [1.0] * 4
        assert z == [pytest.approx(1.0)] * 4
        assert x == [pytest.approx(0.375)] * 4
        assert u.tolist() == [pytest.approx(3.0)] * 4

    def test_no_core_no_fill_gives_zero(self):
        # Singleton candidate on one dimension of four: not core, and the
        # zero arrival count on the lowest-utility dimensions stops the fill
        # at once.
        rnd = make_round(4, ((0,),))
        y, z, x, _ = forward(np.zeros(4), (1.0,) * 4, 1, rnd)
        assert y == [0.0] and z == [0.0] * 4 and x == [0.0]

    def test_per_round_mass_within_a(self):
        for seed in (1, 2, 3):
            inst = gen_random(d=6, n=7, a=2, density=0.45, min_arrivals=1, c_max=2.0, seed=seed)
            u = np.zeros(inst.d)
            for rnd in inst.rounds:
                _, _, x, u = forward(u, inst.c, inst.per_round_capacity, rnd)
                assert sum(x) <= inst.per_round_capacity + 1e-9

    def test_u_monotone(self):
        inst = gen_fcs(8)[0]
        u = np.zeros(inst.d)
        prev = u.tolist()
        for rnd in inst.rounds:
            u = forward(u, inst.c, inst.per_round_capacity, rnd)[-1]
            assert all(now >= before - 1e-12 for now, before in zip(u.tolist(), prev))
            prev = u.tolist()

    def test_never_writes_its_input(self):
        inst = gen_random(d=6, n=7, a=2, density=0.45, min_arrivals=1, c_max=2.0, seed=1)
        u = np.zeros(inst.d)
        for rnd in list(inst.rounds) + [make_round(inst.d, ())]:
            u.setflags(write=False)
            before = u.tobytes()
            *_, u_next = forward_round(u, inst.c, inst.per_round_capacity, rnd)
            assert u.tobytes() == before
            if len(rnd):
                assert u_next is not u and (u_next > u).any()
            else:  # an empty round hands back the same utilities
                assert u_next is u
            u = u_next

    def test_round_of_another_d_is_refused(self):
        policy = UnknownPolicy(d=4, c=(1.0,) * 4, a=1)
        for rnd in (make_round(8, [(0, 5), (1, 2, 7)]), make_round(8, [])):
            with pytest.raises(DimensionError, match="d=8"):
                policy.process_round(rnd)
        assert policy.round_index == 0 and policy.emitted_total == 0.0 and not policy.u.any()

    # A d=8 round where dimensions 3, 4 and 6 have no arrivals, and one where all do.
    OF_D8 = ([(0, 5), (1, 2, 7)], [tuple(range(8))])

    @pytest.mark.parametrize("cands", OF_D8)
    def test_myopic_round_refuses_c_of_another_d(self, cands):
        with pytest.raises(DimensionError, match="d=8"):
            myopic_round((1.0,) * 4, 1, make_round(8, cands))

    @pytest.mark.parametrize("cands", OF_D8)
    def test_forward_round_refuses_c_or_u_of_another_d(self, cands):
        for u, c in ((np.zeros(4), (1.0,) * 8), (np.zeros(8), (1.0,) * 4)):
            with pytest.raises(DimensionError, match="d=8"):
                forward_round(u, c, 1, make_round(8, cands))

    def test_empty_round_banks_capacity(self):
        policy = UnknownPolicy(d=2, c=(1.0, 1.0), a=3, variant="hybrid", topup_enabled=True)
        assert policy.process_round(make_round(2, ())) == []
        assert policy.round_index * policy.a - policy.emitted_total == pytest.approx(3.0)


class TestHybridAndTopup:
    def test_average(self):
        assert hybrid_round([0.2, 0.4], [0.2, 0.4]).tolist() == [0.2, 0.4]
        assert hybrid_round([0.0, 0.0], [0.5, 1.0]).tolist() == [0.25, 0.5]

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            hybrid_round([0.1], [0.1, 0.2])

    def test_no_leftover_is_identity(self):
        inst = make_instance(1, [[(0,)], [(0,)]], capacity=2, a=1)
        plain = run_unknown_policy(inst, variant="hybrid", topup=False)
        boosted = run_unknown_policy(inst, variant="hybrid", topup=True)
        # x = 1 per round already consumes everything: top-up changes nothing.
        assert policy_solution(boosted).x == tuple(((1.0,), (1.0,)))
        lu_plain, _ = least_utility(inst, policy_solution(plain))
        lu_boost, _ = least_utility(inst, policy_solution(boosted))
        assert lu_boost >= lu_plain - 1e-12

    def test_single_round_full_consumption(self):
        # a = 3 against three candidates summing to 1: the top-up raises all
        # entries to their cap of 1, consuming the headroom of 2.
        inst = make_instance(3, [[(0,), (1,), (2,)]], capacity=3, a=3)
        boosted = run_unknown_policy(inst, variant="hybrid", topup=True)
        assert policy_solution(boosted).x == ((1.0, 1.0, 1.0),)

    def test_dominance_on_random_instances(self):
        for seed in (5, 6, 7, 8):
            inst = gen_random(d=5, n=6, a=2, density=0.4, min_arrivals=1, c_max=2.5, seed=seed)
            for variant in ("hybrid", "myopic", "forward"):
                plain = run_unknown_policy(inst, variant=variant, topup=False)
                boosted = run_unknown_policy(inst, variant=variant, topup=True)
                for row_p, row_b in zip(policy_solution(plain).x, policy_solution(boosted).x):
                    assert all(b >= p - 1e-12 for p, b in zip(row_p, row_b))
                lu_p, _ = least_utility(inst, policy_solution(plain))
                lu_b, _ = least_utility(inst, policy_solution(boosted))
                assert lu_b >= lu_p - 1e-12

    def test_prefix_feasibility_with_and_without_topup(self):
        for seed in (11, 12):
            inst = gen_random(d=4, n=8, a=1, density=0.5, min_arrivals=1, c_max=2.0, seed=seed)
            for topup in (False, True):
                pol = run_unknown_policy(inst, variant="hybrid", topup=topup)
                assert validate_feasibility(inst, policy_solution(pol), "per_round_prefix")

    def test_requires_a(self):
        inst = make_instance(1, [[(0,)]], capacity=5)
        with pytest.raises(ContractError):
            run_unknown_policy(inst, variant="hybrid")

    def test_determinism(self):
        inst = gen_random(d=5, n=5, a=2, density=0.5, min_arrivals=1, c_max=2.0, seed=42)
        a = run_unknown_policy(inst, variant="hybrid", topup=True)
        b = run_unknown_policy(inst, variant="hybrid", topup=True)
        assert policy_solution(a).x == policy_solution(b).x

    def test_composition_matches_sub_operations(self):
        inst = gen_random(d=4, n=1, a=2, density=0.6, min_arrivals=1, c_max=1.5, seed=9)
        rnd = inst.rounds[0]
        x_bar = myopic(inst.c, inst.per_round_capacity, rnd)
        _, _, x_hat, _ = forward(np.zeros(inst.d), inst.c, inst.per_round_capacity, rnd)
        pol = run_unknown_policy(inst, variant="hybrid")
        assert pol.trace[0].emitted.tolist() == pytest.approx(hybrid_round(x_bar, x_hat).tolist())


def trace_bytes(policy):
    """Every trace record of a pass as raw bytes, field by field, with each
    array's dtype and shape."""
    return [
        tuple((arr.dtype.str, arr.shape, arr.tobytes()) for arr in (rec.x_bar, rec.x_hat, rec.y, rec.z, rec.emitted))
        + (np.float64(rec.f).tobytes(),)
        for rec in policy.trace
    ]


def assert_same_pass(got, want):
    assert trace_bytes(got) == trace_bytes(want)
    got, want = got.policy, want.policy
    assert got.u.tobytes() == want.u.tobytes()
    assert (got.round_index, got.emitted_total) == (want.round_index, want.emitted_total)


def new_pass(**config):
    """A fresh policy with an empty record list."""
    return UnknownPass(UnknownPolicy(**config), [])


def step(run, rnd):
    """One round fed live to the pass's policy, its record kept on the
    pass's trace; returns the emitted row, as ``process_round`` does."""
    (rec,) = run.policy.process_rounds(RoundBlock.of_round(rnd))
    run.trace.append(rec)
    return rec.emitted.tolist()


def counting_process_round(monkeypatch):
    """Record the size of every round the policy's block entry receives
    (``process_round`` feeds it one-round blocks)."""
    sizes = []
    real = UnknownPolicy.process_rounds

    def counting(self, block):
        sizes.extend(block.sizes.tolist())
        return real(self, block)

    monkeypatch.setattr(UnknownPolicy, "process_rounds", counting)
    return sizes


def full_arithmetic_round(run, rnd):
    """One round of ``UnknownPolicy`` computed on that round alone, with
    every stage run on every round, empty ones included: the per-round
    arithmetic the block pass replaced (``np.add.at`` for the core, one
    ``max_over_attributes`` per row), as the oracle of the block pass.  It
    updates the pass's policy and appends the round's record to its trace."""
    policy = run.policy
    c, d, a = np.array(policy.c), policy.d, policy.a
    policy.round_index += 1
    counts, core = rnd.counts, core_mask(rnd.lens, d)
    x_bar = np.zeros(len(rnd))
    if len(rnd) and counts.min() > 0:
        alpha = min(float((c * counts).min()), a / math.fsum(1.0 / ck for ck in policy.c))
        x_bar = max_over_attributes((alpha / c) / counts, rnd)
    u = policy.u.copy()
    core_bits = rnd.bits[np.repeat(core, rnd.lens)]
    np.add.at(u, core_bits, c[core_bits])
    z = water_fill(u, counts, math.sqrt(d) * a, c, policy.continue_after_cap)
    f = fill_value(u, z, c)
    total = len(rnd.bits)
    y_scale = min(1.0, a / (total / math.sqrt(d))) if total > 0 else 0.0
    x_hat = (core / 2.0) * y_scale + max_over_attributes(z / np.maximum(counts, 1), rnd) / (2.0 * math.sqrt(d))
    policy.u = u + c * z
    row = unknown_policy._variant_row(policy.variant, x_bar, x_hat)
    if policy.topup_enabled:
        row = unknown_policy.leftover_topup(policy, row)
    x_i = row.tolist()
    policy.emitted_total += math.fsum(x_i)
    run.trace.append(unknown_policy.UnknownRound(x_bar, x_hat, core.astype(float), z, f, row))
    return x_i


def with_empty_rounds(inst, pattern):
    """``inst``'s rounds in order, an empty round wherever ``pattern`` has
    None and the next of them wherever it has a 1."""
    rounds = iter(inst.rounds)
    return [make_round(inst.d, ()) if slot is None else next(rounds) for slot in pattern]


def test_hybrid_topup_stream_is_pinned():
    """The default hybrid + top-up pass over the 2,000-round d=64 stream,
    byte for byte: its emitted rows, every trace field, and the rounder's
    picks on the rows.  The cached constants, the short water-fill sweep and
    the top-up shortcut may change no bit of them."""
    from divsel import rounding

    inst = gen_random(d=64, n=2000, a=4, density=0.2, min_arrivals=1, c_max=2.0, seed=1)
    policy = run_unknown_policy(inst, "hybrid", topup=True)
    emitted, records, picks = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    rounder, picked = rounding.new_rounder(1), 0
    for rec in policy.trace:
        emitted.update(rec.emitted.tobytes())
        for arr in (rec.x_bar, rec.x_hat, rec.y, rec.z, rec.emitted):
            records.update(np.asarray(arr, dtype=np.float64).tobytes())
        records.update(struct.pack("d", rec.f))
        chosen = rounding.process_round(rounder, rec.emitted.tolist())
        picks.update(struct.pack(f"{len(chosen)}q", *chosen))
        picked += len(chosen)
    assert emitted.hexdigest() == "cd66988b40de7746300e3212d7b27fa22fed3daa57ed1e159e771b29cb602ef8"
    assert records.hexdigest() == "81c90f7d88d0089bbaad96c6d29fa76dc78e75788ce26eb7479e7b471ccb98d2"
    assert picks.hexdigest() == "894caf49513d8b15ea3984575e00de2c6f82dbaef2f1ef0644658c869211505f"
    assert picked == 8000


class TestEmptyRounds:
    """A round without candidates skips the kernels and records what they
    would have returned, bit for bit."""

    E = None
    PATTERNS = {
        "first": [E, 1, 1, 1],
        "middle": [1, 1, E, 1, 1],
        "last": [1, 1, 1, E],
        "back-to-back": [E, E, 1, E, E, E, 1, 1, E, E],
        "only": [E, E, E],
    }

    @staticmethod
    def nonempty_rounds(seed):
        return gen_random(d=6, n=6, a=2, density=0.4, min_arrivals=1, c_max=2.5, seed=seed)

    @pytest.mark.parametrize("pattern", list(PATTERNS))
    @pytest.mark.parametrize("variant", unknown_policy.VARIANTS)
    @pytest.mark.parametrize("topup", [False, True])
    @pytest.mark.parametrize("continue_after_cap", [False, True])
    def test_records_match_the_full_arithmetic(self, monkeypatch, pattern, variant, topup, continue_after_cap):
        inst = self.nonempty_rounds(seed=len(pattern))
        rounds = with_empty_rounds(inst, self.PATTERNS[pattern])
        config = dict(d=inst.d, c=inst.c, a=2, variant=variant, topup_enabled=topup,
                      continue_after_cap=continue_after_cap)
        want = new_pass(**config)
        want_rows = [full_arithmetic_round(want, rnd) for rnd in rounds]
        fills, real = [], unknown_policy.water_fill
        monkeypatch.setattr(unknown_policy, "water_fill", lambda *args: fills.append(1) or real(*args))
        got = new_pass(**config)
        assert [step(got, rnd) for rnd in rounds] == want_rows
        assert_same_pass(got, want)
        assert len(fills) == sum(len(rnd) > 0 for rnd in rounds)

    @pytest.mark.parametrize("topup", [False, True])
    def test_fork_inside_an_empty_run(self, topup):
        inst = self.nonempty_rounds(seed=21)
        rounds = with_empty_rounds(inst, self.PATTERNS["back-to-back"])
        config = dict(d=inst.d, c=inst.c, a=2, topup_enabled=topup)
        want = new_pass(**config)
        for rnd in rounds:
            full_arithmetic_round(want, rnd)
        for cut in (1, 4, 5, 9):  # each between two empty rounds
            run = new_pass(**config)
            for rnd in rounds[:cut]:
                step(run, rnd)
            twin = UnknownPass(run.policy.fork(), list(run.trace))
            for rnd in rounds[cut:]:
                step(twin, rnd)
            assert_same_pass(twin, want)
            for rnd in rounds[cut:]:
                step(run, rnd)
            assert_same_pass(run, want)

    def test_shared_rows_are_read_only(self):
        run = new_pass(d=3, c=(1.0, 2.0, 1.5), a=1)
        for _ in range(2):
            step(run, make_round(3, ()))
        first, second = run.trace
        for arr in (first.x_bar, first.x_hat, first.y, first.z, first.emitted):
            with pytest.raises(ValueError):
                arr[...] = 1.0
        # Every empty round records the same zeros(d), not one of its own.
        assert first.z is second.z and first.z.shape == (3,) and not first.z.any()


class TestVariantSolution:
    """``variant_solution`` equals the per-round ``_variant_row`` rows bit
    for bit."""

    @staticmethod
    def per_round(policy, variant):
        return solution_from_rows(
            [unknown_policy._variant_row(variant, rec.x_bar, rec.x_hat) for rec in policy.trace]
        )

    @staticmethod
    def assert_same_solution(got, want):
        assert got.values.tobytes() == want.values.tobytes()
        assert got.round_ptr.tobytes() == want.round_ptr.tobytes()

    @pytest.mark.parametrize("variant", unknown_policy.VARIANTS)
    def test_random_verify_shape(self, variant):
        inst = gen_random(d=32, n=1000, a=4, density=0.2, min_arrivals=1, c_max=2.0, seed=1)
        policy = run_unknown_policy(inst, topup=True)
        self.assert_same_solution(variant_solution(policy, variant), self.per_round(policy, variant))

    @pytest.mark.parametrize("variant", unknown_policy.VARIANTS)
    def test_fhc_members(self, variant):
        for policy in unknown_family_passes(gen_fhc(27)):
            self.assert_same_solution(variant_solution(policy, variant), self.per_round(policy, variant))

    def test_empty_pass(self):
        policy = new_pass(d=2, c=(1.0, 1.0), a=1)
        for variant in unknown_policy.VARIANTS:
            self.assert_same_solution(variant_solution(policy, variant), self.per_round(policy, variant))


class TestBlockPass:
    """``process_rounds`` on any block equals ``full_arithmetic_round`` round
    by round, bit for bit, whatever the cuts between blocks."""

    @settings(max_examples=100, deadline=None)
    @given(tiny_instances(), st.sampled_from(unknown_policy.VARIANTS), st.booleans(), st.booleans(), st.data())
    def test_block_pass_matches_round_by_round(self, inst, variant, topup, continue_after_cap, data):
        config = dict(d=inst.d, c=inst.c, a=inst.per_round_capacity, variant=variant, topup_enabled=topup,
                      continue_after_cap=continue_after_cap)
        want = new_pass(**config)
        want_rows = [full_arithmetic_round(want, rnd) for rnd in inst.rounds]
        cuts = sorted(data.draw(st.sets(st.integers(1, max(inst.n - 1, 1)), max_size=inst.n)) & set(range(1, inst.n)))
        feeds = {
            "one block": [(0, inst.n)],
            "single rounds": [(r, r + 1) for r in range(inst.n)],
            "random cuts": list(zip([0] + cuts, cuts + [inst.n])),
        }
        for name, spans in feeds.items():
            got = new_pass(**config)
            for lo, hi in spans:
                got.trace.extend(got.policy.process_rounds(RoundBlock.of_instance(inst, lo, hi)))
            assert [rec.emitted.tolist() for rec in got.trace] == want_rows, name
            assert_same_pass(got, want)
        fed_by_round = UnknownPolicy(**config)
        assert [fed_by_round.process_round(rnd) for rnd in inst.rounds] == want_rows
        assert_same_pass(UnknownPass(fed_by_round, want.trace), want)
        assert_same_pass(run_unknown_policy(inst, variant, topup, continue_after_cap), want)

    def test_blocks_of_a_long_instance_stay_bounded(self, monkeypatch):
        """``run_unknown_policy`` cuts a long instance into blocks of at most
        2^16 / d rounds, and the cuts change no bit."""
        inst = gen_random(d=64, n=1100, a=4, density=0.05, min_arrivals=1, c_max=2.0, seed=2)
        whole = run_unknown_policy(inst, topup=True)
        sizes = []
        real = UnknownPolicy.process_rounds
        monkeypatch.setattr(UnknownPolicy, "process_rounds", lambda self, block: sizes.append(len(block.sizes))
                            or real(self, block))
        assert_same_pass(run_unknown_policy(inst, topup=True), whole)
        assert sizes == [1024, 76]


class TestFork:
    def test_fork_is_independent(self):
        inst = gen_random(d=5, n=6, a=2, density=0.4, min_arrivals=1, c_max=2.0, seed=3)
        run = new_pass(d=5, c=inst.c, a=2, topup_enabled=True)
        for rnd in inst.rounds[:3]:
            step(run, rnd)
        policy = run.policy
        twin = UnknownPass(policy.fork(), list(run.trace))
        assert_same_pass(twin, run)
        assert twin.policy is not policy and twin.policy.u is policy.u
        before = (policy.u.tolist(), policy.emitted_total, policy.round_index, len(run.trace))
        for rnd in inst.rounds[3:]:
            step(twin, rnd)
        assert (policy.u.tolist(), policy.emitted_total, policy.round_index, len(run.trace)) == before
        assert_same_pass(twin, run_unknown_policy(inst, topup=True))

    def test_fork_u_survives_the_twin(self):
        inst = gen_random(d=5, n=6, a=2, density=0.4, min_arrivals=1, c_max=2.0, seed=4)
        run = new_pass(d=5, c=inst.c, a=2)
        for rnd in inst.rounds[:2]:
            step(run, rnd)
        twin = UnknownPass(run.policy.fork(), list(run.trace))
        u_fork = twin.policy.u.tobytes()
        for rnd in inst.rounds[2:]:
            step(run, rnd)
        assert twin.policy.u.tobytes() == u_fork and run.policy.u.tobytes() != u_fork
        for rnd in inst.rounds[2:]:
            step(twin, rnd)
        assert_same_pass(twin, run)


class TestFamilyPass:
    """``unknown_family_passes`` gives every member the pass a fresh
    ``run_policy(member, "uc-hybrid", seed)`` gives it, bit for bit."""

    @pytest.mark.parametrize("family", ["fhc", "fcs"])
    @pytest.mark.parametrize("d", [27, 64])
    def test_hard_families_match_fresh_passes(self, family, d):
        members = gen_fhc(d) if family == "fhc" else gen_fcs(d)
        passes = list(unknown_family_passes(members))
        assert len(passes) == len(members)
        for member, forked in zip(members, passes):
            assert_same_pass(forked, run_policy(member, "uc-hybrid", seed=1)[1])

    @pytest.mark.parametrize("family, d, total, nonempty", [
        ("fhc", 64, 2080, 127),
        ("fcs", 64, 160, 160),
        ("fhc", 27, 27 + 27 * 26 // 2, 2 * 27 - 1),
    ])
    def test_shared_rounds_are_processed_once(self, monkeypatch, family, d, total, nonempty):
        members = gen_fhc(d) if family == "fhc" else gen_fcs(d)
        sizes = counting_process_round(monkeypatch)
        list(unknown_family_passes(members))
        assert len(sizes) == total and sum(size > 0 for size in sizes) == nonempty

    @staticmethod
    def hand_made(rounds_per_member, d=3, a=1, c=None):
        return [
            make_instance(d, rounds, capacity=len(rounds) * a, c=c, a=a) for rounds in rounds_per_member
        ]

    R1, R2, R3 = [(0, 1), (2,)], [(1,), ()], [(0, 1, 2), (0,), (2,)]

    @pytest.mark.parametrize("case, processed", [
        # Diverge at round 0: every member is a full pass of its own.
        ("diverge-at-0", 3 + 3 + 2),
        # Member 0 is a full prefix of member 1, which is a prefix of member 2.
        ("full-prefix", 2 + 1 + 2),
        # Members of different n sharing two rounds, then one.
        ("different-n", 4 + 1 + 3),
        # Member 2 leaves member 1 earlier than member 1 left member 0, so it
        # starts a fresh pass.
        ("earlier-fork", 4 + 2 + 3),
        # Equal members: only the first is processed.
        ("identical", 3),
    ])
    def test_hand_made_families(self, monkeypatch, case, processed):
        R1, R2, R3 = self.R1, self.R2, self.R3
        rounds = {
            "diverge-at-0": [[R1, R2, R3], [R2, R2, R3], [R3, []]],
            "full-prefix": [[R1, R2], [R1, R2, R3], [R1, R2, R3, [], R1]],
            "different-n": [[R1, R2, R3, []], [R1, R2, R1], [R1, R2, R2, R3, R3]],
            "earlier-fork": [[R1, R2, R3, R1], [R1, R2, R1, R1], [R1, R3, R2]],
            "identical": [[R1, [], R3]] * 3,
        }[case]
        members = self.hand_made(rounds, c=(1.0, 1.5, 2.5))
        fresh = [run_unknown_policy(member) for member in members]
        sizes = counting_process_round(monkeypatch)
        passes = list(unknown_family_passes(members))
        assert len(sizes) == processed
        for forked, want in zip(passes, fresh):
            assert_same_pass(forked, want)

    def test_members_with_other_weights_start_fresh(self, monkeypatch):
        R1, R2 = self.R1, self.R2
        members = self.hand_made([[R1, R2], [R1, R2, R2]]) + self.hand_made([[R1, R2, R1]], c=(1.0, 2.0, 1.0))
        # Then a fresh pass for a = 2, which the last member continues.
        members += self.hand_made([[R1, R2, R1, R1], [R1, R2, R1, R2]], a=2, c=(1.0, 2.0, 1.0))
        fresh = [run_unknown_policy(member) for member in members]
        sizes = counting_process_round(monkeypatch)
        passes = list(unknown_family_passes(members))
        assert len(sizes) == 2 + 1 + 3 + 4 + 1
        for forked, want in zip(passes, fresh):
            assert_same_pass(forked, want)

    @pytest.mark.parametrize("family", ["fhc", "fcs"])
    def test_a_member_iterator_gives_the_same_passes(self, family):
        """Read one member ahead from an iterator, the passes are those of the list."""
        members = gen_fhc(27) if family == "fhc" else gen_fcs(27)
        streamed = list(unknown_family_passes(iter(members)))
        assert len(streamed) == len(members)
        for got, want in zip(streamed, unknown_family_passes(members)):
            assert_same_pass(got, want)

    def test_no_members(self):
        assert list(unknown_family_passes([])) == []
        assert list(unknown_family_passes(iter([]))) == []


class TestTopupReplay:
    """``topup_solution`` replays each variant's top-up from the plain rows
    of any pass; it equals the live top-up pass of that variant bit for bit."""

    @staticmethod
    def assert_replays(policy, inst):
        for variant in unknown_policy.VARIANTS:
            live = policy_solution(run_unknown_policy(inst, variant, topup=True))
            replayed = topup_solution(policy, variant)
            assert replayed.values.tobytes() == live.values.tobytes(), variant
            assert replayed.round_ptr.tobytes() == live.round_ptr.tobytes(), variant

    @settings(max_examples=100, deadline=None)
    @given(tiny_instances(), st.sampled_from(unknown_policy.VARIANTS), st.booleans())
    def test_any_pass_of_a_tiny_instance(self, inst, variant, topup):
        self.assert_replays(run_unknown_policy(inst, variant, topup), inst)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_instances(self, seed):
        inst = gen_random(d=16, n=80, a=3, density=0.3, min_arrivals=1, c_max=2.0, seed=seed)
        self.assert_replays(run_unknown_policy(inst), inst)

    def test_fhc_members_with_empty_rounds(self):
        for member in gen_fhc(9):
            self.assert_replays(run_unknown_policy(member), member)

    @pytest.mark.parametrize("family", ["fhc", "fcs"])
    def test_forked_family_passes(self, family):
        members = gen_fhc(12) if family == "fhc" else gen_fcs(27)
        for member, forked in zip(members, unknown_family_passes(members)):
            self.assert_replays(forked, member)
