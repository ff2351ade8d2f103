import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divsel import rounding
from divsel.benchmark import solve_fluid
from divsel.core import solution_from_rows
from divsel.errors import DomainError
from divsel.generators import gen_fcs, gen_fhc, gen_random
from divsel.harness import run_policy
from divsel.rounding import (
    capacity_safe,
    capacity_sweep,
    max_selection_count,
    new_rounder,
    pick_segments,
    process_round,
    rounder_at,
    selection_count,
)
from divsel.unknown_policy import variant_solution

from conftest import (
    exact_total,
    line_boundaries,
    make_instance,
    offset_selections,
    random_feasible_x,
    selection_intervals,
)

# Test-only oracles.


def pos_selects(pieces, pos):
    """Whether the interval-arithmetic pieces of one candidate contain pos."""
    return any(lo <= pos < hi for lo, hi in pieces)


def count_bounds(x_flat):
    """The only two counts any offset can realize: floor and ceil of the
    exact sum of the clipped fractions.  (``math.fsum`` rounds: for
    [1.0, 1 - 2^-53] it returns 2.0, a tie rounded to even, although the
    exact sum is below 2.)"""
    total = exact_total(x_flat)
    return math.floor(total), math.ceil(total)


def grid_counts(x_flat, grid):
    """Selection counts of the vectorized predicate at the midpoints of a
    ``grid``-point pos grid."""
    pos = (np.arange(grid) + 0.5) / grid
    counts = np.zeros(grid, dtype=np.int64)
    for _, sel in offset_selections(x_flat, pos):
        counts += sel
    return pos, counts


def sweep_counts_at(x_flat, pos):
    """The capacity sweep's count at each offset in ``pos``."""
    offsets, counts = capacity_sweep(x_flat)
    return counts[np.searchsorted(offsets, pos, side="right") - 1]


class TestRounderInit:
    def test_deterministic_given_seed(self):
        assert new_rounder(0).pos == new_rounder(0).pos
        assert new_rounder(1).pos != new_rounder(2).pos

    def test_pos_in_unit_interval(self):
        for seed in range(200):
            assert 0.0 <= new_rounder(seed).pos < 1.0

    def test_pos_mean_over_seeds(self):
        mean = sum(new_rounder(seed).pos for seed in range(100_000)) / 100_000
        assert abs(mean - 0.5) < 0.01


class TestProcessRound:
    def test_unit_fractions_always_selected(self):
        for seed in range(25):
            state = new_rounder(seed)
            assert process_round(state, [1.0, 1.0]) == [0, 1]

    def test_zero_fractions_never_selected(self):
        for seed in range(25):
            state = new_rounder(seed)
            assert process_round(state, [0.0, 0.0, 0.0]) == []

    def test_halves_select_exactly_two(self):
        # sum x = 2 exactly, so every offset realizes exactly 2 selections.
        for t in range(1000):
            pos = (t + 0.5) / 1000
            assert selection_count([0.5, 0.5, 0.5, 0.5], pos) == 2

    def test_halves_marginal_frequency(self):
        trials = 100_000
        rng = np.random.Generator(np.random.PCG64(7))
        hits = np.zeros(4)
        pos = rng.random(trials)
        for j, sel in offset_selections([0.5] * 4, pos):
            hits[j] = sel.mean()
        assert np.all(np.abs(hits - 0.5) < 0.01)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            process_round(new_rounder(0), [1.5])

    def test_matches_oracle_intervals(self):
        rng = random.Random(3)
        xs = [rng.random() for _ in range(12)]
        pieces = selection_intervals(xs)
        for t in range(500):
            pos = (t + 0.31) / 500
            state = rounder_at(pos)
            picked = set(process_round(state, xs))
            for j in range(len(xs)):
                assert (j in picked) == pos_selects(pieces[j], pos), (j, pos)


def assert_trim_contract(x, capacity, counts=None):
    """``capacity_safe`` leaves an exact sum of at most K, lowers only a
    trailing run of the positive entries (all but the first of them to 0),
    lowers the first by no more than needed, and is idempotent."""
    weights = np.ones(len(x), dtype=np.int64) if counts is None else counts
    fitted = capacity_safe(x, capacity, counts)
    assert exact_total(np.repeat(fitted, weights)) <= capacity
    lowered = np.flatnonzero(fitted != x)
    if exact_total(np.repeat(x, weights)) <= capacity:
        assert fitted is x
        return fitted
    first = lowered[0]
    assert np.array_equal(lowered, np.flatnonzero(x > 0.0)[np.flatnonzero(x > 0.0) >= first])
    assert np.all(fitted[lowered] < x[lowered]) and np.all(fitted[lowered[1:]] == 0.0)
    raised = fitted.copy()
    raised[first] = np.nextafter(fitted[first], np.inf)
    assert exact_total(np.repeat(raised, weights)) > capacity
    assert capacity_safe(fitted, capacity, counts) is fitted
    return fitted


def round_solution(sol, capacity, state):
    """The (round, position) picks of one rounder fed every row of a
    solution, made capacity-safe first."""
    x = capacity_safe(sol.values, capacity).tolist()
    ptr = sol.round_ptr.tolist()
    for lo, hi in zip(ptr, ptr[1:]):
        process_round(state, x[lo:hi])
    return state.selected


class TestWholeSolution:
    def test_count_in_floor_ceil_of_total(self):
        inst = make_instance(2, [[(0,), (1,)], [(0, 1), (0,)]], capacity=3)
        sol = solution_from_rows([[0.7, 0.4], [0.9, 0.3]])  # total 2.3
        counts = set()
        for t in range(10_000):
            pos = (t + 0.5) / 10_000
            counts.add(selection_count(sol.flat(), pos))
        assert counts <= {2, 3}
        assert counts == {2, 3}

    def test_empty_instance(self):
        inst = make_instance(1, [], capacity=0)
        assert round_solution(solution_from_rows([]), inst.capacity, new_rounder(0)) == []

    def test_saturated_solution_hits_capacity(self):
        inst = make_instance(2, [[(0,), (1,), (0, 1)]], capacity=2)
        sol = solution_from_rows([[0.75, 0.75, 0.5]])  # total exactly 2
        for seed in range(50):
            assert len(round_solution(sol, inst.capacity, new_rounder(seed))) == 2

    def test_row_within_tolerance_is_fitted_to_capacity(self):
        # Scaled to K = 6, these fractions sum to 6.000000000000001: the
        # unfitted row gives 7 picks at offsets in [0, 4.4e-16).
        inst = gen_random(d=9, n=3, a=2, density=0.35, min_arrivals=1, c_max=2.0, seed=1001)
        sol = random_feasible_x(inst, seed=1)
        assert sol.total() <= inst.capacity + 1e-9
        offsets, counts = capacity_sweep(sol.flat())
        assert counts.max() == inst.capacity + 1 and offsets[np.argmax(counts)] == 0.0
        fitted = capacity_safe(sol.values, inst.capacity)
        assert capacity_sweep(fitted.tolist())[1].max() <= inst.capacity
        assert np.all(fitted <= sol.values) and np.abs(fitted - sol.values).max() <= 1e-14
        for pos in (0.0, 1e-17, 4e-16, 0.5):
            assert len(round_solution(sol, inst.capacity, rounder_at(pos))) <= inst.capacity
        for seed in range(50):
            assert len(round_solution(sol, inst.capacity, new_rounder(seed))) <= inst.capacity

    @pytest.mark.parametrize("tiny", [600, 20_000])
    def test_many_tiny_trailing_entries(self, tiny):
        # Within the 1e-9 tolerance, the excess over K = 3 is carried by
        # entries of 1.8e-13, so the trim zeroes hundreds of them.
        x = np.array([0.5] * 6 + [1.8e-13] * tiny)
        fitted = assert_trim_contract(x, 3)
        assert capacity_sweep(fitted.tolist())[1].max() <= 3
        assert np.flatnonzero(fitted != x)[0] >= 6

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 1.0, 0.3, 0.7, 1e-12, 1e-17]), min_size=1, max_size=30),
        st.integers(1, 6),
        st.sampled_from([0.0, 1e-16, 3e-16, 1e-12, 1e-10]),
    )
    def test_trim_contract(self, values, capacity, rel):
        x = np.array(values)
        if x.sum() <= 0.0:
            return
        x = np.minimum(x * (capacity / x.sum()) * (1.0 + rel), 1.0)
        fitted = assert_trim_contract(x, capacity)
        assert max_selection_count(fitted.tolist())[0] <= capacity

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 50)), min_size=1, max_size=20),
        st.integers(1, 30),
    )
    def test_trim_contract_weighted_by_multiplicity(self, pairs, capacity):
        # solve_fluid trims one value per type, counted once per copy.
        x = np.array([v for v, _ in pairs])
        counts = np.array([m for _, m in pairs])
        total = float((x * counts).sum())
        if total > 0.0:
            x = np.minimum(x * (capacity / total) * (1.0 + 1e-15), 1.0)
        assert_trim_contract(x, capacity, counts)

    def test_pitfall_row_is_whole_and_picks_one_everywhere(self):
        # Flooring each entry to 2^-53 would lose the first and last entries
        # and pick 0 at some offsets; the exact prefix sums total exactly 1.
        x = np.array([2.0**-55, 1.0 - 2.0**-53, 3 * 2.0**-55] + [0.0] * 597)
        assert exact_total(x) == 1
        assert_trim_contract(x, 1)
        offsets, counts = capacity_sweep(x.tolist())
        assert offsets.tolist() == [0.0] and counts.tolist() == [1]
        assert selection_count(x.tolist(), 0.0) == selection_count(x.tolist(), 1.0 - 2.0**-53) == 1
        assert not assert_trim_contract(x, 0).any()

    def test_entries_above_one_count_as_one(self):
        # The rounder clips to [0, 1], so the trim reads the row as it does.
        x = np.array([1.0 + 1e-10, 0.5, -1e-12, 0.5 + 1e-15])
        fitted = capacity_safe(x, 2)
        assert fitted[:3].tobytes() == x[:3].tobytes() and fitted[3] == 0.5
        assert max_selection_count(fitted.tolist())[0] == 2


class TestExactMarginals:
    """The measure of the offsets at which the rounder picks j."""

    def test_measures_equal_fractions(self):
        rng = random.Random(11)
        xs = [rng.random() for _ in range(500)]
        for m, x in zip(pick_segments(xs).measures(), xs):
            assert abs(m - x) <= 2.0**-53

    def test_measures_with_boundary_values(self):
        xs = [0.0, 1.0, 0.25, 1.0, 0.75, 0.0, 0.5]
        assert pick_segments(xs).measures().tolist() == xs

    def test_measures_are_the_model_line_steps(self):
        rng = random.Random(12)
        xs = [rng.choice([0.0, 1.0, 1e-17, rng.random()]) for _ in range(300)]
        _, bounds = line_boundaries(xs)
        steps = [float(end - start) for start, end in zip(bounds, bounds[1:])]
        assert pick_segments(xs).measures().tolist() == steps

    def test_zero_loss_identity(self):
        # min_k c_k E[phi_k(A)] computed from exact marginals equals LU(x).
        from divsel.core import least_utility

        inst = make_instance(3, [[(0, 1), (2,), (1, 2)], [(0,), (0, 2)]], capacity=3)
        sol = random_feasible_x(inst, seed=4)
        measures = pick_segments(sol.flat()).measures()
        cands = [c for rnd in inst.rounds for c in rnd]
        expected = [0.0] * inst.d
        for m, cand in zip(measures, cands):
            for k in cand.bits:
                expected[k] += m
        alg = min(inst.c[k] * expected[k] for k in range(inst.d))
        lu, _ = least_utility(inst, sol)
        assert abs(alg - lu) <= 1e-9


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=0, max_size=30
    ),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
)
@example([1.0, 1.0], 1 - 2**-53)  # 2 picks; a float line dropped the second
@example([0.8320912584801191, 1.0, 0.5], 0.8320912584801191)
@example([1.0, 1 - 2**-53], 1 - 2**-53)  # 1 pick; the exact sum is below 2
def test_hard_capacity_and_count_property(xs, pos):
    lo, hi = count_bounds(xs)
    count = selection_count(xs, pos)
    assert lo <= count <= hi


@pytest.mark.parametrize(
    "xs, pos, count",
    [
        ([1.0, 1.0], 1 - 2**-53, 2),
        ([0.8320912584801191, 1.0, 0.5], 0.8320912584801191, 2),
        ([1.0, 1 - 2**-53], 1 - 2**-53, 1),
    ],
)
def test_float_line_counterexamples(xs, pos, count):
    assert selection_count(xs, pos) == count
    assert [j for j, sel in offset_selections(xs, pos) if sel] == process_round(rounder_at(pos), xs)


def picks_row_by_row(sol, pos):
    """Selections of one rounder fed the solution round by round."""
    state = rounder_at(pos)
    for row in sol.x:
        process_round(state, list(row))
    return len(state.selected)


def segment_points(offsets):
    """Each sweep segment's left end and a float inside it near the middle."""
    ends = np.append(offsets[1:], 1.0)
    mids = offsets + (ends - offsets) / 2
    return offsets, np.where(mids < ends, mids, offsets)


def assert_sweep_matches_rounder(x_flat):
    offsets, counts = capacity_sweep(x_flat)
    assert offsets[0] == 0.0 and np.all(np.diff(offsets) > 0) and offsets[-1] < 1.0
    assert len(offsets) <= 2 and np.all(np.diff(counts) == -1)
    for lo, mid, count in zip(*segment_points(offsets), counts):
        assert selection_count(x_flat, float(lo)) == count, lo
        assert selection_count(x_flat, float(mid)) == count, mid
    for cut, count in zip(offsets[1:], counts):
        assert selection_count(x_flat, float(np.nextafter(cut, 0.0))) == count, cut
    return counts


def criterion_1_solutions():
    """The instances and fractional solutions of acceptance criterion 1."""
    for i in range(50):
        d = 2 + (i * 7) % 15
        inst = gen_random(
            d=d, n=2 + i % 5, a=2, density=0.35, min_arrivals=2 if i % 3 == 0 else 1,
            c_max=2.0, seed=1000 + i,
        )
        yield inst, random_feasible_x(inst, seed=i)


def family_optima(dims):
    for d in dims:
        for inst in gen_fhc(d) + gen_fcs(d):
            yield inst, solve_fluid(inst).solution


class TestCapacitySweep:
    def test_segments_match_rounder(self):
        for inst, sol in itertools.chain(criterion_1_solutions(), family_optima((8, 27))):
            x_flat = sol.flat()
            counts = assert_sweep_matches_rounder(x_flat)
            assert counts.max() <= math.ceil(exact_total(x_flat))
            pos, on_grid = grid_counts(x_flat, 10_000)
            assert np.array_equal(sweep_counts_at(x_flat, pos), on_grid)

    def test_family_optima_never_exceed_ceil_of_total(self):
        for inst, sol in family_optima((27, 64)):
            count, _ = max_selection_count(sol.flat())
            assert count <= count_bounds(sol.flat())[1] <= inst.capacity

    @pytest.mark.parametrize(
        "x_flat",
        [
            [0.1] * 100,
            [0.2] * 60 + [0.0, 0.7] * 5,
            [1.0 / 3.0] * 31,
            [1.0] * 4000 + [0.3] * 7,  # offsets near 1 round v - pos at large v
            [],
            [0.0, 0.0],
        ],
    )
    def test_segments_match_rounder_on_repeated_fractions(self, x_flat):
        counts = assert_sweep_matches_rounder(x_flat)
        assert counts.max() <= count_bounds(x_flat)[1]

    def test_maximum_is_realized_at_its_offset(self):
        x_flat = [0.45, 0.3, 0.9, 0.35, 0.6, 0.25, 0.7]  # total 3.55
        count, pos = max_selection_count(x_flat)
        assert count == 4
        assert selection_count(x_flat, pos) == 4
        assert all(selection_count(x_flat, (t + 0.5) / 1000) <= 4 for t in range(1000))


def assert_segments_match_rounder(x_flat):
    """Each candidate's pick, read off the changes of ``pick_segments``, at
    every offset where a pick changes, at the float just below it and at a
    float inside each piece between them, against ``process_round`` and
    against the exact model line."""
    segments = pick_segments(x_flat)
    assert segments.live.tolist() == [j for j, xj in enumerate(x_flat) if xj > 0.0]
    cand, at, delta = segments.changes()
    assert np.all((at >= 0.0) & (at < 1.0)) and np.all(np.abs(delta) == 1)
    cuts = np.unique(np.append(at, 0.0))
    probes = np.unique(np.concatenate([cuts, np.nextafter(cuts[1:], 0.0), segment_points(cuts)[1]]))
    model = dict(offset_selections(x_flat, probes))
    for p, pos in enumerate(probes.tolist()):
        seen = at <= pos
        on = np.bincount(cand[seen], weights=delta[seen], minlength=len(x_flat))
        assert set(np.unique(on).tolist()) <= {0.0, 1.0}, pos
        picked = np.flatnonzero(on).tolist()
        assert process_round(rounder_at(pos), x_flat) == picked, pos
        assert [j for j, sel in model.items() if sel[p]] == picked, pos


class TestPickSegments:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, 1e-17, 0.5, 1.0 / 3.0, 0.1, 0.7]),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            max_size=30,
        )
    )
    @example([1e-17] * 6)
    @example([0.0] * 5)
    @example([0.3, 1e-17, 0.0, 0.7, 1e-17, 1.0, 0.0, 1e-17])
    def test_pieces_match_rounder(self, xs):
        assert_segments_match_rounder(xs)

    def test_pieces_match_rounder_one_ulp_above_capacity(self):
        inst = gen_random(d=9, n=3, a=2, density=0.35, min_arrivals=1, c_max=2.0, seed=1001)
        x_flat = random_feasible_x(inst, seed=1).flat()
        assert exact_total(x_flat) > inst.capacity
        assert_segments_match_rounder(x_flat)

    def test_pieces_match_rounder_on_family_optima(self):
        # fhc's x* is integral; fcs's repeats fractions over hundreds of candidates.
        for inst in gen_fhc(27) + gen_fcs(27)[:1]:
            assert_segments_match_rounder(solve_fluid(inst).solution.flat())


def int_line(x_flat):
    """Test-only reference: the rounder's line from an exact Python-int sum
    at 2^-1074, as (units, ticks) after 0 and after each live candidate."""
    total, units, ticks = 0, [0], [0]
    for xj in np.clip(np.asarray(x_flat, dtype=float), 0.0, 1.0).tolist():
        if xj > 0.0:
            total += int(Fraction(xj) * 2**1074)
            units.append(total >> 1074)
            ticks.append((total >> (1074 - 53)) & (2**53 - 1))
    return units, ticks


#: Fractions at the edges of the limb line and of the rounder's two tiers.
EDGES = [0.0, 5e-324, 2.2250738585072014e-308, 1e-30, math.nextafter(2.0**-64, 0.0), 2.0**-64,
         math.nextafter(2.0**-64, 1.0), math.nextafter(2.0**-60, 0.0), 2.0**-60, math.nextafter(2.0**-60, 1.0),
         1 - 2**-53, 1.0, 1.5, -0.25, 0.5, 1.0 / 3.0]


def edge_row(n, seed, tiny):
    """n fractions, each an edge value or a uniform draw at a random scale;
    with ``tiny`` at least one lies in (0, 2^-64), half the time only one,
    and without it none does."""
    rng = np.random.default_rng(seed)
    x = np.where(rng.random(n) < 0.5, np.asarray(EDGES)[rng.integers(0, len(EDGES), n)],
                 rng.random(n) * 2.0 ** -rng.integers(0, 70, n).astype(float))
    if not tiny or rng.random() < 0.5:
        x[(x > 0.0) & (x < 2.0**-64)] = 0.0
    if tiny and n:  # subnormal, tiny, or 1 ulp below 2^-64
        x[rng.integers(0, n)] = rng.choice([5e-324, 1e-30, math.nextafter(2.0**-64, 0.0)])
    return x.tolist()


class TestLimbLine:
    """``pick_segments`` builds its line from three 39-bit limbs, or, for a
    row holding a fraction below 2^-64, from a Python-int sum."""

    @pytest.mark.parametrize("tiny", [False, True])  # the limb line, then the Python-int one
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0, 1, 2, 3, 17, 1000, 10**4]) | st.integers(0, 300), st.integers(0, 2**32))
    def test_units_and_ticks_equal_the_int_line(self, tiny, n, seed):
        x_flat = edge_row(n, seed, tiny)
        units, ticks = int_line(x_flat)
        segments = pick_segments(x_flat)
        assert segments.units.dtype == segments.ticks.dtype == np.int64
        assert (segments.units.tolist(), segments.ticks.tolist()) == (units, ticks)

    def test_edge_rows(self):
        # The last row sums to exactly one tick, 2^-53, with three fractions
        # in [2^-65, 2^-64): two of them are odd multiples of 2^-117, which
        # 39-bit limbs of x * 2^116 would drop, landing one tick short.
        rows = ([1.0] * 10**4, [1 - 2**-53] * 10**4, [2.0**-64] * 10**4,
                [2.0**-53 - 2.0**-63, 2.0**-64 - 2.0**-115, 2.0**-65 + 2.0**-117, 2.0**-65 + 3 * 2.0**-117])
        for x_flat in rows:
            segments = pick_segments(x_flat)
            assert (segments.units.tolist(), segments.ticks.tolist()) == int_line(x_flat)
        assert segments.ticks.tolist()[-1] == 1

    def test_rows_at_the_limb_bound_take_the_int_line(self, monkeypatch):
        # With the bound lowered to 5, rows of 5 and 6 live candidates sum
        # each fraction through ``_exact``; a row of 4 takes the limbs.
        monkeypatch.setattr(rounding, "_LIMB_ROWS", 5)
        calls, real = [], rounding._exact
        monkeypatch.setattr(rounding, "_exact", lambda x: calls.append(x) or real(x))
        for n in (4, 5, 6):
            calls.clear()
            x_flat = [0.0] + [1 - 2**-53, 1.0, 0.3] * 2
            x_flat = x_flat[: n + 1]
            segments = pick_segments(x_flat)
            assert (segments.units.tolist(), segments.ticks.tolist()) == int_line(x_flat)
            assert len(calls) == (n if n >= 5 else 0)

    def test_limb_sums_below_the_bound_fit_int64(self):
        # Worst case: 2^24 - 1 candidates, each with a top limb of 2^38 and
        # lower limbs of 2^39 - 1, and every carry passed up.
        n, low = rounding._LIMB_ROWS - 1, 2**39 - 1
        c1 = n * low + ((n * low) >> 39)
        assert max(n * low, c1, n * 2**38 + (c1 >> 39)) < 2**63


def one_tier_round(state, x_i):
    """Test-only reference: ``process_round`` with the whole exact sum in
    one Python int at 2^-1074."""
    picked = []
    for j, xj in enumerate(x_i):
        if xj <= 0.0:
            continue
        state["total"] += int(Fraction(min(xj, 1.0)) * 2**1074)
        end = state["total"] >> (1074 - 53)
        now = (end >> 53) + ((end & (2**53 - 1)) > state["pos"] * 2**53)
        if now > state["below"]:
            picked.append(j)
        state["below"] = now
    return picked


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 2**32)), max_size=6),
       st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_two_tier_rounder_matches_one_exact_sum(rows, pos):
    """Picks and state after every round equal a rounder holding the exact
    sum in one Python int, with subnormals, 2^-60 +- 1 ulp and carries."""
    state, ref = rounder_at(pos), {"total": 0, "below": 0, "pos": pos}
    for n, seed in rows:
        x_i = [min(xj, 1.0) if xj >= 0.0 else 0.0 for xj in edge_row(n, seed, tiny=seed % 2)]
        assert process_round(state, x_i) == one_tier_round(ref, x_i)
        assert (state._total, state._below) == (ref["total"], ref["below"])


class TestRounderNeverExceedsCeilOfTotal:
    """Regression pins from a line of float running sums, on which two
    candidates could claim the same point l + pos when a rounded sum stepped
    an ulp back.  The exact line shares every boundary, so the picks
    telescope."""

    def test_fcs_optimum(self):
        inst = gen_fcs(64)[1]
        sol = solve_fluid(inst).solution
        assert sol.total() == 64.0 == inst.capacity
        assert picks_row_by_row(sol, 0.3025210084033567) == 64  # was 74
        # The vectorized predicate of the grid and Monte Carlo agrees.
        pos = np.array([0.3025210084033567])
        assert sum(int(sel[0]) for _, sel in offset_selections(sol.flat(), pos)) == 64

    def test_zero_fraction_after_a_rounded_up_sum(self):
        # A float sum stepped an ulp back at the zero entry, so the next
        # candidate claimed its predecessor's point again: 13 picks, K = 12.
        inst, sol = next(itertools.islice(criterion_1_solutions(), 9, None))
        assert sol.total() == 12.0 == inst.capacity
        assert selection_count(sol.flat(), 0.6896087692494697) == 12

    def test_tiny_fraction_after_a_rounded_up_sum(self):
        # 0.1 + 1/3 rounds up in floats; a float sum that then stepped an ulp
        # back at 1e-30 fell below the point the 1/3 candidate claimed.
        x_flat = [0.1, 1.0 / 3.0, 1e-30, 0.5]
        assert selection_count(x_flat, 0.4333333333333333) == 1  # was 2
        assert max_selection_count(x_flat)[0] == 1

    @pytest.fixture(scope="class")
    def random_verify_instance(self):
        return gen_random(d=32, n=1000, a=4, density=0.2, min_arrivals=1, c_max=2.0, seed=1)

    def test_random_instance_optimum(self, random_verify_instance):
        inst = random_verify_instance
        sol = solve_fluid(inst).solution
        assert picks_row_by_row(sol, 0.1886326752825198) == 4000 == inst.capacity  # was 4001

    def test_random_instance_policies(self, random_verify_instance):
        inst = random_verify_instance
        _, pol = run_policy(inst, "uc-hybrid", seed=1)
        solutions = {"fixed": run_policy(inst, "fixed", seed=1)[0]}
        solutions.update({f"uc-{v}": variant_solution(pol, v) for v in ("hybrid", "myopic", "forward")})
        # Exact maxima were 245 / 1430 / 1446 / 1415.
        expected = {"fixed": 239, "uc-hybrid": 1429, "uc-myopic": 1445, "uc-forward": 1414}
        for name, sol in solutions.items():
            count, _ = max_selection_count(sol.flat())
            assert count == count_bounds(sol.flat())[1] == expected[name], name
