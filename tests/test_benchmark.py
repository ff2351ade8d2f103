import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import divsel.benchmark as benchmark
from divsel.benchmark import (
    IntSolution,
    adjustment_bounds,
    fluid_results,
    int_objective,
    opt_bounds,
    solve_fluid,
    solve_fluids,
    solve_int,
)
from divsel.core import (
    FractionalSolution, Instance, common_prefix_rounds, core_mask, instance_stats, least_utility, marginals,
    round_counts,
)
from divsel.errors import ContractError, InvariantError, SizeError
from divsel.generators import fcs_kappa, fcs_members, fhc_members, gen_fcs, gen_fhc, gen_random
from divsel.rounding import capacity_safe, max_selection_count
from divsel.unknown_policy import run_unknown_policy, water_fill

from conftest import (
    adjustment_lp,
    dfs_grid_oracle,
    exact_total,
    fill_value,
    grid_oracle,
    make_instance,
    random_feasible_x,
    ref_int_objective,
    sparse_int_value,
    tiny_grid_instances,
    type_fluid_lp,
)


def dense_fluid_value(inst):
    """Reference fluid LP with one dense column per candidate."""
    n_cands = inst.total_candidates
    cost = np.zeros(n_cands + 1)
    cost[-1] = -1.0
    a_ub = np.zeros((1 + inst.d, n_cands + 1))
    b_ub = np.zeros(1 + inst.d)
    a_ub[0, :n_cands] = 1.0
    b_ub[0] = float(inst.capacity)
    for col, cand in enumerate(inst.all_candidates()):
        for k in cand.bits:
            a_ub[1 + k, col] = -inst.c[k]
    a_ub[1:, -1] = 1.0
    bounds = [(0.0, 1.0)] * n_cands + [(0.0, None)]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0
    return float(res.x[-1])


def dense_int_value(inst, tau):
    """Reference intermediate LP (z block, y = 1 on core candidates), dense."""
    d, budget = inst.d, math.sqrt(inst.d) * inst.per_round_capacity
    core = [0.0] * d
    for rnd in inst.rounds[:tau]:
        for cand in rnd:
            if cand.popcount**2 >= d:
                for k in cand.bits:
                    core[k] += 1.0
    cost = np.zeros(tau * d + 1)
    cost[-1] = -1.0
    a_ub = np.zeros((tau + d, tau * d + 1))
    b_ub = np.zeros(tau + d)
    for i in range(tau):
        a_ub[i, i * d : (i + 1) * d] = 1.0
        b_ub[i] = budget
    for k in range(d):
        for i in range(tau):
            a_ub[tau + k, i * d + k] = -inst.c[k]
        a_ub[tau + k, -1] = 1.0
        b_ub[tau + k] = inst.c[k] * core[k]
    bounds = [(0.0, float(rnd.attribute_counts(d)[k])) for rnd in inst.rounds[:tau] for k in range(d)]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds + [(0.0, None)], method="highs")
    assert res.status == 0
    return float(res.x[-1])


def int_parts(inst, tau):
    """``benchmark._price``'s inputs for the first tau rounds: the round
    counts, the round budget, c and the core arrivals per dimension."""
    y = core_mask(inst.cand_lens, inst.d).astype(float)
    y[inst.round_ptr[tau] :] = 0.0
    core = np.bincount(inst.bits, weights=np.repeat(y, inst.cand_lens), minlength=inst.d)
    budget = math.sqrt(inst.d) * inst.per_round_capacity
    return round_counts(inst)[:tau].astype(float), budget, np.asarray(inst.c), core


def certified_int(monkeypatch, inst, tau):
    """``solve_int(inst, tau).value`` and the least bound U(lambda) it priced."""
    priced = []
    real = benchmark._price
    with monkeypatch.context() as patch:
        patch.setattr(benchmark, "_price", lambda *args: priced.append(real(*args)) or priced[-1])
        value = solve_int(inst, tau).value
    return value, min(upper for _, _, upper in priced)


def repetitive_random(seed):
    """Random instance whose candidates mostly repeat a few types."""
    return gen_random(d=3, n=30, a=2, density=0.3, min_arrivals=1, c_max=2.5, seed=seed)


def assert_rel_close(value, reference, rel=1e-9):
    assert abs(value - reference) <= rel * max(1.0, abs(reference))


def perturbing_linprog(monkeypatch, perturb):
    """Route benchmark's linprog through ``perturb(res)`` before returning."""

    def patched(*args, **kwargs):
        res = linprog(*args, **kwargs)
        perturb(res)
        return res

    monkeypatch.setattr(benchmark, "linprog", patched)


def understate_optimum(res):
    # A suboptimal primal point: the level t, and with it fun, falls by 10%.
    res.x[-1] *= 0.9
    res.fun *= 0.9


def flip_row_duals(res):
    res.ineqlin.marginals = -res.ineqlin.marginals


class TestSolveFluid:
    def test_x_star_is_capacity_safe(self):
        # x* summed to 900.0000000000001 with K = 900, so the rounder could
        # pick 901 candidates.
        inst = gen_random(d=16, n=300, a=3, density=0.3, min_arrivals=1, c_max=1.0, seed=4)
        lp = solve_fluid(inst)
        x = lp.solution.flat()
        assert exact_total(x) <= inst.capacity
        assert max_selection_count(x)[0] == inst.capacity
        assert least_utility(inst, lp.solution)[0] >= lp.value - 1e-9

    def test_capacity_safe_lowers_only_trailing_entries(self):
        # Scaled to K, these fractions sum to K + 1 ulp.
        inst = gen_random(d=9, n=3, a=2, density=0.35, min_arrivals=1, c_max=2.0, seed=1001)
        x = np.array(random_feasible_x(inst, seed=1).flat())
        assert exact_total(x) > inst.capacity
        safe = capacity_safe(x, inst.capacity)
        assert exact_total(safe) <= inst.capacity
        changed = np.flatnonzero(safe != x)
        assert changed.size and np.all(x[changed.min() :] - safe[changed.min() :] <= 1e-14)
        assert np.all(x[changed.max() + 1 :] == 0.0)  # only zeros after the last change
        assert np.array_equal(capacity_safe(safe, inst.capacity), safe)

    def test_capacity_binds(self):
        inst = make_instance(1, [[(0,), (0,), (0,)]], capacity=2)
        assert solve_fluid(inst).value == pytest.approx(2.0)

    def test_fhc_member_optimum(self):
        for inst in gen_fhc(3):
            assert solve_fluid(inst).value >= 3.0 - 1e-7

    def test_fcs_member_optimum(self):
        kappa = fcs_kappa(8)
        for inst in gen_fcs(8):
            assert solve_fluid(inst).value >= 8.0 / (8.0 * kappa) - 1e-7

    def test_zero_optimum_when_dimension_empty(self):
        inst = make_instance(2, [[(0,)]], capacity=5)
        lp = solve_fluid(inst)
        assert lp.value == 0.0 and lp.degenerate_zero
        assert lp.solution is not None

    def test_solution_revalidates(self):
        inst = gen_random(d=5, n=6, a=2, density=0.4, min_arrivals=1, c_max=3.0, seed=2)
        lp = solve_fluid(inst)
        lu, _ = least_utility(inst, lp.solution)
        assert lu >= lp.value - 1e-7
        assert lp.solution.total() <= inst.capacity + 1e-7


class TestFluidTypeAggregation:
    def family_and_random_instances(self):
        return gen_fhc(27) + gen_fcs(27) + [repetitive_random(seed) for seed in range(6)]

    def test_random_instances_repeat_types(self):
        for seed in range(6):
            inst = repetitive_random(seed)
            n_types = len({cand.bits for cand in inst.all_candidates()})
            assert n_types <= inst.total_candidates // 4

    @pytest.mark.parametrize("d", [3, 64, 65, 150])
    def test_types_in_first_arrival_order(self, d):
        """Packed 64-bit keys against a dict of bits tuples, with empty
        candidates and attribute sets that span several words."""
        inst = gen_random(d=d, n=40, a=2, density=0.6 if d == 3 else 0.02, min_arrivals=1, c_max=2.0, seed=d)
        inst = Instance.from_bit_lists(
            d, inst.c, inst.capacity, [rnd.bit_lists() + [[]] for rnd in inst.rounds], inst.per_round_capacity
        )
        ids = {}
        type_of = [ids.setdefault(cand.bits, len(ids)) for cand in inst.all_candidates()]
        first, mult, got = benchmark._candidate_types(inst)
        assert got.tolist() == type_of
        candidates = list(inst.all_candidates())
        assert [candidates[j].bits for j in first.tolist()] == list(ids)
        assert mult.tolist() == [type_of.count(t) for t in range(len(ids))]

    def test_value_matches_dense_per_candidate_lp(self):
        for inst in self.family_and_random_instances():
            assert_rel_close(solve_fluid(inst).value, dense_fluid_value(inst))

    def test_x_star_is_constant_within_each_type(self):
        for inst in self.family_and_random_instances():
            sol = solve_fluid(inst).solution
            by_type = {}
            for row, rnd in zip(sol.x, inst.rounds):
                for xj, cand in zip(row, rnd):
                    assert 0.0 <= xj <= 1.0
                    by_type.setdefault(cand.bits, set()).add(xj)
            assert all(len(values) == 1 for values in by_type.values())
            assert sol.total() <= inst.capacity * (1.0 + 1e-9)

    def test_certificate_rejects_understated_optimum(self, monkeypatch):
        inst = repetitive_random(1)
        perturbing_linprog(monkeypatch, understate_optimum)
        with pytest.raises(InvariantError, match="duality gap"):
            solve_fluid(inst)

    def test_certificate_rejects_wrong_sign_duals(self, monkeypatch):
        inst = repetitive_random(2)
        perturbing_linprog(monkeypatch, flip_row_duals)
        with pytest.raises(InvariantError, match="wrong sign"):
            solve_fluid(inst)

    def test_certificate_rejects_duals_off_the_simplex(self, monkeypatch):
        # Halved level duals price the level t at -1/2: a multiplier on its
        # infinite upper bound.
        def halve(res):
            res.ineqlin.marginals = res.ineqlin.marginals / 2

        perturbing_linprog(monkeypatch, halve)
        with pytest.raises(InvariantError, match="infinite bound"):
            solve_fluid(repetitive_random(2))


def spliced(head, tail, shared):
    """``head``'s first ``shared`` rounds, then ``tail``'s rounds after them;
    with ``tail`` = ``head``, ``head`` cut to its first ``shared`` rounds."""
    rest = [] if tail is head else [rnd.bit_lists() for rnd in tail.rounds[shared:]]
    rounds = [rnd.bit_lists() for rnd in head.rounds[:shared]] + rest
    a = head.per_round_capacity
    return Instance.from_bit_lists(head.d, head.c, len(rounds) * a, rounds, a)


def with_empties(inst):
    """``inst`` with a candidate without attributes closing every other
    round and an empty round after every third."""
    rounds = []
    for i, rnd in enumerate(inst.rounds):
        rounds.append(rnd.bit_lists() + [[]] * (i % 2))
        rounds += [[]] * (i % 3 == 2)
    a = inst.per_round_capacity
    return Instance.from_bit_lists(inst.d, inst.c, len(rounds) * a, rounds, a)


def assert_same_arrays(got, want):
    assert [(g.dtype, g.shape, g.tobytes()) for g in got] == [(w.dtype, w.shape, w.tobytes()) for w in want]


class TestPrefixSharedTypes:
    """Type tables built along the rounds consecutive instances share equal
    ``_candidate_types`` from scratch."""

    @staticmethod
    def assert_chain_matches(insts):
        prev = None
        for inst in insts:
            keys = benchmark._type_keys(inst, prev)
            assert_same_arrays([keys], [benchmark._type_keys(inst)])
            assert_same_arrays(benchmark._candidate_types(inst, keys), benchmark._candidate_types(inst))
            prev = inst, keys

    @pytest.mark.parametrize("family", [gen_fhc, gen_fcs])
    @pytest.mark.parametrize("d", [27, 64])
    def test_consecutive_family_members(self, family, d):
        self.assert_chain_matches(family(d))

    @pytest.mark.parametrize("d", [3, 64, 65, 150])
    @pytest.mark.parametrize("empties", [False, True])
    def test_random_pairs(self, d, empties):
        def draw(seed):
            inst = gen_random(d=d, n=12, a=2, density=0.6 if d == 3 else 0.05, min_arrivals=1, c_max=2.0, seed=seed)
            return with_empties(inst) if empties else inst

        for seed in range(3):
            head, tail = draw(seed), draw(seed + 100)
            for shared in (0, 1, head.n // 2, head.n - 1, head.n):
                pair = [head, spliced(head, tail, shared)]
                assert common_prefix_rounds(*pair) >= shared
                self.assert_chain_matches(pair)
            # A prefix of the other: every round of the shorter one is shared.
            self.assert_chain_matches([head, spliced(head, head, 5)])
            self.assert_chain_matches([spliced(head, head, 5), head])

    def test_shared_keys_are_copied_not_packed(self):
        head = gen_random(d=64, n=12, a=2, density=0.05, min_arrivals=1, c_max=2.0, seed=5)
        inst = spliced(head, gen_random(d=64, n=12, a=2, density=0.05, min_arrivals=1, c_max=2.0, seed=6), 7)
        start = int(inst.round_ptr[common_prefix_rounds(head, inst)])
        marked = ~benchmark._type_keys(head)  # keys no candidate has
        keys = benchmark._type_keys(inst, (head, marked))
        assert start > 0 and (keys[:start] == marked[:start]).all()
        assert (keys[start:] == benchmark._type_keys(inst)[start:]).all()

    @pytest.mark.parametrize("other_d", [5, 65])
    def test_nothing_is_shared_across_d(self, monkeypatch, other_d):
        head = gen_random(d=3, n=12, a=2, density=0.6, min_arrivals=1, c_max=2.0, seed=8)
        rounds = [rnd.bit_lists() for rnd in head.rounds]
        other = Instance.from_bit_lists(other_d, (1.0,) * other_d, head.capacity, rounds, head.per_round_capacity)
        monkeypatch.setattr(benchmark, "common_prefix_rounds", lambda a, b: pytest.fail("compared across d"))
        self.assert_chain_matches([head, other])
        self.assert_chain_matches([other, head])

    def test_solve_fluids_types_every_member_as_from_scratch(self, monkeypatch):
        typed, real = [], benchmark._candidate_types

        def checked(inst, keys=None):
            types = real(inst, keys)
            assert keys is not None
            assert_same_arrays(types, real(inst))
            typed.append(inst)
            return types

        monkeypatch.setattr(benchmark, "_candidate_types", checked)
        members = gen_fhc(27) + gen_fcs(27) + gen_fhc(8)
        values = [lp.value for lp in solve_fluids(members)]
        assert values == pytest.approx([lp.value for lp in map(solve_fluid, members)], rel=1e-9)
        assert typed == members + members


class TestSolveFluids:
    @staticmethod
    def mixed_batch():
        return (
            gen_fhc(27)
            + gen_fcs(27)
            + [repetitive_random(seed) for seed in range(6)]
            + [make_instance(2, [[(0,)]], capacity=5), make_instance(2, [[], []], capacity=3)]
        )

    def test_batch_matches_dense_lp_and_single_solves(self):
        batch = self.mixed_batch()
        lps = solve_fluids(batch)
        assert len(lps) == len(batch)
        for inst, lp in zip(batch, lps):
            one = solve_fluid(inst)
            assert_rel_close(lp.value, dense_fluid_value(inst))
            assert (lp.status, lp.degenerate_zero) == (one.status, one.degenerate_zero)
            x, x_one = np.array(lp.solution.flat()), np.array(one.solution.flat())
            _, _, type_of = benchmark._candidate_types(inst)
            for t in range(type_of.max(initial=-1) + 1):
                assert np.ptp(x[type_of == t]) == 0.0  # one value per type
            np.testing.assert_allclose(x, x_one, rtol=0.0, atol=1e-9)
            assert exact_total(x) <= inst.capacity
            assert least_utility(inst, lp.solution)[0] >= lp.value - 1e-9
        assert [lp.degenerate_zero for lp in lps[-2:]] == [True, True]

    @pytest.mark.parametrize("batch_size, calls", [(1, 10), (60, 4), (10**9, 1)])
    def test_batch_size_changes_the_calls_not_the_results(self, monkeypatch, batch_size, calls):
        batch = gen_fhc(8) + [make_instance(2, [[(0,)]], capacity=5)] + gen_fcs(8)
        want = solve_fluids(batch)
        sizes = []

        def recording_linprog(*args, **kwargs):
            sizes.append(sum(kwargs["A_ub"].shape))
            return linprog(*args, **kwargs)

        monkeypatch.setattr(benchmark, "FLUID_BATCH_SIZE", batch_size)
        monkeypatch.setattr(benchmark, "linprog", recording_linprog)
        got = solve_fluids(batch)
        # 10 LPs of 12 to 23 rows and columns, packed in order; an LP larger
        # than the batch size is a batch of its own.
        assert len(sizes) == calls and sum(sizes) == 169
        assert batch_size == 1 or max(sizes) <= batch_size
        for g, w in zip(got, want):
            assert (g.status, g.degenerate_zero) == (w.status, w.degenerate_zero)
            assert_rel_close(g.value, w.value)
            np.testing.assert_allclose(g.solution.flat(), w.solution.flat(), rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("family", [fhc_members, fcs_members])
    @pytest.mark.parametrize("d", [27, 64])
    def test_member_stream_solves_to_the_same_bits(self, family, d):
        """Streamed from its builder, every member gets the OPT and x* the
        list solve gives it, bit for bit: the batches are the same."""
        want = solve_fluids(list(family(d)))
        got = list(fluid_results(family(d)))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert float.hex(g.value) == float.hex(w.value)
            assert g.solution.values.tobytes() == w.solution.values.tobytes()

    def test_results_come_batch_by_batch(self):
        read = []

        def stream():
            for inst in fhc_members(27):
                read.append(inst.n)
                yield inst

        results = fluid_results(stream())
        first = next(results)
        # The first batch and the member that did not fit in it.
        assert first.value == 27.0 and 2 < len(read) < 27
        assert len(list(results)) == 26 and len(read) == 27

    def test_batch_of_only_degenerate_members_solves_no_lp(self, monkeypatch):
        monkeypatch.setattr(benchmark, "linprog", None)
        lps = solve_fluids([make_instance(2, [[(0,)]], capacity=5), make_instance(1, [[(0,)]], capacity=0)])
        assert [(lp.value, lp.degenerate_zero) for lp in lps] == [(0.0, True), (0.0, True)]
        assert solve_fluids([]) == []

    @staticmethod
    def tamper_member(monkeypatch, batch, member, tamper):
        """Apply ``tamper(res, rows, level)`` to one member's block: its row
        slice and the column of its level t."""
        rows = cols = 0
        for inst in batch[: member + 1]:
            row_start, rows = rows, rows + 1 + inst.d
            cols += len(benchmark._candidate_types(inst)[0]) + 1
        perturbing_linprog(monkeypatch, lambda res: tamper(res, slice(row_start, rows), cols - 1))

    def test_certificate_names_member_with_understated_optimum(self, monkeypatch):
        batch = [repetitive_random(seed) for seed in range(3)]

        def understate(res, rows, level):
            res.x[level] *= 0.9

        self.tamper_member(monkeypatch, batch, 1, understate)
        with pytest.raises(InvariantError, match=r"^fluid LP \(member 2\): duality gap"):
            solve_fluids(batch)

    def test_certificate_names_member_with_wrong_sign_duals(self, monkeypatch):
        batch = [repetitive_random(seed) for seed in range(3)]

        def flip(res, rows, level):
            res.ineqlin.marginals[rows] = -res.ineqlin.marginals[rows]

        self.tamper_member(monkeypatch, batch, 2, flip)
        with pytest.raises(InvariantError, match=r"^fluid LP \(member 3\): dual multiplier of the wrong sign"):
            solve_fluids(batch)

    def test_failed_status_reaches_every_solved_member(self, monkeypatch):
        def infeasible(res):
            res.status = 2

        # x = 0 is feasible and every level bounded, so a status other than
        # optimal is the solver's failure: the whole batch raises, no member
        # reads a NaN optimum.
        perturbing_linprog(monkeypatch, infeasible)
        degenerate = make_instance(2, [[(0,)]], capacity=5)
        with pytest.raises(InvariantError, match=r"^fluid LP: solve failed: "):
            solve_fluids([repetitive_random(0), degenerate, repetitive_random(1)])
        assert solve_fluid(degenerate).degenerate_zero  # no LP to fail

    def test_size_cap_is_per_member(self, monkeypatch):
        def one_type(n_cands):
            return Instance.from_bit_lists(1, (1.0,), 1, [[[0]] * n_cands])

        # No fixed candidate cap: a member past the former 50,000 solves.
        assert [lp.value for lp in solve_fluids([one_type(30_000)] * 2 + [one_type(50_001)])] == [1.0] * 3
        # The memory check is per member and runs before its type keys exist.
        need = 16 * 50_001 + 24 * 50_001  # one key word per candidate, one attribute each
        monkeypatch.setattr(benchmark, "physical_memory", lambda: need)
        assert solve_fluid(one_type(50_001)).value == 1.0
        keyed, real = [], benchmark._type_keys
        monkeypatch.setattr(benchmark, "physical_memory", lambda: need - 1)
        monkeypatch.setattr(
            benchmark, "_type_keys", lambda inst, prev=None: keyed.append(inst.total_candidates) or real(inst, prev)
        )
        with pytest.raises(SizeError, match="fluid LP needs"):
            solve_fluids([one_type(30_000), one_type(50_001)])
        assert keyed == [30_000]


def sifted_instance():
    """3,166 types, more than 2 ``FLUID_SIFT_WIDTH``: its fluid LP is sifted."""
    return gen_random(d=32, n=200, a=4, density=0.2, min_arrivals=1, c_max=2.0, seed=3)


def slack_instance():
    """``sifted_instance`` with dimension 0 added to every candidate, c_0 = 1
    and the other c_k raised past 10, and K = the candidate count: the
    capacity does not bind, dimension 0 is the bottleneck, and since every
    type serves it, x* = 1 is the unique optimum."""
    inst = sifted_instance()
    rounds = [[sorted({0, *cand}) for cand in rnd.bit_lists()] for rnd in inst.rounds]
    return Instance.from_bit_lists(inst.d, (1.0, *(10.0 + ck for ck in inst.c[1:])), inst.total_candidates, rounds)


def few_types_instance():
    """``sifted_instance`` with dimension 31 served only by three types of 100
    copies each, none of them in the seed LP's sample of every 10th type."""
    inst = sifted_instance()
    rounds = [[[k for k in cand if k != 31] for cand in rnd.bit_lists()] for rnd in inst.rounds]
    for i in range(3):
        rounds[60 * i + 3] += [[3 * i, 31]] * 100
    return Instance.from_bit_lists(inst.d, inst.c, inst.capacity, rounds, inst.per_round_capacity)


class TestFluidSifting:
    @pytest.mark.parametrize(
        "build, unique",
        [
            (lambda: gen_random(d=32, n=1000, a=4, density=0.2, min_arrivals=1, c_max=2.0, seed=1), True),
            (lambda: gen_random(d=32, n=1000, a=4, density=0.2, min_arrivals=1, c_max=2.0, seed=2), True),
            (slack_instance, True),
            (few_types_instance, False),
            (lambda: gen_random(d=32, n=200, a=4, density=0.2, min_arrivals=1, c_max=1.0, seed=4), True),  # all c_k = 1
            (lambda: gen_random(d=64, n=400, a=4, density=0.2, min_arrivals=1, c_max=2.0, seed=5), True),
        ],
        ids=["random-verify-1", "random-verify-2", "slack-capacity", "few-types", "tied-c", "d64"],
    )
    def test_matches_the_full_type_lp(self, monkeypatch, build, unique):
        """The sifted value equals the full LP's, after a seed and at most 4
        restricted solves, and so does x* where the optimum is a single
        vertex.  The few-types optimum is not: its three types split
        dimension 31's mass freely (two optimal vertices found differ by 0.46
        in x), so there x* is checked to reach the optimum."""
        inst = build()
        assert len(benchmark._candidate_types(inst)[0]) > 2 * benchmark.FLUID_SIFT_WIDTH
        value, x = type_fluid_lp(inst)
        solves = []
        perturbing_linprog(monkeypatch, solves.append)
        lp = solve_fluid(inst)
        assert_rel_close(lp.value, value, rel=1e-12)
        assert len(solves) <= 5
        if unique:
            np.testing.assert_allclose(lp.solution.flat(), x, rtol=0.0, atol=1e-9)
        assert least_utility(inst, lp.solution)[0] >= value * (1.0 - 1e-12)

    def test_certificate_rejects_understated_optimum(self, monkeypatch):
        perturbing_linprog(monkeypatch, understate_optimum)
        with pytest.raises(InvariantError, match="duality gap"):
            solve_fluid(sifted_instance())

    def test_certificate_rejects_wrong_sign_duals(self, monkeypatch):
        perturbing_linprog(monkeypatch, flip_row_duals)
        with pytest.raises(InvariantError, match="wrong sign"):
            solve_fluid(sifted_instance())

    def test_sifted_block_shares_a_batch(self, monkeypatch):
        batch = [repetitive_random(0), sifted_instance(), gen_fcs(8)[0]]
        want = [solve_fluid(inst) for inst in batch]
        monkeypatch.setattr(benchmark, "FLUID_BATCH_SIZE", 10**9)
        for got, one in zip(solve_fluids(batch), want):
            assert_rel_close(got.value, one.value, rel=1e-12)
            np.testing.assert_allclose(got.solution.flat(), one.solution.flat(), rtol=0.0, atol=1e-9)

    @staticmethod
    def seeded_with(monkeypatch, level_duals):
        """Replace the seed LP's level duals by ``level_duals``, keeping its
        capacity dual; return the list of every solve's result."""
        solves = []

        def reseed(res):
            if not solves:
                res.ineqlin.marginals[1:] = -np.asarray(level_duals, dtype=float)
            solves.append(res)

        perturbing_linprog(monkeypatch, reseed)
        return solves

    def test_bad_seed_still_converges(self, monkeypatch):
        inst = sifted_instance()
        value, x = type_fluid_lp(inst)
        for k in (0, inst.d - 1):
            solves = self.seeded_with(monkeypatch, np.eye(inst.d)[k])
            assert_rel_close(solve_fluid(inst).value, value, rel=1e-12)
            assert len(solves) > 2  # the one-hot seed cost extra rounds

    def test_seed_without_a_capacity_edge_starts_whole(self, monkeypatch):
        """A seed LP whose capacity dual is 0 (its sample is bound by some
        dimension, not by the capacity) places no edge: the next solve has
        every column, and it is the last."""
        inst = sifted_instance()
        sizes = []

        def uncapacitated(*args, **kwargs):
            res = linprog(*args, **kwargs)
            if not sizes:
                res.ineqlin.marginals[0] = 0.0
            sizes.append(kwargs["A_ub"].shape[1])
            return res

        monkeypatch.setattr(benchmark, "linprog", uncapacitated)
        assert_rel_close(solve_fluid(inst).value, type_fluid_lp(inst)[0], rel=1e-12)
        assert sizes[1:] == [len(benchmark._candidate_types(inst)[0]) + 1]

    def test_round_cap_raises(self, monkeypatch):
        solves = self.seeded_with(monkeypatch, np.eye(sifted_instance().d)[0])
        monkeypatch.setattr(benchmark, "FLUID_MAX_SOLVES", 2)
        with pytest.raises(InvariantError, match="no convergence in 2 restricted solves"):
            solve_fluid(sifted_instance())
        assert len(solves) == 2


class TestOptBounds:
    def test_single_dimension(self):
        inst = make_instance(1, [[(0,), (0,), (0,)]], capacity=5)
        assert opt_bounds(inst) == pytest.approx((3.0, 3.0))

    def test_empty_dimension_zeroes_both(self):
        inst = make_instance(2, [[(0,)]], capacity=5)
        assert opt_bounds(inst) == (0.0, 0.0)

    def test_mixed_marginals(self):
        # K/d = 2 vs phi = (10, 10, 10, 1): under = over = 1.
        rounds = [[(0,)] * 10 + [(1,)] * 10 + [(2,)] * 10 + [(3,)]]
        inst = make_instance(4, rounds, capacity=8)
        assert opt_bounds(inst) == pytest.approx((1.0, 1.0))

    def test_sandwich_on_generated_instances(self):
        instances = gen_fhc(4) + gen_fcs(8)
        instances.append(gen_random(d=6, n=5, a=2, density=0.5, min_arrivals=1, c_max=2.0, seed=9))
        for inst in instances:
            under, over = opt_bounds(inst)
            opt = solve_fluid(inst).value
            assert under - 1e-7 <= opt <= over + 1e-7


class TestSolveInt:
    def test_empty_rounds_give_zero(self):
        inst = make_instance(2, [[], [], []], capacity=3, a=1)
        lp = solve_int(inst)
        assert lp.value == pytest.approx(0.0)

    @staticmethod
    def g_values(inst):
        """g(tau) for tau = 1..n."""
        return [solve_int(inst, tau).value for tau in range(1, inst.n + 1)]

    def test_g_nondecreasing_in_tau(self):
        inst = gen_random(d=4, n=6, a=1, density=0.4, min_arrivals=1, c_max=2.0, seed=5)
        gs = self.g_values(inst)
        assert all(g2 >= g1 - 1e-7 for g1, g2 in zip(gs, gs[1:]))

    def test_fcs_theta_sandwich(self):
        inst = gen_fcs(8)[0]
        stats = instance_stats(inst)
        for tau, g in enumerate(self.g_values(inst), start=1):
            assert tau * stats.theta_lo - 1e-7 <= g <= tau * stats.theta_up + 1e-7

    def test_requires_a(self):
        inst = make_instance(1, [[(0,)]], capacity=5)
        with pytest.raises(ContractError):
            solve_int(inst)

    def test_prefix_range_checked(self):
        inst = make_instance(1, [[(0,)]], capacity=1, a=1)
        with pytest.raises(InvariantError):
            solve_int(inst, 2)


    def test_value_matches_dense_lp(self, monkeypatch):
        """g(tau) equals the dense reference LP, and the least bound U(lambda)
        solve_int priced is within 1e-9 of it, relative."""
        instances = gen_fhc(8) + gen_fhc(27) + gen_fcs(8) + gen_fcs(27)
        instances += [gen_random(d=5, n=8, a=2, density=0.4, min_arrivals=1, c_max=2.0, seed=11)]
        instances += [repetitive_random(3)]
        instances += [gen_random(d=16, n=40, a=2, density=0.3, min_arrivals=1, c_max=2.0, seed=s) for s in (1, 2)]
        for inst in instances:
            for tau in sorted({1, 2, inst.n // 2, inst.n} - {0}):
                value, bound = certified_int(monkeypatch, inst, tau)
                assert_rel_close(value, dense_int_value(inst, tau), rel=1e-12)
                assert bound - value <= 1e-9 * max(1.0, abs(value))

    def test_value_matches_sparse_lp_on_a_long_horizon(self, monkeypatch):
        """The 32,000 z entries of the ``random-verify`` instance: the value
        of the full sparse LP, in a few master solves of 33 rows."""
        inst = gen_random(d=32, n=1000, a=4, density=0.2, min_arrivals=1, c_max=2.0, seed=1)
        solves = []
        perturbing_linprog(monkeypatch, solves.append)
        value, bound = certified_int(monkeypatch, inst, inst.n)
        assert_rel_close(value, sparse_int_value(inst, inst.n), rel=1e-12)
        assert bound - value <= 1e-9 * abs(value)
        assert len(solves) <= 20

    def test_any_weights_give_an_upper_bound(self):
        """U(lambda) >= g(tau) for one-hot, uniform and randomly perturbed
        lambda: weak duality holds for every lambda on the simplex."""
        rng = np.random.default_rng(7)
        instances = [gen_fcs(8)[0], gen_fhc(8)[3], repetitive_random(3)]
        instances += [gen_random(d=5, n=8, a=2, density=0.4, min_arrivals=1, c_max=2.0, seed=11)]
        for inst in instances:
            d = inst.d
            lams = [*np.eye(d), np.ones(d), *(np.ones(d) + rng.uniform(-0.9, 0.9, (4, d))), *rng.dirichlet(np.ones(d), 4)]
            for tau in sorted({1, inst.n // 2, inst.n} - {0}):
                g = dense_int_value(inst, tau)
                for lam in lams:
                    _, _, upper = benchmark._price(*int_parts(inst, tau), lam)
                    assert upper >= g - 1e-9 * max(1.0, g)

    def test_certificate_rejects_understated_optimum(self, monkeypatch):
        """A master value 10% short of its optimum fails the duality gap, in a
        few master solves."""
        for inst in (gen_random(d=4, n=6, a=1, density=0.4, min_arrivals=1, c_max=2.0, seed=5), gen_fcs(27)[1]):
            solves = []
            perturbing_linprog(monkeypatch, lambda res: solves.append(understate_optimum(res)))
            with pytest.raises(InvariantError, match="duality gap"):
                solve_int(inst)
            assert len(solves) <= 20

    def test_certificate_rejects_flipped_duals(self, monkeypatch):
        inst = gen_random(d=4, n=6, a=1, density=0.4, min_arrivals=1, c_max=2.0, seed=5)
        solves = []
        perturbing_linprog(monkeypatch, lambda res: solves.append(flip_row_duals(res)))
        with pytest.raises(InvariantError, match="duals"):
            solve_int(inst)
        assert len(solves) == 1

    def test_long_horizon_solves(self):
        """tau * d = 500,005 z entries, over the former cap of 500,000: every
        round offers each of d = 5 dimensions once and spends sqrt(5) on
        them, so the best spread gives every dimension n sqrt(5) / 5."""
        d, n = 5, 100_001
        ptr = np.arange(0, n * d + 1, d)
        inst = Instance(d, [1.0] * d, n, ptr, np.arange(n * d + 1), np.tile(np.arange(d), n), 1)
        assert n * d > 500_000
        assert_rel_close(solve_int(inst).value, n * math.sqrt(d) / d, rel=1e-12)

    def test_memory_limit_is_checked_before_allocating(self, monkeypatch):
        inst = gen_random(d=5, n=8, a=2, density=0.4, min_arrivals=1, c_max=2.0, seed=11)
        for tau in (3, inst.n):
            need = 8 * inst.d * (2 * inst.n + 3 * tau)  # the n x d and tau x d float arrays
            monkeypatch.setattr(benchmark, "physical_memory", lambda: need)
            assert_rel_close(solve_int(inst, tau).value, dense_int_value(inst, tau))

            def no_counts(inst):
                raise AssertionError("allocated")

            monkeypatch.setattr(benchmark, "physical_memory", lambda: need - 1)
            monkeypatch.setattr(benchmark, "round_counts", no_counts)
            with pytest.raises(SizeError, match=f"g\\({tau}\\) needs"):
                solve_int(inst, tau)
            monkeypatch.undo()


class TestIntObjective:
    def test_zero_solution(self):
        inst = make_instance(2, [[(0, 1), (0,)]], capacity=1, a=1)
        sol = IntSolution(y=np.array([0.0, 0.0]), z=np.array([[0.0, 0.0]]))
        assert int_objective(inst, sol) == 0.0

    def test_hand_evaluated_z_only(self):
        # d=2, one round, phi = (1, 1); z at caps with sum 2 <= sqrt(2)*2.
        inst = make_instance(2, [[(0,), (1,)], [(0,), (1,)]], capacity=4, a=2)
        sol = IntSolution(y=np.array([0.0, 0.0, 0.0, 0.0]), z=np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert int_objective(inst, sol) == pytest.approx(2.0)

    def test_rejects_y_on_regular_candidate(self):
        inst = make_instance(4, [[(0,)]], capacity=1, a=1)
        sol = IntSolution(y=np.array([0.5]), z=np.zeros((1, 4)))
        with pytest.raises(InvariantError, match="regular"):
            int_objective(inst, sol)

    def test_rejects_excess_round_budget(self):
        inst = make_instance(1, [[(0,), (0,), (0,)]], capacity=1, a=1)
        sol = IntSolution(y=np.zeros(3), z=np.array([[3.0]]))  # sqrt(1)*1 = 1 < 3
        with pytest.raises(InvariantError, match="sqrt"):
            int_objective(inst, sol)

    def test_rejects_z_above_round_count(self):
        inst = make_instance(2, [[(0,), (1,)]], capacity=2, a=2)
        sol = IntSolution(y=np.array([0.0, 0.0]), z=np.array([[2.0, 0.0]]))
        with pytest.raises(InvariantError, match="phi"):
            int_objective(inst, sol)

    def test_policy_solution_is_feasible(self):
        from divsel.unknown_policy import run_unknown_policy

        inst = gen_random(d=5, n=5, a=1, density=0.5, min_arrivals=1, c_max=2.0, seed=13)
        pol = run_unknown_policy(inst, variant="forward")
        sol = IntSolution(np.concatenate([rec.y for rec in pol.trace]), np.array([rec.z for rec in pol.trace]))
        value = int_objective(inst, sol)  # must not raise
        assert value >= 0.0
        g_n = solve_int(inst)
        assert value <= g_n.value + 1e-7


def policy_int_point(inst):
    """The (y, z) point of the uc-hybrid pass on ``inst``."""
    pol = run_unknown_policy(inst, variant="hybrid")
    return IntSolution(np.concatenate([rec.y for rec in pol.trace]), np.array([rec.z for rec in pol.trace]))


def oracle_int_objective(inst, sol):
    """``ref_int_objective`` on an array point, cut into per-round tuples."""
    return ref_int_objective(inst, FractionalSolution(sol.y, inst.round_ptr).x, tuple(map(tuple, sol.z.tolist())))


def int_oracle_members(name):
    if name == "fhc":
        return gen_fhc(27)
    if name == "fcs":
        return gen_fcs(27)
    seed = int(name[len("random"):])
    return [gen_random(d=16, n=40, a=2, density=0.3, min_arrivals=1, c_max=2.0, seed=seed)]


class TestIntObjectiveOracle:
    """The array ``int_objective`` against the per-round scalar loop it
    replaced: the same float on valid points, the same error on points with
    one violation (or two of the same kind)."""

    @pytest.mark.parametrize("name", ["fhc", "fcs", "random1", "random2", "random3"])
    def test_value_matches_scalar_loop(self, monkeypatch, name):
        points = []
        real = benchmark.int_objective
        monkeypatch.setattr(benchmark, "int_objective", lambda inst, sol: points.append((inst, sol)) or real(inst, sol))
        for inst in int_oracle_members(name):
            for tau in sorted({inst.n // 2, inst.n}):
                solve_int(inst, tau)  # records the point it re-validates
            points.append((inst, policy_int_point(inst)))
        assert len(points) >= 3
        for inst, sol in points:
            assert int_objective(inst, sol).hex() == oracle_int_objective(inst, sol).hex()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "fault", ["y-regular", "y-above-one", "z-above-count", "z-negative", "row-budget", "two-z-negative"]
    )
    def test_single_violation_raises_as_scalar_loop(self, seed, fault):
        inst = int_oracle_members(f"random{seed}")[0]
        sol = policy_int_point(inst)
        y, z = sol.y.copy(), sol.z.copy()
        core = core_mask(inst.cand_lens, inst.d)
        counts = round_counts(inst)
        i = inst.n // 2
        if fault == "y-regular":  # on the first candidate of a round
            starts = inst.round_ptr[:-1]
            y[starts[~core[starts]][-1]] = 0.5
        elif fault == "y-above-one":
            y[np.flatnonzero(core)[-1]] = 1.5
        elif fault == "z-above-count":
            k = int(counts[i].argmin())
            z[i] = 0.0
            z[i, k] = counts[i, k] + 0.5
        elif fault == "z-negative":
            z[i, inst.d - 1] = -0.5
        elif fault == "two-z-negative":  # both name the first in round order
            z[i, inst.d - 1] = z[i + 1, 0] = -0.5
        else:
            assert counts[i].sum() > math.sqrt(inst.d) * inst.per_round_capacity
            z[i] = counts[i]
        bad = IntSolution(y, z)
        with pytest.raises(InvariantError) as want:
            oracle_int_objective(inst, bad)
        with pytest.raises(InvariantError) as got:
            int_objective(inst, bad)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


class TestGridOracle:
    def test_agrees_with_lp_on_two_candidates(self):
        inst = make_instance(2, [[(0,), (1,)]], capacity=1)
        g = grid_oracle(inst, 100)
        lp = solve_fluid(inst).value
        assert lp >= g - 1e-9
        assert lp - g <= inst.d * max(inst.c) / 100

    def test_zero_capacity(self):
        inst = make_instance(1, [[(0,)]], capacity=0)
        assert grid_oracle(inst, 50) == 0.0

    def test_single_versatile_candidate(self):
        inst = make_instance(2, [[(0, 1)]], capacity=1)
        assert grid_oracle(inst, 10) == pytest.approx(1.0)

    def test_size_cap(self):
        inst = make_instance(1, [[(0,)] * 6], capacity=6)
        with pytest.raises(SizeError):
            grid_oracle(inst, 10)

    def test_certified_lower_bound_random(self):
        rng = random.Random(17)
        for trial in range(15):
            d = rng.randint(1, 5)
            n_cand = rng.randint(1, 5)
            rows = [
                [tuple(sorted(rng.sample(range(d), rng.randint(1, d)))) for _ in range(n_cand)]
            ]
            inst = make_instance(d, rows, capacity=rng.randint(0, 5))
            g = grid_oracle(inst, 200)
            opt = solve_fluid(inst).value
            assert opt >= g - 1e-9
            assert opt - g <= d * max(inst.c) / 200 + 1e-9

    def test_equals_plain_dfs(self):
        """The duality bounds and the closed-form last pair skip work, never
        the answer: every value equals the plain search's, unequal c
        included."""
        rng = random.Random(5)
        instances = tiny_grid_instances()
        for _ in range(30):
            d = rng.randint(1, 6)
            rows = [[tuple(sorted(rng.sample(range(d), rng.randint(1, d)))) for _ in range(rng.randint(1, 5))]]
            c = [rng.choice([1.0, 1.5, 2.0, rng.uniform(1.0, 3.0)]) for _ in range(d)]
            c[rng.randrange(d)] = 1.0
            instances.append(make_instance(d, rows, capacity=rng.randint(0, 6), c=c))
        for q in (1, 4, 24):
            for inst in instances:
                assert grid_oracle(inst, q) == dfs_grid_oracle(inst, q)


@st.composite
def adjustment_rounds(draw):
    """(u, caps, budget, c) of one adjustment LP with tied utilities, zero
    caps, and budgets that often land exactly on a join or a cap event."""
    d = draw(st.integers(1, 8))
    u = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]) | st.floats(0.0, 5.0), min_size=d, max_size=d))
    caps = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 4.0), min_size=d, max_size=d))
    c = draw(st.lists(st.sampled_from([1.0, 2.0]) | st.floats(1.0, 3.0), min_size=d, max_size=d))
    events = u + [uk + ck * capk for uk, ck, capk in zip(u, c, caps)]
    kind = draw(st.sampled_from(["event", "free", "zero"]))
    if kind == "event":
        level = draw(st.sampled_from(events))
        budget = math.fsum(min(capk, max(0.0, (level - uk) / ck)) for uk, ck, capk in zip(u, c, caps))
    elif kind == "free":
        budget = draw(st.floats(0.0, 10.0))
    else:
        budget = 0.0
    return u, caps, budget, c


class TestAdjustmentLP:
    def test_matches_hand_example(self):
        u, caps, budget, c = [0.0, 2.0], [5.0, 5.0], 2.0 * math.sqrt(2.0), [1.0, 1.0]
        value, z = adjustment_lp(u, caps, budget, c)
        assert value == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-7)
        assert sum(z) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-7)
        bound = adjustment_bounds([u], [caps], budget, c, [value])[0]
        assert bound == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-7)

    def test_cap_limits_value(self):
        u, caps, budget, c = [0.0, 0.0], [0.5, 10.0], 10.0, [1.0, 1.0]
        value, _ = adjustment_lp(u, caps, budget, c)
        assert value == pytest.approx(0.5, abs=1e-9)
        assert adjustment_bounds([u], [caps], budget, c, [value])[0] == pytest.approx(0.5, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(adjustment_rounds())
    def test_bound_holds_for_any_level(self, drawn):
        """Any level gives a valid bound; the water level gives a tight one."""
        u, caps, budget, c = drawn
        lp, _ = adjustment_lp(u, caps, budget, c)
        f = fill_value(u, water_fill(u, caps, budget, c), c)
        for level in (f, min(u) - 1.0, math.inf, f + 1.0, f - 1.0):
            bound = float(adjustment_bounds([u], [caps], budget, c, [level])[0])
            assert math.isfinite(bound), level
            assert bound >= lp - 1e-12 * (1.0 + abs(lp)), level
            if level == f:
                assert abs(bound - f) <= 1e-12 * (1.0 + abs(f))
