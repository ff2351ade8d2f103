import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsel.core import (
    AttributeVector,
    FractionalSolution,
    Instance,
    common_prefix_rounds,
    round_counts,
    instance_stats,
    least_utility,
    marginals,
    min_count_at_least_sqrt_d,
    parse_instance,
    parse_solution,
    serialize_instance,
    solution_from_rows,
    validate_feasibility,
    feasibility_report,
)
from divsel.errors import (
    ContractError,
    DivselError,
    InvariantError,
    SchemaError,
    ShapeError,
)
from divsel.generators import gen_fcs, gen_fhc, gen_random

from conftest import make_instance, random_feasible_x


MINIMAL_DOC = '{"d": 2, "c": [1, 1], "K": 2, "a": null, "rounds": [[[0], [1]]]}'


class TestParse:
    def test_minimal_document(self):
        inst = parse_instance(MINIMAL_DOC)
        assert inst.n == 1
        assert inst.total_candidates == 2
        assert inst.d == 2 and inst.capacity == 2

    def test_min_c_must_be_one(self):
        doc = '{"d": 2, "c": [2, 3], "K": 2, "rounds": [[[0], [1]]]}'
        with pytest.raises(InvariantError, match="min c"):
            parse_instance(doc)

    def test_capacity_consistency_with_a(self):
        doc = '{"d": 1, "c": [1], "K": 5, "a": 2, "rounds": [[[0]], [[0]], [[0]]]}'
        with pytest.raises(InvariantError, match="K != n\\*a"):
            parse_instance(doc)

    def test_malformed_json(self):
        with pytest.raises(SchemaError):
            parse_instance("{not json")

    @pytest.mark.parametrize(
        "doc",
        [
            '{"c": [1], "K": 1, "rounds": []}',
            '{"d": 1, "c": "x", "K": 1, "rounds": []}',
            '{"d": 1, "c": [1], "K": 1, "rounds": [[[0.5]]]}',
            '{"d": 1, "c": [1], "K": true, "rounds": []}',
            '[1, 2]',
        ],
    )
    def test_schema_violations(self, doc):
        with pytest.raises(SchemaError):
            parse_instance(doc)

    def test_unsorted_bits_rejected(self):
        doc = '{"d": 2, "c": [1, 1], "K": 1, "rounds": [[[1, 0]]]}'
        with pytest.raises(InvariantError):
            parse_instance(doc)

    def test_out_of_range_attribute(self):
        doc = '{"d": 2, "c": [1, 1], "K": 1, "rounds": [[[2]]]}'
        with pytest.raises(InvariantError):
            parse_instance(doc)


class TestSerialize:
    def test_fhc_round_trip(self):
        for inst in gen_fhc(3):
            assert parse_instance(serialize_instance(inst)) == inst

    def test_empty_rounds(self):
        inst = make_instance(2, [], capacity=0)
        text = serialize_instance(inst)
        assert json.loads(text)["rounds"] == []
        assert parse_instance(text) == inst

    def test_per_round_capacity_preserved(self):
        inst = make_instance(2, [[(0,)], [(1,)]], capacity=4, a=2)
        assert json.loads(serialize_instance(inst))["a"] == 2
        assert parse_instance(serialize_instance(inst)).per_round_capacity == 2

    def test_solution_round_trip(self):
        from divsel.core import serialize_solution, solution_from_rows

        inst = make_instance(2, [[(0,), (1,)], [(0, 1)]], capacity=3)
        sol = solution_from_rows([[0.25, 1.0], [0.125]])
        assert parse_solution(serialize_solution(sol), inst) == sol
        with pytest.raises(ShapeError):
            parse_solution("[[0.5]]", inst)


class TestMarginals:
    def test_direct_count(self):
        inst = make_instance(2, [[(0,), (0, 1)]], capacity=2)
        assert marginals(inst) == [2, 1]

    def test_empty_instance(self):
        assert marginals(make_instance(3, [], capacity=0)) == [0, 0, 0]

    def test_fhc_member_counts(self):
        # I^3_3 stacks d=3 candidates of each prefix type: 3+3+3, 3+3, 3.
        inst = gen_fhc(3)[2]
        assert marginals(inst) == [9, 6, 3]


class TestLeastUtility:
    def test_all_zero(self):
        inst = make_instance(2, [[(0,), (1,)]], capacity=2)
        lu, u = least_utility(inst, solution_from_rows([[0.0, 0.0]]))
        assert lu == 0.0 and u == [0.0, 0.0]

    def test_weighted_single_candidate(self):
        inst = make_instance(2, [[(0, 1)]], capacity=1, c=[1.0, 2.0])
        lu, u = least_utility(inst, solution_from_rows([[0.5]]))
        assert u == pytest.approx([0.5, 1.0])
        assert lu == pytest.approx(0.5)

    def test_matches_fluid_optimum(self):
        from divsel.benchmark import solve_fluid

        inst = make_instance(3, [[(0, 1), (1, 2), (0, 2)], [(0,), (1,), (2,)]], capacity=3)
        lp = solve_fluid(inst)
        lu, _ = least_utility(inst, lp.solution)
        assert lu == pytest.approx(lp.value, abs=1e-6)

    def test_shape_error(self):
        inst = make_instance(2, [[(0,), (1,)]], capacity=2)
        with pytest.raises(ShapeError):
            least_utility(inst, solution_from_rows([[0.5]]))

    def test_marginals_equal_all_ones_utility(self):
        inst = make_instance(3, [[(0, 2), (1,)], [(0, 1, 2)]], capacity=3, c=[1.0, 2.0, 4.0])
        ones = solution_from_rows([[1.0] * len(r) for r in inst.rounds])
        _, u = least_utility(inst, ones)
        assert [u[k] / inst.c[k] for k in range(3)] == pytest.approx(marginals(inst))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_monotone_in_each_coordinate(self, data):
        inst = make_instance(3, [[(0,), (0, 1), (1, 2)], [(2,), (0, 2)]], capacity=5)
        rows = [
            [data.draw(st.floats(0, 1), label=f"x{i}{j}") for j in range(len(rnd))]
            for i, rnd in enumerate(inst.rounds)
        ]
        _, u_before = least_utility(inst, solution_from_rows(rows))
        i = data.draw(st.integers(0, len(rows) - 1), label="round")
        j = data.draw(st.integers(0, len(rows[i]) - 1), label="pos")
        bump = data.draw(st.floats(0, 1), label="bump")
        rows[i][j] = min(1.0, rows[i][j] + bump)
        _, u_after = least_utility(inst, solution_from_rows(rows))
        assert all(ua >= ub - 1e-12 for ua, ub in zip(u_after, u_before))


class TestFeasibility:
    def test_all_ones_at_capacity(self):
        inst = make_instance(2, [[(0,), (1,)], [(0, 1)]], capacity=3)
        ones = solution_from_rows([[1.0] * len(r) for r in inst.rounds])
        assert validate_feasibility(inst, ones, "total")

    def test_exceeding_capacity(self):
        inst = make_instance(1, [[(0,), (0,)]], capacity=1)
        sol = solution_from_rows([[1.0, 1.0]])
        assert not validate_feasibility(inst, sol, "total")
        assert any("exceeds K" in v for v in feasibility_report(inst, sol, "total"))

    def test_prefix_rule_tighter_than_total(self):
        inst = make_instance(1, [[(0,), (0,)], [(0,)], [(0,)]], capacity=3, a=1)
        sol = solution_from_rows([[0.75, 0.75], [0.0], [0.0]])
        assert validate_feasibility(inst, sol, "total")
        assert not validate_feasibility(inst, sol, "per_round_prefix")
        report = feasibility_report(inst, sol, "per_round_prefix")
        assert any("round 0" in v for v in report)

    def test_prefix_mode_requires_a(self):
        inst = make_instance(1, [[(0,)]], capacity=5)
        with pytest.raises(ContractError):
            validate_feasibility(inst, solution_from_rows([[1.0]]), "per_round_prefix")

    def test_entry_out_of_range(self):
        inst = make_instance(1, [[(0,)]], capacity=5)
        assert not validate_feasibility(inst, solution_from_rows([[1.5]]), "total")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry(self, bad):
        inst = make_instance(1, [[(0,), (0,)]], capacity=5, a=5)
        sol = solution_from_rows([[0.5, bad]])
        for mode in ("total", "per_round_prefix"):
            assert not validate_feasibility(inst, sol, mode)
            assert any("x[0][1]" in v and "not finite" in v for v in feasibility_report(inst, sol, mode))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_parse_solution_rejects_non_finite(self, token):
        inst = make_instance(1, [[(0,), (0,)]], capacity=5)
        with pytest.raises(SchemaError, match="finite"):
            parse_solution(f"[[0.5, {token}]]", inst)


class TestInstanceStats:
    def test_fcs_family_statistics(self):
        for inst in gen_fcs(8):
            stats = instance_stats(inst)
            assert stats.frak_b == 1.0
            assert stats.b_bar == 1
            assert stats.delta_lo == 2.0 and stats.delta_up == 2.0
            assert stats.eta == pytest.approx(0.5)

    def test_single_round_fluctuation_is_one(self):
        inst = make_instance(2, [[(0,), (1,), (0, 1)]], capacity=2, a=2)
        stats = instance_stats(inst)
        assert stats.frak_b == 1.0
        assert stats.b_up == stats.b_lo == (2, 2)

    def test_loosely_capacitated_boundary(self):
        # a*sqrt(d) = 6 against sum_k delta_lo/c_k = 8: tightly capacitated.
        inst = make_instance(
            4, [[(0,), (1,), (2,), (3,)]] * 2, capacity=6, a=3
        )
        stats = instance_stats(inst)
        assert stats.delta_lo == 2.0
        assert not stats.loosely_capacitated

    def test_degenerate_dimension(self):
        inst = make_instance(2, [[(0,)], [(0,), (1,)]], capacity=2, a=1)
        stats = instance_stats(inst)
        assert stats.frak_b is None
        assert stats.degenerate_dims == (1,)

    def test_requires_a(self):
        inst = make_instance(1, [[(0,)]], capacity=5)
        with pytest.raises(ContractError):
            instance_stats(inst)

    def test_theta_bounds_on_fcs(self):
        inst = gen_fcs(27)[0]
        stats = instance_stats(inst)
        assert stats.theta_up == 2.0
        assert stats.theta_lo == pytest.approx(min(1.0, math.sqrt(27) / 27))


class TestTypes:
    def test_attribute_vector_invariants(self):
        with pytest.raises(InvariantError):
            AttributeVector((1, 1))
        with pytest.raises(InvariantError):
            AttributeVector((2, 1))
        assert AttributeVector((0, 3)).popcount == 2

    def test_instance_invariants(self):
        with pytest.raises(InvariantError):
            Instance(d=1, c=(2.0,), capacity=1, round_ptr=[0], cand_ptr=[0], bits=[])
        with pytest.raises(InvariantError):
            make_instance(1, [[(1,)]], capacity=1)

    def test_sqrt_threshold_is_exact(self):
        assert min_count_at_least_sqrt_d(4) == 2
        assert min_count_at_least_sqrt_d(5) == 3
        assert min_count_at_least_sqrt_d(1) == 1
        assert min_count_at_least_sqrt_d(16) == 4
        assert min_count_at_least_sqrt_d(17) == 5


# Any JSON value, including huge integers and non-finite floats.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["d", "c", "K", "a", "rounds", "x"]), inner, max_size=6),
    max_leaves=20,
)
small_ints = st.integers(min_value=-2, max_value=4) | json_values
# Documents close to a valid instance, so the checks past the top level run.
near_instances = st.fixed_dictionaries(
    {
        "d": small_ints,
        "c": st.lists(st.sampled_from([1.0, 2.0, 1]) | json_values, max_size=4) | json_values,
        "K": small_ints,
        "rounds": st.lists(st.lists(st.lists(small_ints, max_size=4), max_size=3), max_size=3) | json_values,
    },
    optional={"a": small_ints},
)
near_solutions = st.lists(st.lists(st.floats(0.0, 1.0) | json_values, max_size=3), max_size=3)


class TestHostileInput:
    """Whatever the text, parsing ends in a result or a DivselError."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.one_of(json_values, near_instances).map(json.dumps) | st.text(max_size=30))
    def test_parse_instance(self, text):
        try:
            parse_instance(text)
        except DivselError:
            pass

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.one_of(json_values, near_solutions).map(json.dumps) | st.text(max_size=30))
    def test_parse_solution(self, text):
        inst = make_instance(2, [[(0,), (1,)], [(0, 1)]], capacity=2)
        try:
            parse_solution(text, inst)
        except DivselError:
            pass

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"d": 0, "c": [], "K": 1, "rounds": [[[2**31]]]}, "d must be a positive integer"),
            ({"d": 2, "c": [1], "K": 1, "rounds": [[[0, 2**31]]]}, "c must have length d"),
            ({"d": 2, "c": [1, 1], "K": 1, "rounds": [[[2**31]]]}, "candidate attribute index must be < d"),
            ({"d": 2, "c": [1, 1], "K": 1, "rounds": [[[2**63]]]}, "candidate attribute index must be < d"),
        ],
        ids=["d-before-int32", "c-before-int32", "int32", "int64"],
    )
    def test_index_past_int32_meets_the_checks_in_order(self, doc, message):
        # The candidates are packed as int32; an index that does not fit is
        # reported by the same check, in the same order, as any other.
        with pytest.raises(InvariantError, match=f"^{message}$"):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize("weight", [1e15, 1e308])
    @pytest.mark.parametrize("command", [
        ["offline"], ["run", "--policy", "uc-hybrid"], ["report"], ["mc", "--trials", "10"], ["verify"],
    ], ids=lambda argv: argv[0])
    def test_huge_finite_weight_ends_in_one_error_line(self, tmp_path, capsys, command, weight):
        # A weight range the LP solver cannot take is its failure (x = 0 is
        # always feasible), never a NaN optimum, a traceback or exit 0.
        from divsel.cli import main

        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"d": 2, "c": [1.0, weight], "K": 2, "a": 1, "rounds": [[[0], [1]], [[0, 1]]]}))
        flag = "--instances" if command[0] == "report" else "--instance"
        assert main([command[0], flag, str(path), *command[1:]]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_lp_scipy_refuses_is_an_invariant_error(self):
        # At 1e308 the intermediate LP's master matrix overflows to inf, which
        # scipy refuses with a ValueError before HiGHS sees it.
        from divsel.benchmark import solve_int

        inst = Instance.from_bit_lists(2, (1.0, 1e308), 2, [[[0], [1]], [[0, 1]]], 1)
        with np.errstate(over="ignore"), pytest.raises(InvariantError, match="^LP refused by the solver: "):
            solve_int(inst)


# ---------------------------------------------------------------------------
# The CSR layout against the per-candidate loops it replaced, kept here as the
# scalar reference.  Comparisons are exact (==).


def ref_marginals(inst):
    counts = [0] * inst.d
    for cand in inst.all_candidates():
        for k in cand.bits:
            counts[k] += 1
    return counts


def ref_round_counts(inst):
    rows = []
    for rnd in inst.rounds:
        counts = [0] * inst.d
        for cand in rnd.candidates:
            for k in cand.bits:
                counts[k] += 1
        rows.append(counts)
    return rows


def ref_least_utility(inst, sol):
    acc = [0.0] * inst.d
    for row, rnd in zip(sol.x, inst.rounds):
        for xj, cand in zip(row, rnd):
            if xj == 0.0:
                continue
            for k in cand.bits:
                acc[k] += xj
    u = [inst.c[k] * acc[k] for k in range(inst.d)]
    return min(u), u


def online_stream_instance():
    """The instance of the benchmark's online-stream workload (seed 1)."""
    return gen_random(d=64, n=2000, a=4, density=0.2, min_arrivals=1, c_max=2.0, seed=1)


@pytest.mark.parametrize(
    "family",
    [
        pytest.param(lambda: gen_fhc(27), id="fhc27"),
        pytest.param(lambda: gen_fcs(27), id="fcs27"),
        pytest.param(lambda: [online_stream_instance()], id="online-stream"),
    ],
)
def test_array_layers_equal_scalar_loops(family):
    from divsel.harness import run_policy

    for inst in family():
        assert marginals(inst) == ref_marginals(inst)
        assert round_counts(inst).tolist() == ref_round_counts(inst)
        solutions = [random_feasible_x(inst, seed=3)]
        if inst.n > 100:
            solutions.append(run_policy(inst, "uc-hybrid", seed=1, topup=True)[0])
        for sol in solutions:
            assert least_utility(inst, sol) == ref_least_utility(inst, sol)


def test_round_counts_hold_no_attribute_sized_temporary():
    """``round_counts`` counts the attributes slice by slice, each into the
    rows of the rounds it meets: the same integers as one ``bincount`` over
    every (round, k) cell, and no int64 copy of all 836k attributes on the
    way (6.7 MB; the result itself is 1 MB)."""
    import tracemalloc

    inst = online_stream_instance()
    bit_round = np.repeat(np.arange(inst.n), np.diff(inst.cand_ptr[inst.round_ptr]))
    want = np.bincount(bit_round * inst.d + inst.bits, minlength=inst.n * inst.d).reshape(inst.n, inst.d)
    del bit_round
    tracemalloc.start()
    try:
        got = round_counts(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert peak <= 2 * got.nbytes
    tracemalloc.start()
    try:
        assert marginals(inst) == want.sum(axis=0).tolist()
        assert tracemalloc.get_traced_memory()[1] <= got.nbytes  # one slice's copy, not every attribute's
    finally:
        tracemalloc.stop()


rounds_of = st.integers(1, 6).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(
            st.lists(st.lists(st.integers(0, d - 1), unique=True, max_size=d).map(sorted), max_size=4),
            max_size=5,
        ),
    )
)


class TestArrayLayout:
    @settings(max_examples=60, deadline=None)
    @given(rounds_of, st.none() | st.integers(1, 3), st.data())
    def test_nested_and_array_instances_round_trip(self, d_rounds, a, data):
        d, rounds = d_rounds
        c = [data.draw(st.floats(1.0, 4.0), label=f"c{k}") for k in range(d)]
        c[data.draw(st.integers(0, d - 1), label="unit")] = 1.0
        cap = len(rounds) * a if a else data.draw(st.integers(0, 9), label="K")
        cands = [b for rnd in rounds for b in rnd]
        nested = Instance.from_bit_lists(d, c, cap, rounds, a)
        arrays = Instance(
            d, tuple(c), cap, np.cumsum([0] + [len(rnd) for rnd in rounds]),
            np.cumsum([0] + [len(b) for b in cands]), [k for b in cands for k in b], a
        )
        assert nested == arrays
        assert parse_instance(serialize_instance(arrays)) == arrays
        assert pickle.loads(pickle.dumps(arrays)) == arrays
        assert [[list(cand.bits) for cand in rnd] for rnd in arrays.rounds] == rounds
        assert [list(cand.bits) for cand in arrays.all_candidates()] == [b for rnd in rounds for b in rnd]
        assert arrays.n == len(rounds) and arrays.total_candidates == sum(map(len, rounds))
        for i, rnd in enumerate(rounds):
            view = arrays.rounds[i]
            assert view.d == d and view.counts.tolist() == view.attribute_counts(d)
            assert view.lens.tolist() == [len(b) for b in rnd]
            assert view.bits.tolist() == [k for b in rnd for k in b]
            assert arrays.rounds[i] == nested.rounds[i] == arrays.rounds[i - len(rounds)]

    def test_rounds_are_views_built_on_access(self):
        inst = gen_fhc(4)[1]
        assert inst.rounds[1] is not inst.rounds[1]
        assert len(inst.rounds[:2]) == 2 and len(inst.rounds[-1]) == 0
        with pytest.raises(IndexError):
            inst.rounds[4]
        assert not inst.bits.flags.writeable and inst.bits.dtype == np.int32
        with pytest.raises(AttributeError):
            inst.d = 5

    def test_malformed_arrays_rejected(self):
        with pytest.raises(InvariantError, match="CSR"):
            Instance(2, (1.0, 1.0), 1, [0, 1], [0, 2], [0])
        with pytest.raises(InvariantError, match="strictly increasing"):
            Instance(2, (1.0, 1.0), 1, [0, 2], [0, 0, 2], [1, 1])
        # The pair across a candidate boundary may decrease.
        inst = Instance(2, (1.0, 1.0), 1, [0, 3], [0, 1, 1, 2], [1, 0])
        assert [list(cand.bits) for cand in inst.all_candidates()] == [[1], [], [0]]

    def test_validation_does_not_widen_bits(self):
        # The neighbour check compares int32 entries as they come: the
        # instance's own int32 copy and a few bool arrays, no int64 copies.
        import tracemalloc

        d, per, m = 100, 100, 10_000
        bits = np.tile(np.arange(per, dtype=np.int32), m)
        cand_ptr = np.arange(m + 1, dtype=np.int64) * per
        tracemalloc.start()
        try:
            Instance(d, [1.0] * d, m, [0, m], cand_ptr, bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * bits.nbytes

    def test_public_constructors_copy_their_arrays(self):
        round_ptr, cand_ptr, bits = np.array([0, 2]), np.array([0, 1, 3]), np.array([1, 0, 1], dtype=np.int32)
        values, sol_ptr = np.array([0.5, 0.25]), np.array([0, 2])
        inst = Instance(2, (1.0, 1.0), 2, round_ptr, cand_ptr, bits)
        sol = FractionalSolution(values, sol_ptr)
        for arr in (round_ptr, cand_ptr, bits, values, sol_ptr):
            arr[...] = 7  # the caller's arrays stay its own and writeable
        assert [[list(cand.bits) for cand in rnd] for rnd in inst.rounds] == [[[1], [0, 1]]]
        assert inst.round_ptr.tolist() == [0, 2] and inst.cand_ptr.tolist() == [0, 1, 3]
        assert sol.values.tolist() == [0.5, 0.25] and sol.round_ptr.tolist() == [0, 2]

    def test_solution_is_one_array(self):
        sol = solution_from_rows([[0.25, 1.0], [], [0.5]])
        assert sol.values.tolist() == [0.25, 1.0, 0.5] and sol.round_ptr.tolist() == [0, 2, 2, 3]
        assert sol.x == ((0.25, 1.0), (), (0.5,))
        assert sol == FractionalSolution(np.array([0.25, 1.0, 0.5]), [0, 2, 2, 3])
        with pytest.raises(ShapeError):
            FractionalSolution([0.5], [0, 2])


def ref_common_prefix_rounds(a, b):
    """Leading rounds with equal ``bit_lists()``, compared one by one."""
    shared = 0
    for ra, rb in zip(a.rounds, b.rounds):
        if ra.bit_lists() != rb.bit_lists():
            break
        shared += 1
    return shared


class TestCommonPrefixRounds:
    @settings(max_examples=200, deadline=None)
    @given(rounds_of, st.data())
    def test_matches_round_by_round_comparison(self, d_rounds, data):
        # The second instance keeps a prefix of the first one's rounds, then
        # continues with fresh rounds drawn from the same small alphabet, so
        # rounds that differ only in one late attribute, in one candidate's
        # length, or in their size all occur (empty rounds and candidates
        # without attributes included).
        d, rounds = d_rounds
        keep = data.draw(st.integers(0, len(rounds)), label="keep")
        candidate = st.lists(st.integers(0, d - 1), unique=True, max_size=d).map(sorted)
        tail = data.draw(st.lists(st.lists(candidate, max_size=4), max_size=4), label="tail")
        a = Instance.from_bit_lists(d, (1.0,) * d, 0, rounds)
        b = Instance.from_bit_lists(d, (1.0,) * d, 0, rounds[:keep] + tail)
        want = ref_common_prefix_rounds(a, b)
        assert want >= keep
        assert common_prefix_rounds(a, b) == common_prefix_rounds(b, a) == want
        assert common_prefix_rounds(a, a) == a.n

    @pytest.mark.parametrize("rounds_a, rounds_b, shared", [
        ([], [], 0),
        ([[]], [], 0),
        ([[], [[0]]], [[], [[0]], []], 2),
        ([[[0, 1]], [[1]]], [[[0, 1]], [[0]]], 1),  # same lengths, one attribute differs
        ([[[0, 1]], [[1]]], [[[0, 1]], [[0, 1]]], 1),  # a length differs
        ([[[0], []], [[1]]], [[[0], []], [[1], []]], 1),  # a round's size differs
        ([[[0], []]], [[[0]], [[]]], 0),  # same candidates, cut into other rounds
        ([[], [], [[1]]], [[], [], [[0]]], 2),
    ])
    def test_hand_made(self, rounds_a, rounds_b, shared):
        a = Instance.from_bit_lists(2, (1.0, 1.0), 0, rounds_a)
        b = Instance.from_bit_lists(2, (1.0, 1.0), 0, rounds_b)
        assert common_prefix_rounds(a, b) == common_prefix_rounds(b, a) == shared

    def test_hard_families(self):
        fhc = gen_fhc(9)
        assert [common_prefix_rounds(a, b) for a, b in zip(fhc, fhc[1:])] == list(range(1, 9))
        fcs = gen_fcs(64)
        assert [common_prefix_rounds(a, b) for a, b in zip(fcs, fcs[1:])] == [32] * 3


class TestParseErrors:
    """The vectorized checks keep the error classes and messages."""

    @pytest.mark.parametrize(
        "rounds, error, message",
        [
            ("[[[0, true]]]", SchemaError, "round 0 candidate 0 must be a list of integers"),
            ("[[[0]], [[1], 2]]", SchemaError, "round 1 candidate 1 must be a list of integers"),
            ("[[[0.5]], 3]", SchemaError, "round 0 candidate 0"),
            ("[[[0]], 3]", SchemaError, "round 1 must be a list of candidates"),
            ("[[[], [1, 0]]]", InvariantError, "strictly increasing"),
            ("[[[0, 0]]]", InvariantError, "strictly increasing"),
            ("[[[-1]]]", InvariantError, "nonnegative"),
            ("[[[1], [2]]]", InvariantError, "must be < d"),
            ("[[[0, 100000000000000000000000]]]", InvariantError, "must be < d"),
            ("[[[100000000000000000000000, 1]]]", InvariantError, "strictly increasing"),
            ("[[[-100000000000000000000000]]]", InvariantError, "nonnegative"),
        ],
    )
    def test_messages(self, rounds, error, message):
        doc = '{"d": 2, "c": [1, 1], "K": 1, "rounds": ' + rounds + "}"
        with pytest.raises(error, match=message):
            parse_instance(doc)
