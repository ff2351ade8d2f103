import concurrent.futures
import csv
import dataclasses
import io
import json
import math
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from divsel.benchmark import solve_fluid
from divsel.cli import main
from divsel.core import instance_stats, parse_instance, serialize_instance, solution_from_rows
from divsel import benchmark, cli, core, fixed_policy, generators, harness, unknown_policy
from divsel.errors import ContractError, SizeError
from divsel.generators import family_entries, gen_fcs, gen_random
from divsel.harness import (
    VerificationVerdict,
    CSV_COLUMNS,
    POLICY_NAMES,
    competitive_report,
    evaluate_policy,
    monte_carlo,
    run_policy,
    thm2_factor,
    verify_family,
    verify_instance,
)
from divsel.rounding import capacity_sweep
from divsel.unknown_policy import myopic_round

from conftest import exact_total, make_instance, offset_selections, random_feasible_x

#: The unknown-capacity verdicts of ``verify_instance``, in order.
UNKNOWN_CAPACITY_VERDICTS = [
    "WF-optimality", "INT-achieved-vs-opt", "Lemma3i", "Lemma3ii", "Lemma4ii", "Lemma4i", "Thm3-composite",
    "feasibility[uc-hybrid+topup]", "Topup-dominance",
]


def counting_passes(monkeypatch):
    """Record the instance of every fresh fixed and unknown-capacity pass."""
    passes = {"fixed": [], "uc": []}
    for module, name, kind in ((fixed_policy, "run_fixed_policy", "fixed"), (unknown_policy, "run_unknown_policy", "uc")):
        def counting(inst, *args, _real=getattr(module, name), _kind=kind, **kwargs):
            passes[_kind].append(inst)
            return _real(inst, *args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return passes


def mc_oracle(inst, sol, trials, seed):
    """Monte Carlo by the per-offset predicate: every candidate's picks
    evaluated at every sampled offset."""
    pos = np.random.Generator(np.random.PCG64(seed)).random(trials)
    freqs = np.zeros(inst.total_candidates)
    counts = np.zeros(trials, dtype=np.int64)
    dim_counts = np.zeros((inst.d, trials), dtype=np.int64)
    ptr = inst.cand_ptr.tolist()
    for j, sel in offset_selections(sol.flat(), pos):
        freqs[j] = sel.mean()
        counts += sel
        dim_counts[inst.bits[ptr[j] : ptr[j + 1]]] += sel
    steps = np.repeat(np.asarray(inst.c)[:, None], int(dim_counts.max()) + 1, axis=1)
    steps[:, 0] = 0.0
    sums = np.cumsum(steps, axis=1)
    return {
        "frequencies": freqs.tolist(),
        "max_selected": int(counts.max()),
        "max_selected_exact": int(capacity_sweep(sol.flat())[1].max()),
        "dimension_utilities": np.take_along_axis(sums, dim_counts, axis=1).mean(axis=1).tolist(),
    }


class TestEvaluatePolicy:
    def test_myopic_single_round_lu_is_alpha(self):
        inst = make_instance(2, [[(0,), (0,), (1,)]], capacity=2, a=2)
        report, sol = evaluate_policy(inst, "uc-myopic", seed=0)
        x = myopic_round(inst.c, 2, inst.rounds[0]).tolist()
        assert sol.x[0] == tuple(x)
        # LU equals the equal-improvement level alpha_1 = min(1, 2/2) = 1.
        assert report.lu == pytest.approx(1.0)

    def test_degenerate_ratio_is_one(self):
        inst = make_instance(2, [[(0,)]], capacity=1, a=1)
        report, _ = evaluate_policy(inst, "fixed", seed=0)
        assert report.opt == 0.0 and report.ratio == 1.0 and report.degenerate

    def test_fixed_on_fcs_meets_theorem_bound(self):
        inst = gen_fcs(27)[0]
        report, _ = evaluate_policy(inst, "fixed", seed=1)
        assert report.ratio >= thm2_factor(27) - 1e-9
        assert thm2_factor(27) == pytest.approx(1.0 / (4.0 * math.sqrt(27) * 5))

    def test_ratio_never_exceeds_one(self):
        for seed in (1, 2):
            inst = gen_random(d=4, n=5, a=2, density=0.5, min_arrivals=1, c_max=2.0, seed=seed)
            for policy in ("fixed", "uc-hybrid", "uc-myopic", "uc-forward"):
                report, _ = evaluate_policy(inst, policy, seed=0)
                assert 0.0 <= report.ratio <= 1.0 + 1e-6

    def test_contract_error_without_a(self):
        inst = make_instance(1, [[(0,)]], capacity=5)
        with pytest.raises(ContractError):
            evaluate_policy(inst, "uc-hybrid", seed=0)


class TestMonteCarlo:
    def test_all_ones_always_selected(self):
        inst = make_instance(2, [[(0,), (1,), (0, 1)]], capacity=3)
        sol = solution_from_rows([[1.0, 1.0, 1.0]])
        result = monte_carlo(inst, sol, trials=500, seed=1)
        assert result["frequencies"] == [1.0, 1.0, 1.0]
        assert result["max_selected"] == 3

    def test_capacity_never_exceeded(self):
        inst = gen_random(d=4, n=4, a=2, density=0.5, min_arrivals=1, c_max=2.0, seed=6)
        lp = solve_fluid(inst)
        result = monte_carlo(inst, lp.solution, trials=20_000, seed=2)
        assert result["max_selected"] <= inst.capacity

    def test_frequencies_within_five_standard_errors(self):
        inst = make_instance(3, [[(0,), (1,), (2,), (0, 1, 2)]], capacity=2)
        sol = random_feasible_x(inst, seed=9)
        trials = 50_000
        result = monte_carlo(inst, sol, trials=trials, seed=3)
        for freq, xj in zip(result["frequencies"], sol.flat()):
            xj = min(max(xj, 0.0), 1.0)
            bound = 5.0 * math.sqrt(xj * (1.0 - xj) / trials) + 1.0 / trials
            assert abs(freq - xj) <= bound

    def test_worst_marginal_excess_equals_the_scalar_loop(self):
        rng = np.random.default_rng(5)
        for trials in (1, 7, 2000):
            x = np.concatenate([rng.uniform(-0.2, 1.2, 300), [0.0, 1.0, -0.0]])
            freqs = np.clip(x + rng.normal(0.0, 0.1, x.size), 0.0, 1.0).tolist()
            worst = 0.0
            for freq, xj in zip(freqs, x.tolist()):
                xj = min(max(xj, 0.0), 1.0)
                bound = 5.0 * math.sqrt(max(xj * (1.0 - xj), 0.0) / trials) + 1.0 / trials
                worst = max(worst, abs(freq - xj) - bound)
            got = harness.worst_marginal_excess(freqs, x, trials)
            assert type(got) is float and got == worst
        assert worst > 0.0

    def test_dimension_utilities_match_exact_expectation(self):
        inst = make_instance(2, [[(0,), (1,)]], capacity=2)
        sol = solution_from_rows([[0.5, 0.25]])
        result = monte_carlo(inst, sol, trials=200_000, seed=4)
        assert result["dimension_utilities"][0] == pytest.approx(0.5, abs=0.02)
        assert result["dimension_utilities"][1] == pytest.approx(0.25, abs=0.02)

    def test_vectorized_counts_agree_with_sequential_rounder(self):
        from divsel.rounding import selection_count

        inst = make_instance(3, [[(0,), (1, 2), (0, 2)], [(1,), (0, 1, 2)]], capacity=3)
        sol = random_feasible_x(inst, seed=5)
        pos = (np.arange(257) + 0.5) / 257
        counts = sum(sel.astype(np.int64) for _, sel in offset_selections(sol.flat(), pos))
        offsets, swept = capacity_sweep(sol.flat())
        swept = swept[np.searchsorted(offsets, pos, side="right") - 1]
        for t in range(257):
            assert counts[t] == swept[t] == selection_count(sol.flat(), pos[t])
        # Every figure of monte_carlo equals the per-offset predicate's.
        bigger = gen_random(d=6, n=12, a=3, density=0.4, min_arrivals=1, c_max=2.0, seed=21)
        for inst, sol in ((inst, sol), (bigger, random_feasible_x(bigger, seed=6))):
            result = monte_carlo(inst, sol, trials=257, seed=8)
            assert result == {"trials": 257, **mc_oracle(inst, sol, 257, 8)}


class TestVerify:
    def test_random_instance_all_applicable_pass(self):
        inst = gen_random(d=5, n=6, a=2, density=0.4, min_arrivals=1, c_max=2.0, seed=14)
        verdicts = verify_instance(
            inst, ["fixed", "uc-hybrid", "uc-myopic", "uc-forward"], seed=2
        )
        assert all(v.status != "fail" for v in verdicts)
        names = {v.name for v in verdicts}
        assert {"Lemma1-under", "Lemma1-over", "Thm2-bound", "WF-optimality"} <= names

    def test_all_empty_rounds_never_fail(self):
        inst = make_instance(2, [[], []], capacity=2, a=1)
        verdicts = verify_instance(inst, ["fixed", "uc-hybrid"], seed=1)
        assert all(v.status != "fail" for v in verdicts)
        by_name = {v.name: v.status for v in verdicts}
        assert by_name["Lemma3ii"] == "precondition_unmet"
        assert by_name["Prop2-capacity"] == "pass"

    def test_zero_rounds_report_unmet(self):
        inst = make_instance(2, [], capacity=0, a=1)
        verdicts = verify_instance(inst, ["uc-hybrid"], seed=1)
        assert all(v.status != "fail" for v in verdicts)
        unmet = [(v.name, v.detail) for v in verdicts if v.status == "precondition_unmet"]
        assert unmet == [(name, "instance has no rounds") for name in UNKNOWN_CAPACITY_VERDICTS]
        # The policy's own rows are still checked: an empty horizon is feasible.
        assert [v.name for v in verdicts if v.status == "pass"] == [
            "Lemma1-under", "Lemma1-over", "feasibility[uc-hybrid]", "Prop2-marginals", "Prop2-capacity",
        ]

    def test_missing_a_reports_unmet(self):
        inst = make_instance(2, [[(0,), (1,)]], capacity=2)
        verdicts = verify_instance(inst, ["uc-hybrid", "uc-myopic"], seed=0)
        assert all(v.status != "fail" for v in verdicts)
        unmet = [(v.name, v.detail) for v in verdicts if v.status == "precondition_unmet"]
        names = ["feasibility[uc-hybrid]", "feasibility[uc-myopic]", *UNKNOWN_CAPACITY_VERDICTS]
        assert unmet == [(name, "instance carries no a") for name in names]
        assert [v.name for v in verdicts if v.status == "pass"] == ["Lemma1-under", "Lemma1-over"]

    def test_zero_opt_reports_unmet(self):
        """With OPT = 0 both fixed-capacity guarantees are unmet, and the
        depleted case of Lemma 2 does not arise."""
        inst = make_instance(2, [[(0,)], [(0,)]], capacity=2, a=1)
        verdicts = verify_instance(inst, ["fixed"], seed=1)
        assert [(v.name, v.status, v.detail) for v in verdicts[-2:]] == [
            ("Thm2-bound", "precondition_unmet", "OPT = 0"),
            ("Lemma2-bestguess", "precondition_unmet", "OPT = 0"),
        ]
        assert "Lemma2-depleted" not in {v.name for v in verdicts}

    def test_unmet_reasons(self, monkeypatch):
        """Every reason a verdict gives for an unmet precondition."""
        loose = make_instance(2, [[(0,), (1,)]] * 2, capacity=6, a=3)
        tight = make_instance(2, [[(0,), (1,)]] * 2, capacity=4, a=2)
        no_arrivals = make_instance(2, [[], []], capacity=2, a=1)
        cases = [
            (make_instance(2, [[(0,), (1,)]], capacity=2), {"Thm3-composite": "instance carries no a"}),
            (make_instance(2, [], capacity=0, a=1), {"Lemma4i": "instance has no rounds", "Thm2-bound": "OPT = 0"}),
            (no_arrivals, {
                "Lemma2-bestguess": "OPT = 0",
                "Lemma3i": "fluctuation ratio undefined (some b_lo = 0)",
                "Lemma3ii": "no candidate ever arrives",
                "Lemma4ii": "fluctuation ratio undefined",
                "Lemma4i": "fluctuation ratio undefined",
                "Thm3-composite": "needs b_lo > 0 and n > floor(d^(1/4))",
            }),
            (loose, {"Lemma4ii": "instance is loosely capacitated"}),
            (tight, {"Lemma4i": "instance is tightly capacitated"}),
        ]
        for inst, want in cases:
            unmet = {v.name: v.detail for v in verify_instance(inst, POLICY_NAMES, seed=1)
                     if v.status == "precondition_unmet"}
            assert {name: unmet.get(name) for name in want} == want
        monkeypatch.setattr(harness.fp, "best_guess_index", lambda policy, opt: None)
        unmet = {v.name: v.detail for v in verify_instance(tight, ["fixed"], seed=1)
                 if v.status == "precondition_unmet"}
        assert unmet == {"Lemma2-bestguess": "no guess at or below OPT"}

    def test_zero_intermediate_optimum_is_positive_zero(self):
        """g(n) = 0 is +0, so no verdict prints -0."""
        inst = parse_instance('{"d":2,"c":[1,1],"K":2,"a":1,"rounds":[[[0],[0]],[[0]]]}')
        assert math.copysign(1.0, benchmark.solve_int(inst).value) == 1.0
        verdict = {v.name: v for v in verify_instance(inst, ["uc-hybrid"], seed=1)}["INT-achieved-vs-opt"]
        assert verdict.line() == "PASS INT-achieved-vs-opt lhs=0 rhs=0 slack=0 (instance g(n) dominates the policy's (y,z))"

    def test_verdict_table(self):
        """Each verdict has one row, and the README's verdict table names
        every row."""
        names = [row.name for row in harness.VERDICT_TABLE]
        assert len(names) == len(set(names))
        assert [row.name for row in harness.VERDICT_TABLE if row.scenario == "unknown"] == UNKNOWN_CAPACITY_VERDICTS
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        listed = {line.split("|")[1].strip().strip("`") for line in readme.splitlines() if line.startswith("| `")}
        assert set(names) <= listed

    def test_verify_reads_each_fact_once(self, monkeypatch):
        """One fluid LP, one g(n), the fixed pass and one plain hybrid pass,
        and one least utility per solution a verdict reads: the fixed
        policy's, its best guess's, and the forward, hybrid and top-up rows.
        The myopic row's is read only where Lemma4i applies (loosely
        capacitated instances)."""
        calls = {name: 0 for name in ("solve_fluid", "solve_int", "run_policy", "least_utility")}
        for name in calls:
            def counting(*args, _real=getattr(harness, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(harness, name, counting)
        inst = gen_random(d=8, n=40, a=2, density=0.3, min_arrivals=1, c_max=2.0, seed=3)
        verdicts = verify_instance(inst, POLICY_NAMES, seed=1)
        assert [v.name for v in verdicts if v.status != "pass"] == ["Lemma4i"]
        assert "Lemma2-depleted" not in {v.name for v in verdicts}
        assert calls == {"solve_fluid": 1, "solve_int": 1, "run_policy": 2, "least_utility": 5}

    def test_one_unknown_capacity_pass(self, monkeypatch):
        """All unknown-capacity variants and checks read one pass: n forward
        rounds per instance, not one pass per variant.  An fcs member adds
        only the rounds after its common prefix with the previous member."""
        calls = []  # one entry per round with candidates a block of rounds brings
        process_rounds = unknown_policy.UnknownPolicy.process_rounds

        def counting_blocks(self, block):
            calls.extend(block.sizes[block.sizes > 0].tolist())
            return process_rounds(self, block)

        monkeypatch.setattr(unknown_policy.UnknownPolicy, "process_rounds", counting_blocks)
        inst = gen_random(d=5, n=6, a=2, density=0.4, min_arrivals=1, c_max=2.0, seed=14)
        verdicts = verify_instance(inst, POLICY_NAMES, seed=2)
        assert len(calls) == inst.n
        assert "Topup-dominance" in {v.name for v in verdicts}
        calls.clear()
        verify_family("fcs", 8, POLICY_NAMES, seed=0)
        members = gen_fcs(8)
        shared = [core.common_prefix_rounds(a, b) for a, b in zip(members, members[1:])]
        assert shared == [4]
        assert len(calls) == sum(member.n for member in members) - sum(shared) == 12

    @pytest.mark.parametrize("rounds", [None, 5])
    def test_adjustment_lps_are_batched(self, monkeypatch, rounds):
        """However many rounds there are, every solver call comes from one
        fluid solve (one call) and one g(n) solve: ``WF-optimality`` reads a
        closed-form dual bound per round instead of solving an adjustment
        LP.  g(n)'s master LPs have d + 1 rows whatever the horizon."""
        inst = gen_random(d=5, n=rounds or 12, a=2, density=0.4, min_arrivals=1, c_max=2.0, seed=14)
        inside, calls, entered = [None], [], []
        real = benchmark.linprog

        def counting_linprog(*args, **kwargs):
            calls.append(inside[0])
            return real(*args, **kwargs)

        def entering(name, func):
            def wrapped(*args, **kwargs):
                entered.append(name)
                inside[0] = name
                try:
                    return func(*args, **kwargs)
                finally:
                    inside[0] = None

            return wrapped

        monkeypatch.setattr(benchmark, "linprog", counting_linprog)
        monkeypatch.setattr(benchmark, "solve_fluids", entering("fluid", benchmark.solve_fluids))
        monkeypatch.setattr(harness, "solve_int", entering("int", harness.solve_int))
        verdicts = verify_instance(inst, POLICY_NAMES, seed=2)
        assert {v.name: v.status for v in verdicts}["WF-optimality"] == "pass"
        assert calls.count("fluid") == 1
        assert entered.count("int") == 1
        assert None not in calls

    def test_water_fill_check_rejects_a_tampered_round(self):
        inst = gen_random(d=5, n=12, a=2, density=0.4, min_arrivals=1, c_max=2.0, seed=14)
        _, pol = run_policy(inst, "uc-hybrid", seed=2)
        trace = list(pol.trace)
        row = next(row for row in harness.VERDICT_TABLE if row.name == "WF-optimality")

        def water_fill_check(trace):
            facts = harness._Facts(inst, 2, core.EPS, "t", opt=1.0)
            facts.uc_pass = SimpleNamespace(trace=trace)
            return harness._verdict(row, facts)

        assert water_fill_check(trace).status == "pass"
        # A round whose fill spends the whole budget, so raising any z_k
        # leaves the feasible set.
        budget = math.sqrt(inst.d) * inst.per_round_capacity
        i = max(range(inst.n), key=lambda r: float(trace[r].z.sum()))
        assert trace[i].z.sum() == pytest.approx(budget)
        rec = trace[i]
        raised_z = rec.z.copy()
        k = int(np.argmax(raised_z))
        raised_z[k] += 1e-6 * (1.0 + raised_z[k])
        step = 1e-6 * (1.0 + abs(rec.f))
        for tampered in (
            dataclasses.replace(rec, f=rec.f + step),
            dataclasses.replace(rec, f=rec.f - step),
            dataclasses.replace(rec, z=raised_z),
        ):
            verdict = water_fill_check(trace[:i] + [tampered] + trace[i + 1 :])
            assert verdict.status == "fail"
            assert verdict.lhs > 1e-7

    @pytest.mark.parametrize("family, rounds, full_rounds", [
        ("fhc", 2080, 127),  # 4,096 and 2,143 with a fresh pass per member
        ("fcs", 160, 160),  # 256 and 256
    ])
    def test_family_shares_the_common_prefix(self, monkeypatch, capsys, family, rounds, full_rounds):
        """``verify --family`` at d = 64 processes each round that members
        share once, and an empty round reaches neither the forward pass nor
        the water fill."""
        calls = {"process_round": [], "forward_round": [], "water_fill": []}
        process_rounds, water_fill = unknown_policy.UnknownPolicy.process_rounds, unknown_policy.water_fill

        def counting_blocks(self, block):  # every round of a block, then those with candidates
            calls["process_round"].extend(block.sizes.tolist())
            calls["forward_round"].extend(block.sizes[block.sizes > 0].tolist())
            return process_rounds(self, block)

        def counting_fills(*args, **kwargs):
            calls["water_fill"].append(1)
            return water_fill(*args, **kwargs)

        monkeypatch.setattr(unknown_policy.UnknownPolicy, "process_rounds", counting_blocks)
        monkeypatch.setattr(unknown_policy, "water_fill", counting_fills)
        assert main(["verify", "--family", family, "--d", "64", "--policy", "uc-hybrid"]) == 0
        assert "0 fail" in capsys.readouterr().out
        assert {name: len(seen) for name, seen in calls.items()} == {
            "process_round": rounds, "forward_round": full_rounds, "water_fill": full_rounds,
        }

    def test_per_instance_generates_members_once(self, monkeypatch, capsys):
        generated = []
        real = harness.fcs_members

        def counting_gen(d):  # one member stream per family pass
            generated.append(d)
            return real(d)

        monkeypatch.setattr(harness, "fcs_members", counting_gen)
        argv = ["verify", "--family", "fcs", "--d", "8", "--per-instance", "--policy", "uc-hybrid"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert generated == [8]
        assert out.count("fcs_d8_m") > 0 and out.splitlines()[0].startswith("PASS FCS-OPT")

    def test_per_instance_solves_each_member_once(self, monkeypatch, capsys):
        solved, lp_calls = [], []
        real_solve, real_linprog = benchmark.fluid_results, benchmark.linprog

        def counting_solve(insts):  # a tee: each member is recorded on its way to the solver
            def tee():
                for inst in insts:
                    solved.append(inst)
                    yield inst

            return real_solve(tee())

        def counting_linprog(*args, **kwargs):
            lp_calls.append(kwargs["A_ub"].shape)
            return real_linprog(*args, **kwargs)

        for module in (benchmark, harness):
            monkeypatch.setattr(module, "fluid_results", counting_solve)
        monkeypatch.setattr(benchmark, "linprog", counting_linprog)
        argv = ["verify", "--family", "fhc", "--d", "27", "--per-instance", "--policy", "fixed"]
        assert main(argv) == 0
        assert "0 fail" in capsys.readouterr().out
        members = list(harness.family_members("fhc", 27))
        assert len(solved) == 27 and all(
            np.array_equal(got.bits, want.bits) and np.array_equal(got.round_ptr, want.round_ptr)
            for got, want in zip(solved, members)
        )
        # Every member's 1 + d rows in exactly one batch; 1,187 rows and
        # columns in all make two batches.
        assert sum(rows for rows, _ in lp_calls) == 27 * 28
        assert all(rows + cols <= benchmark.FLUID_BATCH_SIZE for rows, cols in lp_calls)
        assert len(lp_calls) == 2

    def test_per_instance_reuses_the_family_passes(self, monkeypatch, capsys):
        """``--per-instance`` verifies each member on the facts that scored
        it: one fixed pass per member, and every unknown-capacity row, top-up
        included, read from the family's forked pass."""
        passes = counting_passes(monkeypatch)
        assert main(["verify", "--family", "fcs", "--d", "8", "--per-instance"]) == 0
        out = capsys.readouterr().out
        assert "0 fail" in out and "Topup-dominance" in out and "(fcs_d8_m2)" in out
        assert passes == {"fixed": gen_fcs(8), "uc": []}

    def test_verify_instance_runs_one_pass_of_each_kind(self, monkeypatch, tmp_path, capsys):
        inst = gen_random(d=5, n=6, a=2, density=0.4, min_arrivals=1, c_max=2.0, seed=14)
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(inst), encoding="utf-8")
        passes = counting_passes(monkeypatch)
        main(["verify", "--instance", str(path)])
        assert "Topup-dominance" in capsys.readouterr().out
        assert passes == {"fixed": [inst], "uc": [inst]}

    @pytest.mark.xfail(strict=True, reason="emitted rows can exceed capacity by a few ulps, and the rounder then "
                                           "picks K + 1 (ROADMAP: exact capacity on every emitted row)")
    def test_every_row_keeps_capacity_exactly(self):
        inst = parse_instance('{"d": 2, "c": [1.543498388072182, 1.0], "K": 1, "a": 1, "rounds": [[[0], [1]]]}')
        verdicts = verify_instance(inst, POLICY_NAMES, seed=1)
        assert [v.status for v in verdicts if v.name == "Prop2-capacity"] == ["pass"] * len(POLICY_NAMES)

    @pytest.mark.parametrize("command", ["verify", "gen"])
    @pytest.mark.parametrize("family", ["fhc", "fcs"])
    def test_oversize_family_is_refused_before_it_is_built(self, monkeypatch, tmp_path, capsys, command, family):
        def no_build(d):
            raise AssertionError("the family was built")

        monkeypatch.setattr(harness, f"{family}_members", no_build)
        argv = [command, "--family", family, "--d", "100000"] + (["--out", str(tmp_path)] if command == "gen" else [])
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {family} d=100000 needs ") and "memory" in captured.err
        assert captured.out == "" and not any(tmp_path.iterdir())

    def test_family_size_limit_is_the_machine_memory(self, monkeypatch):
        monkeypatch.setattr(harness, "_physical_memory", lambda: 4 * family_entries("fhc", 5))
        assert len(list(harness.family_members("fhc", 5))) == 5
        with pytest.raises(SizeError, match="fhc d=6"):
            harness.family_members("fhc", 6)

    @pytest.mark.parametrize("family, extra, batch_size", [
        pytest.param("fhc", [], None, id="fhc"),
        pytest.param("fcs", ["--per-instance"], None, id="fcs-per-instance"),
        pytest.param("fhc", [], 1, id="fhc-batch-of-one"),  # two alive at most
    ])
    def test_family_members_are_streamed(self, monkeypatch, capsys, family, extra, batch_size):
        """``verify --family`` builds, solves, scores and drops each member in
        turn: at most one LP batch of members plus the next one is alive."""
        alive, peak, batches = set(), [0], []
        build, solve_batch = getattr(harness, f"{family}_members"), benchmark._solve_fluid_batch

        def watched(d):
            for m, inst in enumerate(build(d)):
                weakref.finalize(inst, alive.discard, m)
                alive.add(m)
                peak[0] = max(peak[0], len(alive))
                yield inst

        def recording_batch(held, alone):
            batches.append(len(held))
            return solve_batch(held, alone)

        monkeypatch.setattr(harness, f"{family}_members", watched)
        monkeypatch.setattr(benchmark, "_solve_fluid_batch", recording_batch)
        if batch_size:
            monkeypatch.setattr(benchmark, "FLUID_BATCH_SIZE", batch_size)
        assert main(["verify", "--family", family, "--d", "27", *extra]) == 0
        assert "0 fail" in capsys.readouterr().out
        assert peak[0] <= max(batches) + 1
        if family == "fhc":  # 27 members in two batches, or in 27
            assert len(batches) == (27 if batch_size else 2) and peak[0] < 27

    def test_bad_family_dimension_is_refused_before_any_output(self, capsys):
        assert main(["verify", "--family", "fhc", "--d", "-5"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: gen_fhc requires d >= 1\n" and captured.out == ""

    def test_family_checks(self):
        fhc = verify_family("fhc", 4, ["uc-hybrid"], seed=0)
        assert [v.status for v in fhc] == ["pass", "pass"]
        fcs = verify_family("fcs", 8, ["fixed", "uc-hybrid"], seed=0)
        assert all(v.status == "pass" for v in fcs)


def row_from_own_pass(instance_id, inst, policy, seed, topup=False):
    """A report row from the policy's own pass, fluid solve and statistics."""
    report, _ = evaluate_policy(inst, policy, seed, instance_id=instance_id, topup=topup)
    return harness._report_row(instance_id, inst, policy, report.lu, report.opt, instance_stats(inst))


class TestReport:
    def test_header_only_for_empty_input(self):
        text = competitive_report([], ["fixed"], seed=0)
        assert text.splitlines() == [
            "instance,d,n,K,a,policy,LU,OPT,ratio,bound_name,bound_value,satisfied"
        ]

    def test_row_per_instance_policy_pair(self):
        instances = [
            ("a", gen_random(d=3, n=3, a=1, density=0.5, min_arrivals=1, c_max=2.0, seed=1)),
            ("b", gen_random(d=3, n=3, a=1, density=0.5, min_arrivals=1, c_max=2.0, seed=2)),
        ]
        text = competitive_report(instances, ["fixed", "uc-hybrid"], seed=0)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 4
        assert [(r["instance"], r["policy"]) for r in rows] == [
            ("a", "fixed"),
            ("a", "uc-hybrid"),
            ("b", "fixed"),
            ("b", "uc-hybrid"),
        ]

    def test_ratios_match_evaluate_policy(self):
        inst = gen_random(d=4, n=4, a=2, density=0.5, min_arrivals=1, c_max=2.0, seed=3)
        text = competitive_report([("x", inst)], ["uc-hybrid"], seed=5)
        row = next(csv.DictReader(io.StringIO(text)))
        report, _ = evaluate_policy(inst, "uc-hybrid", seed=5)
        assert abs(float(row["ratio"]) - report.ratio) <= 1e-12

    def test_satisfied_semantics(self):
        inst = gen_random(d=4, n=5, a=1, density=0.5, min_arrivals=1, c_max=2.0, seed=4)
        text = competitive_report([("x", inst)], ["fixed"], seed=0)
        row = next(csv.DictReader(io.StringIO(text)))
        assert row["bound_name"] == "Thm2"
        expected = float(row["ratio"]) >= float(row["bound_value"]) - 1e-9
        assert row["satisfied"] == ("true" if expected else "false")

    def test_byte_identical_reruns(self):
        instances = [
            ("r1", gen_random(d=4, n=4, a=1, density=0.4, min_arrivals=1, c_max=2.0, seed=8)),
        ]
        first = competitive_report(instances, ["fixed", "uc-hybrid"], seed=9)
        second = competitive_report(instances, ["fixed", "uc-hybrid"], seed=9)
        assert first == second

    def test_parallel_matches_serial(self):
        instances = [
            ("p1", gen_random(d=3, n=3, a=1, density=0.5, min_arrivals=1, c_max=2.0, seed=1)),
            ("p2", gen_random(d=3, n=3, a=1, density=0.5, min_arrivals=1, c_max=2.0, seed=2)),
        ]
        serial = competitive_report(instances, ["uc-myopic"], seed=0, jobs=1)
        parallel = competitive_report(instances, ["uc-myopic"], seed=0, jobs=2)
        assert serial == parallel

    @pytest.mark.parametrize("jobs, expected", [(10_000, 4), (3, 3), (-5, None), (1, None)])
    def test_jobs_clamped_to_tasks_and_cpus(self, monkeypatch, jobs, expected):
        # A recorder stands in for the pool: it keeps max_workers and maps
        # serially, so no process is started.
        requested = []

        class RecordingPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 6)
        instances = [
            (f"j{i}", gen_random(d=3, n=3, a=1, density=0.5, min_arrivals=1, c_max=2.0, seed=i))
            for i in range(2)
        ]
        # Two tasks per instance: the fixed policy, and one shared pass for
        # both unknown-capacity policies.
        policies = ["fixed", "uc-myopic", "uc-forward"]
        text = competitive_report(instances, policies, seed=0, jobs=jobs)
        assert text == competitive_report(instances, policies, seed=0, jobs=1)
        assert requested == ([] if expected is None else [expected])

    @pytest.mark.parametrize("topup, passes", [(False, 2), (True, 2)])
    def test_one_unknown_capacity_pass_per_instance(self, monkeypatch, topup, passes):
        """One plain pass per instance gives every uc-* row, with top-up or
        without: each variant's top-up is replayed from its plain rows.  The
        rows equal the ones of a pass per row either way."""
        instances = [
            ("s1", gen_random(d=4, n=5, a=2, density=0.4, min_arrivals=1, c_max=2.0, seed=21)),
            ("s2", gen_random(d=4, n=5, a=2, density=0.4, min_arrivals=1, c_max=2.0, seed=22)),
        ]
        policies = ["uc-forward", "fixed", "uc-myopic", "uc-hybrid"]
        rows = [
            row_from_own_pass(iid, inst, policy, 3, topup)
            for iid, inst in instances
            for policy in policies
        ]
        for row in rows:
            row.pop("_ratio_raw")
        expected = json.dumps(rows, indent=2) + "\n"
        runs = []
        real = unknown_policy.run_unknown_policy

        def counting_run(*args, **kwargs):
            runs.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(unknown_policy, "run_unknown_policy", counting_run)
        text = competitive_report(instances, policies, seed=3, fmt_name="json", topup=topup)
        assert text == expected
        assert len(runs) == passes

    def test_one_fluid_solve_per_instance(self, monkeypatch):
        instances = [
            ("s1", gen_random(d=4, n=5, a=2, density=0.4, min_arrivals=1, c_max=2.0, seed=21)),
            ("s2", gen_random(d=4, n=5, a=2, density=0.4, min_arrivals=1, c_max=2.0, seed=22)),
        ]
        # Reference: every row solves its own fluid LP (opt=None in the task)
        # and gets its own statistics.
        rows = [
            row_from_own_pass(iid, inst, policy, 3)
            for iid, inst in instances
            for policy in POLICY_NAMES
        ]
        for row in rows:
            row.pop("_ratio_raw")
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        expected = {"csv": buf.getvalue(), "json": json.dumps(rows, indent=2) + "\n"}

        solved = []

        def counting_solve(inst):
            solved.append(inst)
            return solve_fluid(inst)

        stats_of = []

        def counting_stats(inst):
            stats_of.append(inst)
            return instance_stats(inst)

        monkeypatch.setattr(harness, "solve_fluid", counting_solve)
        monkeypatch.setattr(harness, "instance_stats", counting_stats)
        for fmt_name in ("csv", "json"):
            solved.clear()
            stats_of.clear()
            text = competitive_report(instances, POLICY_NAMES, seed=3, fmt_name=fmt_name)
            assert solved == [inst for _, inst in instances]
            # Once per instance, not once per unknown-capacity row (6 calls).
            assert stats_of == [inst for _, inst in instances]
            assert text == expected[fmt_name]


class TestCLI:
    def test_gen_offline_run_verify_report(self, tmp_path, capsys):
        assert main(["gen", "--family", "fcs", "--d", "8", "--out", str(tmp_path)]) == 0
        files = sorted(tmp_path.glob("fcs_d8_m*.json"))
        assert len(files) == 2
        capsys.readouterr()

        assert main(["offline", "--instance", str(files[0])]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["OPT"] == pytest.approx(2.4)

        x_path = tmp_path / "x.json"
        rc = main(
            [
                "run",
                "--instance",
                str(files[0]),
                "--policy",
                "uc-hybrid",
                "--emit-x",
                str(x_path),
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        run_payload = json.loads(capsys.readouterr().out)
        assert run_payload["feasible"] and run_payload["ratio"] <= 1.0 + 1e-6
        assert x_path.exists()

        rc = main(
            ["mc", "--instance", str(files[0]), "--x", str(x_path), "--trials", "5000"]
        )
        assert rc == 0
        mc_payload = json.loads(capsys.readouterr().out)
        assert mc_payload["capacity_respected"]

        rc = main(
            [
                "verify",
                "--family",
                "fcs",
                "--d",
                "8",
                "--policy",
                "uc-hybrid",
                "--policy",
                "fixed",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "FCS-512" in out and "FAIL" not in out

        report_path = tmp_path / "report.csv"
        rc = main(
            [
                "report",
                "--instances",
                *[str(f) for f in files],
                "--policy",
                "uc-hybrid",
                "--out",
                str(report_path),
                "--family-min",
                "fcs",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rows = list(csv.DictReader(report_path.open()))
        assert len(rows) == 3  # 2 members + family-min row
        assert rows[-1]["instance"] == "fcs:family-min"
        assert rows[-1]["satisfied"] == "true"

    def test_emitted_fluid_x_never_exceeds_capacity(self, tmp_path, capsys):
        """Regression: this instance's x* summed to 900.0000000000001 with
        K = 900, and the rounder picked 901 at pos 0 while the sampled check
        of ``mc`` read 900."""
        inst = gen_random(d=16, n=300, a=3, density=0.3, min_arrivals=1, c_max=1.0, seed=4)
        path, x_path = tmp_path / "inst.json", tmp_path / "x.json"
        path.write_text(serialize_instance(inst), encoding="utf-8")
        assert main(["offline", "--instance", str(path), "--emit-x", str(x_path)]) == 0
        capsys.readouterr()
        emitted = core.parse_solution(x_path.read_text(encoding="utf-8"), inst)
        assert emitted == solve_fluid(inst).solution
        assert exact_total(emitted.flat()) <= inst.capacity
        outputs = []
        for extra in (["--x", str(x_path)], []):
            rc = main(["mc", "--instance", str(path), "--trials", "2000", "--seed", "1", *extra])
            payload = json.loads(capsys.readouterr().out)
            assert rc == 0
            assert payload["max_selected_exact"] == 900 == payload["K"]
            assert payload["max_selected"] <= 900 and payload["capacity_respected"]
            outputs.append(payload)
        assert outputs[0] == outputs[1]

    def test_mc_capacity_reads_the_exact_maximum(self, tmp_path, capsys):
        # sum(x) = 2 + 2 ulp: the offsets below ~4e-16 pick 3 > K = 2, which
        # no sampled offset is likely to hit.
        inst = make_instance(1, [[(0,)] * 4], capacity=2)
        path, x_path = tmp_path / "inst.json", tmp_path / "x.json"
        path.write_text(serialize_instance(inst), encoding="utf-8")
        x_path.write_text(json.dumps([[0.5, 0.5, 0.5, 0.5000000000000004]]), encoding="utf-8")
        rc = main(["mc", "--instance", str(path), "--x", str(x_path), "--trials", "1000"])
        payload = json.loads(capsys.readouterr().out)
        assert (payload["max_selected"], payload["max_selected_exact"]) == (2, 3)
        assert not payload["capacity_respected"] and rc == 2

    def test_verify_json_format(self, capsys):
        argv = ["verify", "--family", "fhc", "--d", "4", "--per-instance", "--policy", "uc-hybrid"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert main([*argv, "--format", "json"]) == 0
        verdicts = json.loads(capsys.readouterr().out)
        assert [set(v) for v in verdicts] == [{"name", "status", "lhs", "rhs", "slack", "detail"}] * len(verdicts)
        assert [VerificationVerdict(**v).line() for v in verdicts] == lines[:-1]
        statuses = [v["status"] for v in verdicts]
        assert lines[-1] == (
            f"# {statuses.count('pass')} pass, 0 fail, {statuses.count('precondition_unmet')} unmet"
        )

    def test_run_without_a_is_contract_error(self, tmp_path, capsys):
        inst = make_instance(2, [[(0,), (1,)]], capacity=2)
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(inst), encoding="utf-8")
        rc = main(["run", "--instance", str(path), "--policy", "uc-hybrid"])
        assert rc == 3
        assert "error" in capsys.readouterr().err

    def test_nan_weight_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"d": 2, "c": [1.0, NaN], "K": 1, "a": null, "rounds": [[[0], [1]]]}')
        rc = main(["offline", "--instance", str(path)])
        assert rc == 3
        assert "finite" in capsys.readouterr().err

    def test_infinite_weight_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text('{"d": 2, "c": [1.0, Infinity], "K": 1, "a": null, "rounds": [[[0], [1]]]}')
        rc = main(["offline", "--instance", str(path)])
        assert rc == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_mc_rejects_non_finite_solution(self, tmp_path, capsys, token):
        inst = make_instance(2, [[(0,), (1,)]], capacity=2)
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(serialize_instance(inst), encoding="utf-8")
        x_path = tmp_path / "x.json"
        x_path.write_text(f"[[0.5, {token}]]", encoding="utf-8")
        rc = main(["mc", "--instance", str(inst_path), "--x", str(x_path), "--trials", "10"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "x_text",
        ["[[null, 0.5]]", "[[{}, 0.5]]", "[[[0.5], 0.5]]", '[[true, "0.5"]]', '[[0.5, "0.5"]]']
        + ["[[" + "9" * 400 + ", 0.5]]", "[" * 100_000 + "]" * 100_000],
        ids=["null", "object", "list", "bool", "string", "overflow-int", "deep"],
    )
    def test_mc_rejects_malformed_solution(self, tmp_path, capsys, x_text):
        inst = make_instance(2, [[(0,), (1,)]], capacity=2)
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(serialize_instance(inst), encoding="utf-8")
        x_path = tmp_path / "x.json"
        x_path.write_text(x_text, encoding="utf-8")
        rc = main(["mc", "--instance", str(inst_path), "--x", str(x_path), "--trials", "10"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "inst_text",
        ["[" * 100_000 + "]" * 100_000, '{"d": 1, "c": [' + "9" * 400 + '], "K": 0, "rounds": []}'],
        ids=["deep", "overflow-weight"],
    )
    def test_mc_rejects_malformed_instance(self, tmp_path, capsys, inst_text):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(inst_text, encoding="utf-8")
        x_path = tmp_path / "x.json"
        x_path.write_text("[]", encoding="utf-8")
        rc = main(["mc", "--instance", str(inst_path), "--x", str(x_path), "--trials", "10"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("trials", ["0", "-5", "100000000000"])
    def test_mc_rejects_bad_trial_counts(self, tmp_path, capsys, trials):
        # The last count's arrays would need far more than any machine's
        # memory; it is refused before anything is allocated.
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(serialize_instance(make_instance(2, [[(0,), (1,)]], capacity=2)))
        x_path = tmp_path / "x.json"
        x_path.write_text("[[0.5, 0.5]]", encoding="utf-8")
        rc = main(["mc", "--instance", str(inst_path), "--x", str(x_path), "--trials", trials])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("error: ") and "trials" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["verify", "run"])
    @pytest.mark.parametrize("eps", ["inf", "-inf", "nan", "-1"])
    def test_out_of_range_epsilon_is_domain_error(self, tmp_path, capsys, command, eps):
        if command == "verify":
            argv = ["verify", "--family", "fcs", "--d", "8"]
        else:
            path = tmp_path / "inst.json"
            path.write_text(serialize_instance(make_instance(2, [[(0,), (1,)]], capacity=2)))
            argv = ["run", "--instance", str(path), "--policy", "fixed"]
        rc = main([*argv, f"--epsilon={eps}"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("error: --epsilon must be finite and >= 0")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["report", "verify", "mc"])
    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_nonpositive_jobs_is_domain_error(self, tmp_path, capsys, command, jobs):
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(make_instance(2, [[(0,), (1,)]], capacity=2)))
        flag = {"report": "--instances", "verify": "--instance", "mc": "--instance"}[command]
        rc = main([command, flag, str(path), "--jobs", jobs])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("error: --jobs must be >= 1")
        assert captured.out == ""

    def test_one_job_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(make_instance(2, [[(0,), (1,)]], capacity=2)))
        assert main(["report", "--instances", str(path), "--policy", "fixed", "--jobs", "1"]) == 0
        assert capsys.readouterr().out.startswith("instance,")

    @pytest.mark.parametrize("bad", ["instance", "x"])
    def test_non_utf8_input_is_schema_error(self, tmp_path, capsys, bad):
        paths = {"instance": tmp_path / "inst.json", "x": tmp_path / "x.json"}
        paths["instance"].write_text(serialize_instance(make_instance(2, [[(0,), (1,)]], capacity=2)))
        paths["x"].write_text("[[0.5, 0.5]]")
        paths[bad].write_bytes(b"\xff\xfe" + paths[bad].read_bytes())
        if bad == "instance":
            argv = ["offline", "--instance", str(paths["instance"])]
        else:
            argv = ["mc", "--instance", str(paths["instance"]), "--x", str(paths["x"]), "--trials", "10"]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ") and "not UTF-8" in err
        assert "Traceback" not in err

    def test_missing_file_is_io_error(self, capsys):
        rc = main(["offline", "--instance", "/nonexistent/file.json"])
        assert rc == 3

    def test_verify_instance_paths(self, tmp_path, capsys):
        inst = gen_random(d=4, n=4, a=1, density=0.5, min_arrivals=1, c_max=2.0, seed=19)
        path = tmp_path / "r.json"
        path.write_text(serialize_instance(inst), encoding="utf-8")
        rc = main(["verify", "--instance", str(path), "--policy", "uc-hybrid"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Thm3-composite" in out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--d", "0"], "d, n, a and min_arrivals must be >= 1"),
            (["--d", "1000000000000", "--n", "1"], "1000000000000 arrivals do not fit in memory"),
            (["--d", "2", "--n", "2", "--min-arrivals", "1000000000000"], "4000000000000 arrivals do not fit"),
        ],
    )
    def test_gen_random_refuses_absurd_sizes_before_drawing(self, monkeypatch, tmp_path, capsys, flags, message):
        def no_draw(seed):
            raise AssertionError("drew")

        monkeypatch.setattr(generators, "_mt19937", no_draw)
        assert main(["gen", "--family", "random", *flags, "--out", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == "" and not any(tmp_path.iterdir())

    def test_gen_random_deterministic_files(self, tmp_path):
        for out in ("a", "b"):
            argv = ["gen", "--family", "random", "--d", "4", "--n", "3", "--a", "2", "--p", "0.3"]
            assert main([*argv, "--min-arrivals", "1", "--cmax", "2.0", "--out", str(tmp_path / out), "--seed", "5"]) == 0
        a = (tmp_path / "a" / "random_d4_m1.json").read_text()
        b = (tmp_path / "b" / "random_d4_m1.json").read_text()
        assert a == b
        parse_instance(a)

    # Each subcommand takes only the shared flags it reads; verify and mc
    # keep --jobs, which scripted command lines pass to every command.
    UNREAD_FLAGS = [
        ("gen", "--epsilon"),
        ("gen", "--format"),
        ("gen", "--jobs"),
        ("offline", "--seed"),
        ("offline", "--epsilon"),
        ("offline", "--format"),
        ("offline", "--jobs"),
        ("run", "--format"),
        ("run", "--jobs"),
        ("mc", "--epsilon"),
        ("mc", "--format"),
        ("report", "--epsilon"),
    ]

    @pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
    def test_unread_shared_flags_are_rejected(self, tmp_path, capsys, command, flag):
        base = {
            "gen": ["--family", "fcs", "--d", "8", "--out", str(tmp_path)],
            "offline": ["--instance", "i.json"],
            "run": ["--instance", "i.json", "--policy", "fixed"],
            "mc": ["--instance", "i.json"],
            "report": ["--instances", "i.json"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *base, flag, "json" if flag == "--format" else "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
