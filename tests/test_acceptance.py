"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are pinned here, straight from the
contract; runtime ceilings are asserted as part of each criterion.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from divsel.benchmark import (
    opt_bounds,
    solve_fluid,
    solve_fluids,
)
from divsel.core import least_utility, validate_feasibility
from divsel.generators import fcs_kappa, gen_fcs, gen_fhc, gen_random
from divsel.harness import (
    competitive_report,
    run_policy,
    scenario_mode,
    thm2_factor,
    verify_instance,
)
from divsel.rounding import capacity_sweep, pick_segments
from divsel.unknown_policy import water_fill

from conftest import adjustment_lp, exact_total, fill_value, grid_oracle, random_feasible_x, tiny_grid_instances

DIMS = (4, 8, 16, 27, 64)
GRID_POINTS = 10_000
ALL_POLICIES = ("fixed", "uc-hybrid", "uc-myopic", "uc-forward")


@contextmanager
def criterion(num, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {num} PASS: {description} [{elapsed:.1f}s / budget {budget_s}s]")
    assert elapsed < budget_s, f"criterion {num} exceeded its runtime budget"


def _random_pool():
    """Mixed random instances: tight and loose, small and large d."""
    pool = []
    for d in DIMS:
        pool.append(
            (
                f"rand_d{d}_tight",
                gen_random(d=d, n=6, a=1, density=0.3, min_arrivals=1, c_max=2.0, seed=100 + d),
            )
        )
        a_loose = max(1, math.ceil(2.0 * math.sqrt(d)) + 1)
        pool.append(
            (
                f"rand_d{d}_loose",
                gen_random(
                    d=d, n=5, a=a_loose, density=0.4, min_arrivals=1, c_max=1.5, seed=200 + d
                ),
            )
        )
    return pool


@pytest.fixture(scope="module")
def random_pool():
    return _random_pool()


@pytest.fixture(scope="module")
def fcs_pool():
    return [(f"fcs_d{d}_m{m}", inst) for d in DIMS for m, inst in enumerate(gen_fcs(d), 1)]


def test_criterion_1_rounding_exactness():
    with criterion(1, "rounding exactness (measures = x_j to 2^-53; |A| <= K on pos grid)", 10):
        checked = 0
        for i in range(50):
            d = 2 + (i * 7) % 15  # d in [2, 16]
            n = 2 + i % 5
            min_arrivals = 2 if i % 3 == 0 else 1  # push some |S| toward the cap
            inst = gen_random(
                d=d, n=n, a=2, density=0.35, min_arrivals=min_arrivals, c_max=2.0, seed=1000 + i
            )
            assert d <= 16 and inst.total_candidates <= 200
            sol = random_feasible_x(inst, seed=i)
            x_flat = [min(max(v, 0.0), 1.0) for v in sol.flat()]
            # The measure of the offsets at which the rounder picks j.
            measures = pick_segments(x_flat).measures()
            worst = max(abs(m - x) for m, x in zip(measures, x_flat))
            assert worst <= 2**-53, f"instance {i}: worst marginal gap {worst}"
            # The sweep's exact counts: at most K on the 10,000-point midpoint
            # grid, and at most ceil(exact sum of x) at every offset.  (Some
            # of these solutions sum to K plus an ulp, so K + 1 picks occur on
            # a segment of width ~1e-15 at pos 0.)
            offsets, counts = capacity_sweep(sol.flat())
            grid = (np.arange(GRID_POINTS) + 0.5) / GRID_POINTS
            on_grid = counts[np.searchsorted(offsets, grid, side="right") - 1]
            assert on_grid.max() <= inst.capacity, f"instance {i}: capacity violated"
            assert counts.max() <= math.ceil(exact_total(sol.flat())), f"instance {i}"
            checked += 1
        assert checked == 50


def test_criterion_2_benchmark_sandwich(random_pool):
    with criterion(2, "benchmark sandwich (Lemma 1) and grid-oracle agreement", 60):
        instances = []
        for d in DIMS:
            instances += [(f"fhc_d{d}_m{m}", inst) for m, inst in enumerate(gen_fhc(d), 1)]
            instances += [(f"fcs_d{d}_m{m}", inst) for m, inst in enumerate(gen_fcs(d), 1)]
        instances += random_pool
        lps = solve_fluids([inst for _, inst in instances])
        for (name, inst), lp in zip(instances, lps):
            under, over = opt_bounds(inst)
            assert under - 1e-7 <= lp.value <= over + 1e-7, name

        tiny = tiny_grid_instances()
        for idx, inst in enumerate(tiny):
            assert inst.total_candidates <= 5
            lower = grid_oracle(inst, 200)
            opt = solve_fluid(inst).value
            assert opt >= lower - 1e-9, f"tiny {idx}"
            assert opt - lower <= inst.d * max(inst.c) / 200 + 1e-9, f"tiny {idx}"


def test_criterion_3_fixed_capacity_guarantee(random_pool, fcs_pool):
    with criterion(3, "fixed-capacity guarantee (Thm 2 + best-guess Lemmas 2/3)", 300):
        from divsel.fixed_policy import agent_solution, agent_y_solution, best_guess_index

        for name, inst in fcs_pool + random_pool:
            opt = solve_fluid(inst).value
            if opt <= 1e-9:
                continue
            sol, pol = run_policy(inst, "fixed", seed=11)
            lu, _ = least_utility(inst, sol)
            assert lu / opt >= thm2_factor(inst.d) - 1e-9, name
            r_star = best_guess_index(pol, opt)
            assert r_star is not None, name
            gamma = pol.agents[r_star].gamma
            lu_r, _ = least_utility(inst, agent_solution(pol, r_star))
            assert lu_r >= gamma / (2.0 * math.sqrt(inst.d)) - 1e-9, name
            if pol.agents[r_star].y_used >= inst.capacity - 1e-9:
                lu_y, _ = least_utility(inst, agent_y_solution(pol, r_star))
                assert lu_y >= gamma / math.sqrt(inst.d) - 1e-9, name


def test_criterion_4_unknown_capacity_guarantees(random_pool, fcs_pool):
    with criterion(4, "unknown-capacity guarantees (Thm 3 composite, Lemmas 3/4)", 300):
        pool = fcs_pool + random_pool
        pool += [(f"fhc_d{d}_m{m}", inst) for d in (4, 8) for m, inst in enumerate(gen_fhc(d), 1)]
        for d in (16, 27, 64):  # spot-check the big members too
            members = gen_fhc(d)
            pool += [(f"fhc_d{d}_m1", members[0]), (f"fhc_d{d}_m{d}", members[-1])]
        applicable = {"Thm3-composite": 0, "Lemma4i": 0, "Lemma3i": 0, "Lemma3ii": 0, "Lemma4ii": 0}
        for name, inst in pool:
            verdicts = verify_instance(
                inst, ["uc-hybrid", "uc-myopic", "uc-forward"], seed=13, instance_id=name
            )
            for v in verdicts:
                assert v.status != "fail", f"{name}: {v.line()}"
                if v.name in applicable and v.status == "pass":
                    applicable[v.name] += 1
        # Every theorem check must actually fire somewhere in the pool.
        assert all(count > 0 for count in applicable.values()), applicable


def test_criterion_5_water_filling_optimality(random_pool):
    with criterion(5, "water-filling value equals the adjustment LP optimum", 30):
        import random as pyrandom

        rng = pyrandom.Random(2024)
        for trial in range(200):
            d = rng.randint(1, 10)
            u = [rng.uniform(0.0, 6.0) for _ in range(d)]
            caps = [rng.choice([0.0, rng.uniform(0.0, 5.0)]) for _ in range(d)]
            c = [rng.uniform(1.0, 3.0) for _ in range(d)]
            budget = rng.uniform(0.0, 10.0)
            z = water_fill(u, caps, budget, c)
            lp_value, _ = adjustment_lp(u, caps, budget, c)
            assert abs(fill_value(u, z, c) - lp_value) <= 1e-7, trial

        # Every round of representative test instances.
        reps = [inst for _, inst in random_pool[:4]] + [gen_fcs(8)[0], gen_fcs(27)[1]]
        for inst in reps:
            _, pol = run_policy(inst, "uc-forward", seed=3)
            trace = pol.trace
            budget = math.sqrt(inst.d) * inst.per_round_capacity
            u = [0.0] * inst.d
            for i, rnd in enumerate(inst.rounds):
                counts = rnd.attribute_counts(inst.d)
                for j, yj in enumerate(trace[i].y.tolist()):
                    if yj:
                        for k in rnd.candidates[j].bits:
                            u[k] += inst.c[k] * yj
                lp_value, _ = adjustment_lp(u, [float(v) for v in counts], budget, list(inst.c))
                assert abs(trace[i].f - lp_value) <= 1e-7
                for k in range(inst.d):
                    u[k] += inst.c[k] * trace[i].z[k]


def test_criterion_6_impossibility_witnesses():
    with criterion(6, "impossibility witnesses (FHC 2/d; FCS OPT and 512 d^-1/3)", 120):
        for d in (4, 8, 16, 32):
            members = gen_fhc(d)
            ratios = []
            for inst in members:
                opt = solve_fluid(inst).value
                assert opt >= d - 1e-7
                sol, _ = run_policy(inst, "uc-hybrid", seed=17)
                lu, _ = least_utility(inst, sol)
                ratios.append(lu / opt)
            assert min(ratios) <= 2.0 / d + 1e-9

        for d in (8, 27, 64):
            members = gen_fcs(d)
            kappa = fcs_kappa(d)
            opts = [solve_fluid(m).value for m in members]
            assert min(opts) >= d / (8.0 * kappa) - 1e-7
            for policy in ALL_POLICIES:
                ratios = []
                for inst, opt in zip(members, opts):
                    sol, _ = run_policy(inst, policy, seed=17)
                    lu, _ = least_utility(inst, sol)
                    ratios.append(lu / opt)
                assert min(ratios) <= 512.0 * d ** (-1.0 / 3.0) + 1e-9


def test_criterion_7_feasibility_and_topup_dominance(random_pool, fcs_pool):
    with criterion(7, "feasibility on 100% of runs; top-up never hurts", 120):
        for name, inst in fcs_pool + random_pool:
            for policy in ALL_POLICIES:
                sol, _ = run_policy(inst, policy, seed=23)
                assert validate_feasibility(inst, sol, scenario_mode(policy)), (name, policy)
            for policy in ("uc-hybrid", "uc-myopic", "uc-forward"):
                plain, _ = run_policy(inst, policy, seed=23)
                boosted, _ = run_policy(inst, policy, seed=23, topup=True)
                assert validate_feasibility(inst, boosted, "per_round_prefix"), (name, policy)
                lu_p, _ = least_utility(inst, plain)
                lu_b, _ = least_utility(inst, boosted)
                assert lu_b >= lu_p - 1e-9, (name, policy)


def test_criterion_8_determinism(random_pool):
    with criterion(8, "byte-identical reports under identical seeds", 120):
        instances = random_pool[:4] + [("fcs_d8_m1", gen_fcs(8)[0])]
        first = competitive_report(instances, list(ALL_POLICIES), seed=31)
        second = competitive_report(instances, list(ALL_POLICIES), seed=31)
        assert first == second
        from divsel.core import parse_instance, serialize_instance

        reparsed = [(name, parse_instance(serialize_instance(inst))) for name, inst in instances]
        third = competitive_report(reparsed, list(ALL_POLICIES), seed=31)
        assert first == third
