import hashlib
import math
from dataclasses import dataclass

import numpy as np
import pytest

from divsel.benchmark import solve_fluid
from divsel.core import least_utility, marginals, validate_feasibility
from divsel.errors import DimensionError
from divsel.fixed_policy import (
    AgentState,
    FixedPolicy,
    agent_solution,
    agent_y_solution,
    best_guess_index,
    combine_agent_round,
    continuous_minimalist_round,
    controlled_greedy_round,
    guess_count,
    new_fixed_policy,
    policy_solution,
    run_fixed_policy,
)
from divsel.generators import gen_fcs, gen_random

from conftest import make_instance, make_round


@dataclass
class Agent(AgentState):
    """One guess with the (d, c) of its principal, which the single-agent
    helpers below read; the kernels read only the ``AgentState`` fields."""

    d: int = 0
    c: tuple[float, ...] = ()


def make_agent(gamma, d, capacity, c=None):
    return Agent(
        gamma=gamma,
        capacity=capacity,
        d=d,
        c=tuple(c) if c else tuple(1.0 for _ in range(d)),
    )


def greedy(agent, v, rnd, order):
    """Stage 1 of a single agent whose stage-1 totals are the 1 x d array
    ``v`` (updated in place); its row of y."""
    target = np.array([agent.gamma / math.sqrt(agent.d)])
    return controlled_greedy_round([agent], v, target, np.asarray(agent.c), rnd, lambda: order)[0].tolist()


def minimalist(agent, rnd, phi_total, consumed, v=None):
    """Stage 2 of a single agent with no past adjustments; its row of z."""
    c = np.asarray(agent.c)
    v = np.zeros((1, agent.d)) if v is None else v
    shortfall = agent.gamma / math.sqrt(agent.d) - v - c * np.subtract(phi_total, consumed)
    z = continuous_minimalist_round([agent], shortfall, c, np.zeros((1, agent.d)), rnd)
    return z[0].tolist()


def combine(y_i, z_i, rnd):
    return combine_agent_round(y_i, z_i, rnd).tolist()


class TestGuessSet:
    def test_tight_sandwich_keeps_one_agent(self):
        assert guess_count(3.0, 3.0) == 1

    def test_ratio_d_gives_log2_d_agents(self):
        for d in (2, 4, 8, 16, 27, 64):
            assert guess_count(1.0, float(d)) == math.ceil(math.log2(d))

    def test_zero_marginal_gives_zero_agents(self):
        policy = new_fixed_policy(2, (1.0, 1.0), 4, [3, 0], seed=0)
        assert policy.agents == []
        rnd = make_round(2, ((0,),))
        assert policy.process_round(rnd) == [0.0]

    def test_guess_values_are_geometric(self):
        policy = new_fixed_policy(1, (1.0,), 8, [8], seed=0)
        gammas = [agent.gamma for agent in policy.agents]
        assert gammas[0] == policy.under
        for g1, g2 in zip(gammas, gammas[1:]):
            assert g2 == pytest.approx(2.0 * g1)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            new_fixed_policy(2, (1.0, 1.0), 4, [1], seed=0)

    def test_round_of_another_d_is_refused(self):
        policy = new_fixed_policy(4, (1.0,) * 4, 4, [2, 2, 2, 2], seed=0)
        with pytest.raises(DimensionError, match="d=8"):
            policy.process_round(make_round(8, [(0, 5), (1, 2, 7)]))
        assert policy.round_index == 0 and policy.unseen.tolist() == [2, 2, 2, 2]


class TestControlledGreedy:
    def test_three_attribute_candidate_hand_trace(self):
        # gamma/sqrt(d) = 2; three thresholds at 2 each, m = 2, so the raise
        # stops at min(1, ., 2) = 1.
        agent = make_agent(gamma=4.0, d=4, capacity=100)
        v = np.zeros((1, 4))
        rnd = make_round(4, ((0, 1, 2),))
        y = greedy(agent, v, rnd, [0])
        assert y == [1.0]
        assert v[0].tolist() == [1.0, 1.0, 1.0, 0.0]

        # Next candidate sees v = (1,1,1,0): thresholds (1,1), m=2, stop at 1.
        rnd2 = make_round(4, ((0, 1),))
        y2 = greedy(agent, v, rnd2, [0])
        assert y2 == [1.0]

    def test_single_attribute_never_raised(self):
        agent = make_agent(gamma=4.0, d=4, capacity=100)
        rnd = make_round(4, ((2,),))
        assert greedy(agent, np.zeros((1, 4)), rnd, [0]) == [0.0]

    def test_partial_raise_stops_at_threshold(self):
        # v = (1.5, 1.5) from a previous raise: thresholds at 0.5, so y = 0.5.
        agent = make_agent(gamma=2.0 * math.sqrt(2.0), d=2, capacity=100)
        rnd = make_round(2, ((0, 1), (0, 1)))
        y = greedy(agent, np.zeros((1, 2)), rnd, [0, 1])
        assert y[0] == 1.0
        assert y[1] == pytest.approx(1.0, abs=1e-12)  # threshold 2 - 1 = 1

    def test_capacity_exhaustion_stops_raise(self):
        agent = make_agent(gamma=40.0, d=4, capacity=1)
        rnd = make_round(4, ((0, 1, 2, 3), (0, 1, 2, 3)))
        y = greedy(agent, np.zeros((1, 4)), rnd, [0, 1])
        assert y == [1.0, 0.0]
        assert agent.y_used == pytest.approx(1.0)


class TestContinuousMinimalist:
    def test_closed_form_raise(self):
        # gamma/sqrt(d) = 2 against w = 0.5 and Res = 0.5: the maximal
        # utility reaches the scaled guess after a raise of exactly 1 in
        # utility terms, well inside the round cap and the capacity.
        agent = make_agent(gamma=2.0, d=1, capacity=100, c=[0.5])
        v = np.array([[0.5]])  # w = v + c*z_acc = 0.5
        rnd = make_round(1, ((0,),) * 3)
        z = minimalist(agent, rnd, phi_total=[7], consumed=[6], v=v)  # Res = 0.5 * (7 - 6) = 0.5
        assert z == [pytest.approx((2.0 - 0.5 - 0.5) / 0.5)]
        assert z[0] <= rnd.attribute_counts(1)[0]
        assert agent.z_used == pytest.approx(z[0])

    def test_immediate_stop_when_maximal_utility_high(self):
        agent = make_agent(gamma=2.0, d=1, capacity=100)
        rnd = make_round(1, ((0,), (0,)))
        # w = 0, Res = 5 - 2 = 3 >= gamma/sqrt(d) = 2 -> z = 0.
        assert minimalist(agent, rnd, phi_total=[5], consumed=[2]) == [0.0]

    def test_capacity_induced_stop(self):
        agent = make_agent(gamma=20.0, d=1, capacity=0)
        rnd = make_round(1, ((0,), (0,)))
        assert minimalist(agent, rnd, phi_total=[2], consumed=[2]) == [0.0]

    def test_round_cap_clamps(self):
        # Gap of 5 in utility terms but only phi_k(R_i) = 2 to hand out.
        agent = make_agent(gamma=5.0, d=1, capacity=100)
        rnd = make_round(1, ((0,), (0,)))
        assert minimalist(agent, rnd, phi_total=[2], consumed=[2]) == [2.0]


class TestCombine:
    def test_pure_y(self):
        rnd = make_round(2, ((0,),))
        assert combine([1.0], [0.0, 0.0], rnd) == [0.5]

    def test_full_adjustment_halved(self):
        # z at the round count: every holder gets share 1, halved to 0.5.
        rnd = make_round(2, ((1,), (1,)))
        assert combine([0.0, 0.0], [0.0, 2.0], rnd) == [0.5, 0.5]

    def test_full_adjustment_single_candidate(self):
        rnd = make_round(2, ((1,),))
        assert combine([0.0], [0.0, 1.0], rnd) == [0.5]

    def test_max_then_average(self):
        rnd = make_round(2, ((0, 1),))
        x = combine([0.4], [0.3, 0.5], rnd)
        assert x == [pytest.approx((0.4 + 0.5) / 2.0)]


class TestFixedPolicy:
    def test_single_agent_equals_average(self):
        inst = make_instance(1, [[(0,), (0,)]], capacity=2)
        run = run_fixed_policy(inst, seed=1)
        assert len(run.policy.agents) == 1
        assert policy_solution(run).x == agent_solution(run, 0).x

    def test_per_agent_feasibility(self):
        inst = gen_random(d=6, n=6, a=2, density=0.4, min_arrivals=1, c_max=2.5, seed=21)
        run = run_fixed_policy(inst, seed=3)
        for idx in range(len(run.policy.agents)):
            sol = agent_solution(run, idx)
            assert validate_feasibility(inst, sol, "total")

    def test_emitted_average_feasible(self):
        inst = gen_random(d=5, n=8, a=1, density=0.5, min_arrivals=1, c_max=2.0, seed=8)
        run = run_fixed_policy(inst, seed=8)
        assert validate_feasibility(inst, policy_solution(run), "total")

    def test_best_guess_guarantee(self):
        for seed in (1, 2, 3):
            inst = gen_random(d=6, n=5, a=2, density=0.45, min_arrivals=1, c_max=2.0, seed=seed)
            opt = solve_fluid(inst).value
            run = run_fixed_policy(inst, seed=seed)
            r_star = best_guess_index(run, opt)
            assert r_star is not None
            gamma = run.policy.agents[r_star].gamma
            assert opt / 2.0 - 1e-9 <= gamma <= opt + 1e-9
            lu, _ = least_utility(inst, agent_solution(run, r_star))
            assert lu >= gamma / (2.0 * math.sqrt(inst.d)) - 1e-9

    def test_capacity_depleted_lemma(self):
        # Tiny capacity forces stage 1 to exhaust K for the best guess.
        inst = make_instance(4, [[(0, 1, 2, 3)] * 4], capacity=1)
        opt = solve_fluid(inst).value
        run = run_fixed_policy(inst, seed=0)
        r_star = best_guess_index(run, opt)
        agent = run.policy.agents[r_star]
        if agent.y_used >= inst.capacity - 1e-9:
            lu_y, _ = least_utility(inst, agent_y_solution(run, r_star))
            assert lu_y >= agent.gamma / math.sqrt(inst.d) - 1e-9

    def test_theorem2_on_fcs(self):
        inst = gen_fcs(8)[0]
        opt = solve_fluid(inst).value
        run = run_fixed_policy(inst, seed=5)
        lu, _ = least_utility(inst, policy_solution(run))
        bound = 1.0 / (4.0 * math.sqrt(8) * math.ceil(math.log2(8)))
        assert lu / opt >= bound - 1e-9

    def test_determinism(self):
        inst = gen_random(d=5, n=6, a=2, density=0.5, min_arrivals=1, c_max=2.0, seed=33)
        a = run_fixed_policy(inst, seed=7)
        b = run_fixed_policy(inst, seed=7)
        assert policy_solution(a).x == policy_solution(b).x

    def test_quiet_rounds_share_read_only_zeros(self):
        # A round that moves no agent records no arrays of its own: every such
        # round of one size shares one read-only set of zero rows.
        inst = gen_random(d=16, n=100, a=4, density=0.2, min_arrivals=1, c_max=2.0, seed=1)
        run = run_fixed_policy(inst, seed=1)
        quiet = [rec for rec in run.trace if rec.x is rec.y]
        assert [id(rec) for rec in run.trace if not rec.x.any()] == list(map(id, quiet))
        sizes = {rec.emitted.size for rec in quiet}
        assert len(quiet) == 65
        assert len({id(rec.y) for rec in quiet}) == len({id(rec.emitted) for rec in quiet}) == len(sizes)
        for rec in quiet:
            assert rec.y.shape == (len(run.policy.agents), rec.emitted.size) and not rec.emitted.any()
            for arr in (rec.y, rec.emitted):
                with pytest.raises(ValueError):
                    arr[...] = 1.0

    def test_marginals_match_scenario_contract(self):
        inst = gen_random(d=4, n=4, a=1, density=0.5, min_arrivals=1, c_max=2.0, seed=2)
        run = run_fixed_policy(inst, seed=0)
        assert list(run.policy.phi_total) == marginals(inst)


def test_emitted_rows_are_pinned():
    """Every emitted row of a 2,000-round d=64 stream, byte for byte, and
    every agent's rows and final totals: the round-start screen and its
    cache, the Python-float survivor step, the lazy shuffle and the stage-2
    gate may change no bit of them."""
    inst = gen_random(d=64, n=2000, a=4, density=0.2, min_arrivals=1, c_max=2.0, seed=1)
    run = run_fixed_policy(inst, 1)
    digest, agent_rows = hashlib.sha256(), hashlib.sha256()
    for rec in run.trace:
        digest.update(rec.emitted.tobytes())
        agent_rows.update(rec.x.tobytes())
        agent_rows.update(rec.y.tobytes())
    assert digest.hexdigest() == "09f527239f430fb49adf6017006992b06f67c8bd3d2325f1e1fbe8522b659c3f"
    assert agent_rows.hexdigest() == "608f42bb809f28182f99c56ea28d5515e63400bdcbee5667284010612e034d48"
    totals = hashlib.sha256(run.policy.v.tobytes() + run.policy.z_acc.tobytes()).hexdigest()
    assert totals == "6a89bf2f48f57874d6a92038874ed5a4a7e5f59285d159dcfd857995ea0a4ac7"
