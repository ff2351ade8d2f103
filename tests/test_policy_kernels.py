"""The array kernels of both online policies against the per-agent,
per-candidate scalar loops they replace, kept here as the reference with
their arithmetic unchanged.

Every comparison is exact (``==``): the kernels perform the same IEEE-754
operations in the same order as the loops.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divsel.benchmark import opt_bounds_from_marginals
from divsel.core import (
    is_core,
    marginals,
    max_over_attributes,
    min_count_at_least_sqrt_d,
)
from divsel.fixed_policy import AgentState, controlled_greedy_round, guess_count, new_fixed_policy, run_fixed_policy
from divsel.generators import gen_fcs, gen_fhc, gen_random
from divsel.unknown_policy import (
    UnknownPolicy,
    _equal_increment_topup,
    forward_round,
    hybrid_round,
    myopic_round,
    run_unknown_policy,
    variant_solution,
    water_fill,
)

from conftest import fill_value, make_instance, make_round

# ---------------------------------------------------------------------------
# Reference: the scalar loops, one agent and one candidate at a time.


class RefAgent:
    def __init__(self, gamma, d, c, capacity, phi_total):
        self.gamma, self.d, self.c, self.capacity, self.phi_total = gamma, d, c, capacity, phi_total
        self.y_used = 0.0
        self.z_used = 0.0
        self.v = [0.0] * d
        self.z_acc = [0.0] * d
        self.consumed_marginal = [0] * d
        self.rows = []
        self.y_rows = []


def ref_greedy(agent, rnd, order):
    target = agent.gamma / math.sqrt(agent.d)
    m = min_count_at_least_sqrt_d(agent.d)
    y_i = [0.0] * len(rnd)
    cands = rnd.candidates  # built once: each access builds every candidate
    for pos in order:
        cand = cands[pos]
        thresholds = []
        for k in cand.bits:
            tau = (target - agent.v[k]) / agent.c[k]
            if tau > 0.0:
                thresholds.append(tau)
        if len(thresholds) < m:
            y_stop = 0.0
        else:
            thresholds.sort(reverse=True)
            y_stop = thresholds[m - 1]
        y = min(1.0, max(0.0, agent.capacity - agent.y_used), y_stop)
        y_i[pos] = y
        if y > 0.0:
            agent.y_used += y
            for k in cand.bits:
                agent.v[k] += agent.c[k] * y
    return y_i


def ref_minimalist(agent, rnd):
    target = agent.gamma / math.sqrt(agent.d)
    counts = rnd.attribute_counts(agent.d)
    z_i = [0.0] * agent.d
    for k in range(agent.d):
        w = agent.v[k] + agent.c[k] * agent.z_acc[k]
        res = agent.c[k] * (agent.phi_total[k] - agent.consumed_marginal[k])
        room = min(float(counts[k]), max(0.0, agent.capacity - agent.z_used))
        z = (target - w - res) / agent.c[k]
        z = min(max(z, 0.0), room)
        z_i[k] = z
        agent.z_used += z
        agent.z_acc[k] += z
    return z_i


def ref_combine(y_i, z_i, rnd, d):
    counts = rnd.attribute_counts(d)
    x_i = []
    for j, cand in enumerate(rnd):
        adj = 0.0
        for k in cand.bits:
            if counts[k] > 0:
                adj = max(adj, z_i[k] / counts[k])
        x_i.append((y_i[j] + adj) / 2.0)
    return x_i


def ref_fixed(inst, seed):
    phi = tuple(marginals(inst))
    under, over = opt_bounds_from_marginals(inst.d, inst.c, inst.capacity, list(phi))
    agents = [
        RefAgent((2.0**r) * under, inst.d, inst.c, inst.capacity, phi)
        for r in range(guess_count(under, over))
    ]
    rows = []
    for index, rnd in enumerate(inst.rounds):
        order = list(range(len(rnd)))
        random.Random((seed * 1_000_003 + index) & 0xFFFFFFFFFFFFFFFF).shuffle(order)
        if not agents:
            rows.append([0.0] * len(rnd))
            continue
        counts = rnd.attribute_counts(inst.d)
        per_agent = []
        for agent in agents:
            for k in range(inst.d):
                agent.consumed_marginal[k] += counts[k]
            y_i = ref_greedy(agent, rnd, order)
            z_i = ref_minimalist(agent, rnd)
            x_i = ref_combine(y_i, z_i, rnd, inst.d)
            agent.rows.append(x_i)
            agent.y_rows.append(list(y_i))
            per_agent.append(x_i)
        denom = float(len(agents))
        rows.append([sum(col) / denom for col in zip(*per_agent)] if len(rnd) else [])
    return rows, agents


def core_set(rnd, d):
    """Positions of core candidates (popcount^2 >= d, exact integer test)."""
    return [j for j, cand in enumerate(rnd) if is_core(cand, d)]


def ref_myopic(d, c, a, rnd):
    if not rnd.candidates:
        return []
    counts = rnd.attribute_counts(d)
    if min(counts) == 0:
        return [0.0] * len(rnd)
    inv_c_sum = math.fsum(1.0 / ck for ck in c)
    alpha = min(min(c[k] * counts[k] for k in range(d)), a / inv_c_sum)
    out = []
    for cand in rnd:
        share = max((alpha / c[k]) / counts[k] for k in cand.bits) if cand.bits else 0.0
        out.append(share)
    return out


class RefForward:
    def __init__(self, d, c, a):
        self.d, self.c, self.a = d, c, a
        self.u = [0.0] * d
        self.y_history = []
        self.z_history = []
        self.f_history = []


def ref_forward(state, rnd):
    d, c, a = state.d, state.c, state.a
    counts = rnd.attribute_counts(d)
    cores = set(core_set(rnd, d))
    y_i = [1.0 if j in cores else 0.0 for j in range(len(rnd))]
    cands = rnd.candidates
    for j in cores:
        for k in cands[j].bits:
            state.u[k] += c[k]
    budget = math.sqrt(d) * a
    z_i = water_fill(state.u, [float(v) for v in counts], budget, list(c))
    state.f_history.append(fill_value(state.u, z_i, list(c)))
    total_count = sum(counts)
    y_scale = min(1.0, a / (total_count / math.sqrt(d))) if total_count > 0 else 0.0
    two_sqrt_d = 2.0 * math.sqrt(d)
    x_i = []
    for j, cand in enumerate(rnd):
        y_part = (y_i[j] / 2.0) * y_scale
        z_part = 0.0
        for k in cand.bits:
            if counts[k] > 0:
                z_part = max(z_part, z_i[k] / counts[k])
        x_i.append(y_part + z_part / two_sqrt_d)
    for k in range(d):
        state.u[k] += c[k] * z_i[k]
    state.y_history.append(tuple(y_i))
    state.z_history.append(tuple(z_i))
    return y_i, z_i, x_i


def ref_topup(x_i, budget):
    if not x_i or budget <= 0.0:
        return list(x_i)
    order = sorted(range(len(x_i)), key=lambda j: 1.0 - x_i[j])
    result = list(x_i)
    remaining = budget
    base = 0.0
    for rank, j in enumerate(order):
        headroom = (1.0 - x_i[j]) - base
        active = len(x_i) - rank
        if headroom * active >= remaining - 1e-15:
            base += remaining / active
            for jj in order[rank:]:
                result[jj] = min(1.0, x_i[jj] + base)
            return result
        base += headroom
        remaining -= headroom * active
        result[j] = 1.0
    return result


# The array kernels as they were before their fast paths (the short
# water-fill sweep, the top-up shortcut, the Python-float survivor step),
# kept verbatim as the oracles of those paths.


def full_sweep_water_fill(u, caps, budget, c, continue_after_cap=False):
    """``water_fill`` over all 2d sorted events, in both modes."""
    u, caps, c = (np.asarray(v, dtype=float) for v in (u, caps, c))
    if not u.size or budget <= 0.0:
        return [0.0] * u.size
    events = np.concatenate([u, u + c * caps])
    is_cap = np.arange(2 * u.size) >= u.size
    order = np.lexsort((is_cap, events))
    steps = np.concatenate([1.0 / c, -1.0 / c])[order].tolist()
    level, used, slope = float(events[order[0]]), 0.0, 0.0
    for event, capped, step in zip(events[order].tolist(), is_cap[order].tolist(), steps):
        if used + slope * (event - level) >= budget:
            level += (budget - used) / slope
            break
        used += slope * (event - level)
        level = event
        if capped and not continue_after_cap:
            break
        slope += step
    return np.minimum(caps, np.maximum(0.0, (level - u) / c)).tolist()


def event_consumptions(u, caps, c):
    """The consumption the stop-at-first-cap sweep reaches at each event it
    visits: a budget equal to one of them lands exactly on that event."""
    u, caps, c = (np.asarray(v, dtype=float) for v in (u, caps, c))
    events = np.concatenate([u, u + c * caps])
    is_cap = np.arange(2 * u.size) >= u.size
    order = np.lexsort((is_cap, events))
    steps = np.concatenate([1.0 / c, -1.0 / c])[order].tolist()
    level, used, slope, out = float(events[order[0]]), 0.0, 0.0, []
    for event, capped, step in zip(events[order].tolist(), is_cap[order].tolist(), steps):
        out.append(used + slope * (event - level))
        used += slope * (event - level)
        level = event
        if capped:
            break
        slope += step
    return out


def full_loop_topup(x_i, budget):
    """``_equal_increment_topup`` with every row sorted, rank 0 included."""
    if not x_i.size or budget <= 0.0:
        return x_i
    order = np.argsort(1.0 - x_i, kind="stable")
    remaining = budget
    base = 0.0
    for rank, j in enumerate(order.tolist()):
        headroom = (1.0 - x_i[j]) - base
        active = order.size - rank
        if headroom * active >= remaining - 1e-15:
            base += remaining / active
            break
        base += headroom
        remaining -= headroom * active
    else:
        return np.ones(order.size)
    result = np.minimum(1.0, x_i + base)
    result[order[:rank]] = 1.0
    return result


def array_step_greedy_round(agents, v, target, c, rnd, order):
    """``controlled_greedy_round`` with its survivor step on numpy arrays."""
    n = len(rnd)
    y = np.zeros((len(agents), n))
    live = np.array([agent.capacity - agent.y_used > 0.0 for agent in agents], dtype=bool)
    member = np.zeros((v.shape[1], n))
    member[rnd.bits, np.repeat(np.arange(n), rnd.lens)] = 1.0
    m = min_count_at_least_sqrt_d(v.shape[1])
    survives = ((v < target[:, None]) & live[:, None]) @ member >= m
    rows, cols = (index.tolist() for index in np.nonzero(survives))
    if len(set(rows)) < len(rows):
        visit = np.asarray(order(), dtype=np.int64)
        rows, steps = np.nonzero(survives[:, visit])
        rows, cols = rows.tolist(), visit[steps].tolist()
    for a, j in zip(rows, cols):
        agent = agents[a]
        bits = rnd.bits[rnd.starts[j] : rnd.starts[j] + rnd.lens[j]]
        tau = (target[a] - v[a, bits]) / c[bits]
        tau = tau[tau > 0.0]
        y_stop = float(np.sort(tau)[-m]) if tau.size >= m else 0.0
        step = min(1.0, max(0.0, agent.capacity - agent.y_used), y_stop)
        y[a, j] = step
        if step > 0.0:
            agent.y_used += step
            v[a, bits] += c[bits] * step
    return y


# ---------------------------------------------------------------------------
# Instances.


def _edge_instance():
    """An empty round and candidates without attributes, next to ordinary ones."""
    return make_instance(
        3,
        [[(0, 1), (), (2,)], [], [(0,), (1, 2), ()], [(0, 1, 2), (0, 1, 2)], [()]],
        capacity=5,
        c=[1.0, 1.5, 2.5],
        a=1,
    )


def _capacity_one_instance():
    """K = 1: stage 2 of one agent uses up K in the last round after raising
    dimension 1 and while raising dimension 2."""
    return make_instance(3, [[(1,)], [(), ()], [(0,)], [(1,), (2,)]], capacity=1, c=[1.0, 1.57, 1.04])


def _quiet_then_adjust_instance():
    """Single-attribute candidates never pass stage 1 (m = 2), and stage 2
    first fires in round 18, when the unseen arrivals run short."""
    return make_instance(4, [[(0,), (1,), (2,), (3,)]] * 20, capacity=8, c=[1.0, 1.5, 1.0, 3.0])


def _raise_and_adjust_instance():
    """Round 0 raises a candidate and adjusts dimensions: stage 2 must read
    the totals after that raise."""
    return make_instance(4, [[(0, 1, 2, 3)], []], capacity=2, c=[3.0, 1.5, 1.0, 1.5])


def _adjust_after_adjust_instance():
    """Stage 2 adjusts in rounds 2 and 3, the second only partly closing a
    shortfall that includes the first's adjustments."""
    return make_instance(
        3, [[(0,), (0, 2), ()], [(1,), (0, 1, 2), (2,)], [(), (0, 1)], [(), (0, 1, 2)]],
        capacity=5, c=[2.9, 1.0, 1.3],
    )


INSTANCES = {
    **{f"random-d64-seed{s}": gen_random(d=64, n=25, a=4, density=0.2, min_arrivals=1, c_max=2.0, seed=s)
       for s in (1, 2)},
    **{f"random-d{d}-seed1": gen_random(d=d, n=4, a=4, density=0.1, min_arrivals=1, c_max=2.0, seed=1)
       for d in (256, 1024)},
    **{f"fcs27-{i}": inst for i, inst in enumerate(gen_fcs(27))},
    **{f"fhc27-{i}": inst for i, inst in enumerate(gen_fhc(27))},
    "edge": _edge_instance(),
    "capacity-one": _capacity_one_instance(),
    "quiet-then-adjust": _quiet_then_adjust_instance(),
    "raise-and-adjust": _raise_and_adjust_instance(),
    "adjust-after-adjust": _adjust_after_adjust_instance(),
}


# ---------------------------------------------------------------------------
# Tests.


class TestMaxOverAttributes:
    def test_vector(self):
        rnd = make_round(3, ((0, 2), (), (1,), ()))
        out = max_over_attributes([1.0, 5.0, 3.0], rnd)
        assert out.tolist() == [3.0, 0.0, 5.0, 0.0]

    def test_matrix_rows_are_independent(self):
        rnd = make_round(3, ((), (0, 1), (2,)))
        values = np.array([[1.0, 5.0, 3.0], [4.0, 0.5, 0.25]])
        out = max_over_attributes(values, rnd)
        assert out.tolist() == [[0.0, 5.0, 3.0], [0.0, 4.0, 0.25]]

    def test_empty_round(self):
        rnd = make_round(4, ())
        assert rnd.counts.tolist() == [0, 0, 0, 0]
        assert max_over_attributes(np.ones(4), rnd).shape == (0,)
        assert max_over_attributes(np.ones((3, 4)), rnd).shape == (3, 0)

    def test_only_attributeless_candidates(self):
        rnd = make_round(2, ((),) * 2)
        assert max_over_attributes([7.0, 8.0], rnd).tolist() == [0.0, 0.0]

    def test_incidence_layout(self):
        rnd = make_round(4, ((1, 3), (), (0, 1, 3)))
        assert rnd.counts.tolist() == rnd.attribute_counts(4) == [1, 2, 0, 2]
        assert rnd.bits.tolist() == [1, 3, 0, 1, 3]
        assert rnd.lens.tolist() == [2, 0, 3]
        assert rnd.starts.tolist() == [0, 2, 2]


def assert_fixed_matches_ref(inst, seed):
    policy = run_fixed_policy(inst, seed)
    rows, agents = ref_fixed(inst, seed)
    assert [rec.emitted.tolist() for rec in policy.trace] == rows
    assert len(policy.agents) == len(agents)
    for index, (got, want) in enumerate(zip(policy.agents, agents)):
        assert got.gamma == want.gamma
        assert (got.y_used, got.z_used) == (want.y_used, want.z_used)
        assert [rec.x[index].tolist() for rec in policy.trace] == want.rows
        assert [rec.y[index].tolist() for rec in policy.trace] == want.y_rows
        assert policy.v[index].tolist() == want.v


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_fixed_policy_matches_scalar_loops(name):
    for seed in (0, 5):
        assert_fixed_matches_ref(INSTANCES[name], seed)


@st.composite
def small_fixed_instances(draw):
    """Few dimensions, a handful of equal weights (tied thresholds), short
    and empty candidates, empty rounds and capacities from 0 to 4."""
    d = draw(st.integers(1, 9))
    c = draw(st.lists(st.sampled_from([1.0, 1.5, 3.0]), min_size=d, max_size=d))
    c = [ck / min(c) for ck in c]  # an instance's smallest weight is 1
    cand = st.lists(st.integers(0, d - 1), unique=True, max_size=d)
    rounds = draw(st.lists(st.lists(cand, max_size=6), max_size=5))
    return make_instance(d, rounds, draw(st.integers(0, 4)), c=c)


@settings(max_examples=150, deadline=None)
@given(small_fixed_instances(), st.integers(0, 3))
# The one agent (gamma = K = 2) uses up K on the second candidate of round 0,
# with a third still to visit, and skips stage 1 in round 1.
@example(make_instance(1, [[(0,), (0,), (0,)], [(), (0,)]], capacity=2), 0)
# Equal weights and identical candidates: every threshold of a round ties.
@example(make_instance(4, [[(0, 1, 2), (0, 1, 2), (1, 2, 3)]] * 2, capacity=4), 1)
# m = 3: candidates with fewer than m attributes or with none.
@example(make_instance(9, [[tuple(range(9)), (0, 1), (), (4,)], [(), (2, 5, 8)]], capacity=3), 2)
# Empty rounds around ordinary ones.
@example(make_instance(2, [[], [(0, 1)], [], [(0,), (1,)], []], capacity=2), 0)
# Dimension 1 never arrives: OPT's lower bound is 0 and there are no agents.
@example(make_instance(2, [[(0,), (0,)], [(0,)]], capacity=2), 3)
def test_fixed_policy_matches_scalar_loops_on_small_instances(inst, seed):
    assert_fixed_matches_ref(inst, seed)


@st.composite
def greedy_cases(draw):
    """(d, c, K, per-agent (gamma, y_used, v), candidate bits, order)."""
    d = draw(st.integers(1, 9))
    c = tuple(draw(st.lists(st.sampled_from([1.0, 1.5, 3.0]), min_size=d, max_size=d)))
    capacity = draw(st.integers(0, 4))
    values = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    starts = draw(st.lists(
        st.tuples(st.sampled_from([0.5, 1.0, 3.0, 8.0, 40.0]), st.sampled_from([0.0, 0.5, 1.0, 3.5]),
                  st.lists(values, min_size=d, max_size=d)),
        max_size=4))
    bits = draw(st.lists(st.lists(st.integers(0, d - 1), unique=True, max_size=d), max_size=6))
    order = draw(st.permutations(range(len(bits))))
    return d, c, capacity, starts, bits, order


@settings(max_examples=200, deadline=None)
@given(greedy_cases())
# gamma/sqrt(d) - v = 2^-1074 > 0, but divided by c = 3 it underflows to 0:
# the round-start screen keeps the candidate, and the scalar step raises
# nothing and leaves v and y_used alone.
@example((1, (3.0,), 1, [(2.0**-1073, 0.0, [2.0**-1074])], [[0]], [0]))
def test_controlled_greedy_round_matches_ref_greedy(case):
    """Stage 1 alone, from arbitrary guesses, totals and used capacity.

    Inside the policy a guess never exceeds its sandwich, so stage 1 uses at
    most K and the capacity binds only together with a threshold; large
    guesses here make it bind first, part-way through a raise.
    """
    d, c, capacity, starts, bits, order = case
    rnd = make_round(d, bits)
    agents = [AgentState(gamma, capacity, y_used=used) for gamma, used, _ in starts]
    v = np.array([v0 for *_, v0 in starts]).reshape(len(starts), d)
    target = np.array([gamma / math.sqrt(d) for gamma, *_ in starts])
    drawn = []
    y = controlled_greedy_round(
        agents, v, target, np.asarray(c), rnd, lambda: drawn.append(1) or list(order)
    )
    assert y.shape == (len(starts), len(rnd))
    for got, row, got_v, (gamma, used, v0) in zip(agents, y, v, starts):
        want = RefAgent(gamma, d, c, capacity, None)
        want.y_used, want.v = used, list(v0)
        assert row.tolist() == ref_greedy(want, rnd, order)
        assert got.y_used == want.y_used
        assert got_v.tolist() == want.v
    assert len(drawn) <= 1  # one shared order per round, drawn only on demand


def test_capacity_runs_out_inside_a_round():
    """The capacity-one instance exercises the order-dependent clip of stage 2."""
    inst = INSTANCES["capacity-one"]
    _, agents = ref_fixed(inst, 0)
    last = [agent.z_acc for agent in agents if agent.z_used == inst.capacity]
    assert last and all(0.0 < z_k for z_k in last[0][1:])


def _stages(name):
    """Per round: did stage 1 raise anything, did stage 2 move any x."""
    trace = run_fixed_policy(INSTANCES[name], 0).trace
    return [bool(rec.y.any()) for rec in trace], [bool((rec.x != rec.y / 2.0).any()) for rec in trace]


def test_gate_instances_exercise_their_cases():
    raised, adjusted = _stages("quiet-then-adjust")
    assert adjusted.index(True) == 18 and not any(raised)
    raised, adjusted = _stages("raise-and-adjust")
    assert raised[0] and adjusted[0]
    _, adjusted = _stages("adjust-after-adjust")
    assert adjusted[2:] == [True, True]


def test_zero_agents_emit_zeros():
    inst = make_instance(2, [[(0,), (0,)], [(0,)]], capacity=2)  # phi_1 = 0
    policy = run_fixed_policy(inst, 3)
    assert policy.agents == []
    assert [rec.emitted.tolist() for rec in policy.trace] == ref_fixed(inst, 3)[0] == [[0.0, 0.0], [0.0]]


UC_INSTANCES = sorted(n for n, inst in INSTANCES.items() if inst.per_round_capacity)


@pytest.mark.parametrize("name", UC_INSTANCES)
def test_unknown_policy_matches_scalar_loops(name):
    inst = INSTANCES[name]
    d, c, a = inst.d, inst.c, inst.per_round_capacity
    u, ref_state = np.zeros(d), RefForward(d, c, a)
    policy = UnknownPolicy(d=d, c=c, a=a, variant="hybrid")
    for rnd in inst.rounds:
        x_bar = ref_myopic(d, c, a, rnd)
        assert myopic_round(c, a, rnd).tolist() == x_bar
        _, _, x_hat = ref_forward(ref_state, rnd)
        y, z, x, f, u = forward_round(u, c, a, rnd)
        assert (y.tolist(), z.tolist(), x.tolist(), f) == (
            list(ref_state.y_history[-1]),
            list(ref_state.z_history[-1]),
            x_hat,
            ref_state.f_history[-1],
        )
        assert policy.process_round(rnd) == hybrid_round(x_bar, x_hat).tolist()
    assert [tuple(rec.y.tolist()) for rec in policy.trace] == ref_state.y_history
    assert [tuple(rec.z.tolist()) for rec in policy.trace] == ref_state.z_history
    assert [rec.f for rec in policy.trace] == ref_state.f_history
    for got in (u, policy.u):
        assert got.tolist() == ref_state.u


@pytest.mark.parametrize("name", UC_INSTANCES)
def test_one_pass_yields_every_variant(name):
    """The plain rows in the trace of a top-up pass are the rows of separate
    passes without top-up: the top-up never feeds back."""
    inst = INSTANCES[name]
    one_pass = run_unknown_policy(inst, variant="hybrid", topup=True)
    for variant in ("myopic", "forward", "hybrid"):
        separate = run_unknown_policy(inst, variant=variant)
        assert variant_solution(one_pass, variant).x == tuple(
            tuple(rec.emitted.tolist()) for rec in separate.trace
        )


def test_core_update_adds_one_attribute_at_a_time(monkeypatch):
    """``forward_round`` enters core candidates into u with ``np.add.at``:
    c_k once per core attribute, in arrival order, as the scalar loop does.
    Adding count * c_k at once would differ here in the last bits."""
    from divsel import unknown_policy

    c = (1.0, 1.1, 1.3, 1.7)
    ref_state = RefForward(4, c, 1)
    first = make_round(4, ((0, 1), (1, 2, 3)))
    u = forward_round(np.zeros(4), c, 1, first)[-1]
    ref_forward(ref_state, first)
    u0 = u.tolist()
    rnd = make_round(4, ((1, 2, 3),) * 5 + ((0,),) + ((0, 1, 3),) * 3)
    sequential = list(u0)
    for cand in rnd:
        if len(cand.bits) ** 2 >= 4:
            for k in cand.bits:
                sequential[k] += c[k]
    counts = [3, 8, 5, 8]
    assert sequential != [u0[k] + counts[k] * c[k] for k in range(4)]

    seen = []
    real = unknown_policy.water_fill

    def recording(u, *args, **kwargs):
        seen.append(list(u))
        return real(u, *args, **kwargs)

    monkeypatch.setattr(unknown_policy, "water_fill", recording)
    y, _, _, _, u = forward_round(u, c, 1, rnd)
    assert seen == [sequential]
    assert y.tolist() == [1.0] * 5 + [0.0] + [1.0] * 3
    ref_forward(ref_state, rnd)
    assert u.tolist() == ref_state.u


def _empty_round_instance():
    """Empty rounds after, between and before ordinary ones, with unequal
    weights so the level min(u) is not a tie at 0."""
    return make_instance(
        4,
        [[(0, 1, 2), (3,)], [], [], [(0, 1), (1, 2, 3)], [], [(2,), ()], []],
        capacity=14,
        c=[1.0, 1.3, 2.0, 1.7],
        a=2,
    )


def test_forward_round_on_empty_rounds_matches_scalar_loop(monkeypatch):
    """The early return for a round without candidates gives the bytes the
    full arithmetic gives: y and x empty, z = 0, f = min(u), u unchanged."""
    from divsel import unknown_policy

    inst = _empty_round_instance()
    d, c, a = inst.d, inst.c, inst.per_round_capacity
    fills = []
    real = unknown_policy.water_fill
    monkeypatch.setattr(unknown_policy, "water_fill", lambda *args, **kw: fills.append(1) or real(*args, **kw))
    u, ref_state = np.zeros(d), RefForward(d, c, a)
    for rnd in inst.rounds:
        y, z, x, f, u = forward_round(u, c, a, rnd)
        ref_y, ref_z, ref_x = ref_forward(ref_state, rnd)
        assert y.tobytes() == np.array(ref_y, dtype=float).tobytes()
        assert z.tobytes() == np.array(ref_z, dtype=float).tobytes()
        assert x.tobytes() == np.array(ref_x, dtype=float).tobytes()
        assert np.float64(f).tobytes() == np.float64(ref_state.f_history[-1]).tobytes()
        assert u.tobytes() == np.array(ref_state.u).tobytes()
        if not len(rnd):
            assert z.shape == (d,) and f == min(u) > 0.0
    assert len(fills) == sum(len(rnd) > 0 for rnd in inst.rounds) == 3


@pytest.mark.parametrize("topup", [False, True])
def test_process_round_on_empty_rounds_matches_scalar_loops(topup):
    """Every trace record and the state after each round equal the scalar
    loops', with and without top-up (which spends the capacity the empty
    rounds bank)."""
    inst = _empty_round_instance()
    d, c, a = inst.d, inst.c, inst.per_round_capacity
    policy = UnknownPolicy(d=d, c=c, a=a, variant="hybrid", topup_enabled=topup)
    ref_state = RefForward(d, c, a)
    emitted_total = 0.0
    for i, rnd in enumerate(inst.rounds):
        x_bar = ref_myopic(d, c, a, rnd)
        _, _, x_hat = ref_forward(ref_state, rnd)
        row = hybrid_round(x_bar, x_hat).tolist()
        if topup:
            row = ref_topup(row, (i + 1) * a - emitted_total - math.fsum(row))
        emitted_total += math.fsum(row)
        assert policy.process_round(rnd) == row
        rec = policy.trace[-1]
        assert rec.x_bar.tobytes() == np.array(x_bar, dtype=float).tobytes()
        assert rec.x_hat.tobytes() == np.array(x_hat, dtype=float).tobytes()
        assert rec.y.tobytes() == np.array(ref_state.y_history[-1], dtype=float).tobytes()
        assert rec.z.tobytes() == np.array(ref_state.z_history[-1], dtype=float).tobytes()
        assert rec.emitted.tobytes() == np.array(row, dtype=float).tobytes()
        assert np.float64(rec.f).tobytes() == np.float64(ref_state.f_history[-1]).tobytes()
        assert policy.u.tobytes() == np.array(ref_state.u).tobytes()
        assert (policy.round_index, policy.emitted_total) == (i + 1, emitted_total)
    if topup:  # the banked capacity was spent after the empty rounds
        plain = run_unknown_policy(inst)
        assert policy.trace[3].emitted.sum() > plain.trace[3].emitted.sum()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9, 1.0 - 2**-53, 1.0]) | st.floats(0.0, 1.0), max_size=12),
    st.floats(-1.0, 20.0),
)
# Ties, and a stop after three entries reach 1.
@example([0.9, 0.5, 0.9, 0.0], 1.5)
# Every headroom is used up before the budget.
@example([0.5, 1.0], 5.0)
# The budget fits at rank 0: every entry rises by budget / n.
@example([0.25, 0.1, 0.5], 0.3)
def test_topup_matches_scalar_loop(x, budget):
    got = _equal_increment_topup(np.array(x, dtype=float), budget)
    assert got.tobytes() == np.array(ref_topup(x, budget), dtype=float).tobytes()


# ---------------------------------------------------------------------------
# The fast paths against the array kernels they replace, bit for bit.


@st.composite
def fill_cases(draw):
    """(u, caps, c, budget): tied levels, zero caps (no arrivals), equal
    caps, d = 1, and budgets that land exactly on a visited event."""
    d = draw(st.integers(1, 10))
    level = st.sampled_from([0.0, 0.5, 1.0, 2.5]) | st.floats(0.0, 5.0)
    u = draw(st.lists(level, min_size=d, max_size=d))
    cap = st.sampled_from([0.0, 1.0, 2.0, 3.0])
    if draw(st.booleans()):
        caps = [draw(cap)] * d
    else:
        caps = draw(st.lists(cap | st.floats(0.0, 4.0), min_size=d, max_size=d))
    c = draw(st.lists(st.sampled_from([1.0, 1.5, 3.0]) | st.floats(1.0, 3.0), min_size=d, max_size=d))
    if draw(st.booleans()):
        budget = draw(st.sampled_from(event_consumptions(u, caps, c)))
    else:
        budget = draw(st.floats(-1.0, 4.0 * d))
    return u, caps, c, budget


@settings(max_examples=400, deadline=None)
@given(fill_cases())
# d = 1: the join, then its own cap.
@example(([0.5], [2.0], [1.5], 1.0))
# Tied levels and equal caps: every join and every cap event ties.
@example(([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [1.0, 1.5, 3.0], 2.5))
# A zero cap (no arrivals) ties with its own join at the lowest level.
@example(([0.0, 0.0, 2.5], [0.0, 3.0, 1.0], [1.0, 1.0, 1.5], 4.0))
# The budget lands exactly on the second join.
@example(([0.0, 1.0, 4.0], [4.0, 4.0, 4.0], [1.0, 1.0, 1.0], 1.0))
def test_short_sweep_matches_the_full_sweep(case):
    u, caps, c, budget = case
    for continue_after_cap in (False, True):
        got = water_fill(np.array(u), np.array(caps), budget, np.array(c), continue_after_cap)
        want = full_sweep_water_fill(u, caps, budget, c, continue_after_cap)
        assert got.tobytes() == np.array(want, dtype=float).tobytes()


@st.composite
def topup_cases(draw):
    """(row, budget), with the budget on, just below or just above the
    point where the largest entry would clip, so both the shortcut and the
    sorted loop (rank > 0) run."""
    x = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9, 1.0 - 2**-53, 1.0]) | st.floats(0.0, 1.0),
        min_size=1, max_size=12)))
    fits = (1.0 - float(x.max())) * x.size
    budget = draw(st.sampled_from([fits, fits + 1e-15, np.nextafter(fits, 2.0), fits * 1.5 + 0.01])
                  | st.floats(-1.0, 20.0))
    return x, float(budget)


@settings(max_examples=400, deadline=None)
@given(topup_cases())
# Exactly at the clip point: the shortcut's >= holds.
@example((np.array([0.5, 0.25, 0.0]), 1.5))
# One entry clips first (rank 1 breaks).
@example((np.array([0.9, 0.0, 0.0]), 1.0))
# Every headroom is used up.
@example((np.array([0.5, 1.0]), 5.0))
def test_topup_shortcut_matches_the_full_loop(case):
    x, budget = case
    assert _equal_increment_topup(x, budget).tobytes() == full_loop_topup(x, budget).tobytes()


@settings(max_examples=300, deadline=None)
@given(greedy_cases())
# Capacity runs out on the second candidate of three, part-way through a raise.
@example((1, (1.0,), 2, [(40.0, 0.5, [0.0])], [[0], [0], [0]], [2, 0, 1]))
# tau = 0: the first raise lifts v to the target, so the second candidate,
# which survived the round-start screen, meets tau = 0 and stays at 0.
@example((1, (1.0,), 4, [(1.0, 0.0, [0.0])], [[0], [0]], [0, 1]))
# An exhausted agent (y_used = K) next to a live one.
@example((1, (1.5,), 1, [(8.0, 1.0, [0.0]), (8.0, 0.0, [0.0])], [[0], [0]], [1, 0]))
def test_python_float_step_matches_the_array_step(case):
    d, c, capacity, starts, bits, order = case
    rnd = make_round(d, bits)
    runs = []
    for kernel in (controlled_greedy_round, array_step_greedy_round):
        agents = [AgentState(gamma, capacity, y_used=used) for gamma, used, _ in starts]
        v = np.array([v0 for *_, v0 in starts], dtype=float).reshape(len(starts), d)
        target = np.array([gamma / math.sqrt(d) for gamma, *_ in starts])
        drawn = []
        y = kernel(agents, v, target, np.asarray(c), rnd, lambda: drawn.append(1) or list(order))
        runs.append((y.tobytes(), v.tobytes(), [agent.y_used for agent in agents], len(drawn)))
    assert runs[0] == runs[1]


def test_policies_share_one_rounds_arrays(monkeypatch):
    """Both policies fed the same ``Round`` read the index arrays it built
    once: one ``bincount`` per round between the view and both policies, and
    arrays that neither can write into."""
    inst = gen_random(d=8, n=6, a=2, density=0.4, min_arrivals=1, c_max=2.0, seed=2)
    policies = [
        new_fixed_policy(inst.d, inst.c, inst.capacity, marginals(inst), 0),
        UnknownPolicy(d=inst.d, c=inst.c, a=inst.per_round_capacity, topup_enabled=True),
    ]
    calls, real = [], np.bincount
    monkeypatch.setattr(np, "bincount", lambda *args, **kw: calls.append(1) or real(*args, **kw))
    for i, rnd in enumerate(inst.rounds):
        for policy in policies:
            policy.process_round(rnd)
        assert len(calls) == i + 1
        for arr in (rnd.bits, rnd.lens, rnd.starts, rnd.counts):
            with pytest.raises(ValueError):
                arr[...] = 0
    assert any(rec.x.any() for rec in policies[0].trace)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_cached_screen_matches_a_fresh_one(monkeypatch, name):
    """After every round the principal's cached screen equals the one the
    stage-1 kernel computes from the agents, and stage 1 runs exactly in the
    rounds where some candidate survives that screen."""
    from divsel import fixed_policy

    inst = INSTANCES[name]
    policy = fixed_policy.new_fixed_policy(inst.d, inst.c, inst.capacity, marginals(inst), 0)
    calls, real = [], fixed_policy.controlled_greedy_round
    monkeypatch.setattr(fixed_policy, "controlled_greedy_round", lambda *args: calls.append(1) or real(*args))
    for rnd in inst.rounds:
        before = len(calls)
        fresh = fixed_policy._below(policy.agents, policy.v, policy.target)
        survives = fixed_policy._survivors(fresh, rnd).any()
        policy.process_round(rnd)
        assert len(calls) - before == int(survives)
        assert policy.below.tobytes() == fixed_policy._below(policy.agents, policy.v, policy.target).tobytes()
