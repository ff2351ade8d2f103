"""Higher-level policy for the fixed-capacity scenario.

A principal spawns one agent per guessed optimum value (geometric guesses
spanning the closed-form optimum sandwich).  Each round, every agent runs a
controlled greedy pass over the candidates in a shared random order, then a
continuous minimalist pass over the dimensions, and combines the two into a
per-round fraction; the principal emits the across-agent average.

Both "continuous increase" processes are piecewise linear, so they are
realized here as exact closed-form event computations, never time-stepped.
Every stage runs for all agents at once on arrays.  The greedy pass is
sequential in the shared order, but a candidate can only be raised if, at the
start of the round, at least sqrt(d) of its thresholds are positive: one
agents x attributes array screens out every other candidate, and only the
survivors go through the scalar step, one at a time.  The minimalist and
combine steps are closed forms per dimension and per candidate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .benchmark import opt_bounds_from_marginals
from .core import (
    EPS,
    Instance,
    Round,
    RoundIncidence,
    marginals,
    max_over_attributes,
    min_count_at_least_sqrt_d,
    round_incidence,
    solution_from_rows,
)
from .errors import DimensionError


def guess_count(under: float, over: float) -> int:
    """Number of geometric guesses covering [under, over].

    ceil(log2(over/under)) is 0 when the sandwich is tight; one agent with
    gamma = under still covers that case, hence the floor of 1.  A ratio that
    is an exact power of two is snapped before the ceiling to avoid float
    drift.
    """
    if under <= 0.0:
        return 0
    ratio = over / under
    if ratio <= 1.0:
        return 1
    lg = math.log2(ratio)
    rounded = round(lg)
    if abs(lg - rounded) < 1e-9:
        lg = rounded
    return max(1, math.ceil(lg))


@dataclass
class AgentState:
    """Per-guess running state across the horizon: the stage-1 and stage-2
    mass used so far.

    The per-dimension totals of all agents are agents x d arrays on the
    principal (``FixedPolicy.v`` for stage 1, ``FixedPolicy.z_acc`` for
    stage 2); the per-round rows of all agents are in the principal's trace.
    """

    gamma: float
    d: int
    c: tuple[float, ...]
    capacity: int
    y_used: float = 0.0
    z_used: float = 0.0


def controlled_greedy_round(
    agents: list[AgentState], v: np.ndarray, inc: RoundIncidence, order: list[int]
) -> np.ndarray:
    """Stage 1 of every agent at once: raise each candidate's fraction while
    it still benefits at least sqrt(d) underrepresented dimensions; returns
    the agents x n_i array y and updates ``v`` (agents x d, c_k times the sum
    of y on dimension k) and each agent's ``y_used``.

    For candidate j the thresholds tau_k = (gamma/sqrt(d) - v_k)/c_k over its
    attributes with tau_k > 0 are the exits from the underrepresented set; the
    raise stops at the m-th largest threshold (m = least integer with
    m^2 >= d), at 1, or at the capacity, whichever is smallest.  Candidates
    are visited in ``order``.

    Within a round every v_k only grows (c_k > 0 and y > 0), so a candidate's
    count of positive thresholds can only fall as the round goes on.  The
    thresholds at the start of the round, one agents x |bits| array, thus
    screen out exactly the candidates that end at y = 0: those with fewer than
    m positive ones.  The scalar step runs on the survivors alone, against
    the current v.  An agent whose y_used has reached K raises nothing.
    """
    y = np.zeros((len(agents), inc.lens.size))
    live = [a for a, agent in enumerate(agents) if agent.capacity - agent.y_used > 0.0]
    if not live or not inc.bits.size:
        return y
    first = agents[0]
    c = np.asarray(first.c)
    m = min_count_at_least_sqrt_d(first.d)
    target = np.array([agents[a].gamma / math.sqrt(first.d) for a in live])
    nonempty = inc.lens > 0
    positive = (target[:, None] - v[live][:, inc.bits]) / c[inc.bits] > 0.0
    survives = np.zeros((len(live), inc.lens.size), dtype=bool)
    survives[:, nonempty] = (
        np.add.reduceat(positive, inc.starts[nonempty], axis=1, dtype=np.int64) >= m
    )
    # Row-major nonzero over the columns in visiting order: each agent's
    # survivors, agent by agent, in the shared order.
    order = np.asarray(order, dtype=np.int64)
    rows, steps = np.nonzero(survives[:, order])
    for r, j in zip(rows.tolist(), order[steps].tolist()):
        a, agent = live[r], agents[live[r]]
        bits = inc.bits[inc.starts[j] : inc.starts[j] + inc.lens[j]]
        tau = (target[r] - v[a, bits]) / c[bits]
        tau = tau[tau > 0.0]
        y_stop = float(np.sort(tau)[-m]) if tau.size >= m else 0.0
        step = min(1.0, max(0.0, agent.capacity - agent.y_used), y_stop)
        y[a, j] = step
        if step > 0.0:
            agent.y_used += step
            v[a, bits] += c[bits] * step
    return y


def continuous_minimalist_round(
    agents: list[AgentState],
    v: np.ndarray,
    z_acc: np.ndarray,
    unseen: np.ndarray,
    inc: RoundIncidence,
) -> np.ndarray:
    """Stage 2 of every agent at once: per-dimension utility adjustments, in
    index order; returns them as an agents x d array.

    Requires stage 1 of this round to be applied already to ``v`` (the
    accumulated utility w = v + c z_acc counts y through the current round, z
    only before it).  ``z_acc`` holds each agent's adjustments of past rounds
    and gains this round's; ``unseen`` is phi_k minus the arrivals through
    this round.
    The adjustment stops when the dimension's maximal achievable
    end-of-horizon utility reaches the scaled guess, at the round arrival
    count, or at the capacity, in closed form.  All agents share d, c and K.
    """
    first = agents[0]
    c = np.asarray(first.c)
    target = np.array([agent.gamma / math.sqrt(first.d) for agent in agents])
    w = v + c * z_acc
    res = c * unseen
    z = np.minimum(np.maximum((target[:, None] - w - res) / c, 0.0), inc.counts)
    # Only the capacity clip depends on index order.  A zero entry would add
    # 0.0 and leave z and z_used as they are, so the nonzero ones suffice.
    rows, cols = np.nonzero(z)
    clipped = []
    for a, zk in zip(rows.tolist(), z[rows, cols].tolist()):
        agent = agents[a]
        zk = min(zk, max(0.0, first.capacity - agent.z_used))
        agent.z_used += zk
        clipped.append(zk)
    z[rows, cols] = clipped
    z_acc += z
    return z


def combine_agent_round(y, z, inc: RoundIncidence) -> np.ndarray:
    """Stage 3: x_j = [y_j + max_k z_k t_jk / phi_k(R_i)] / 2 (0/0 -> 0), for
    one agent's vectors or every agent's rows at once."""
    # A dimension without arrivals belongs to no candidate, so its quotient
    # is never read; dividing it by 1 keeps it finite.
    share = np.asarray(z, dtype=float) / np.maximum(inc.counts, 1)
    return (np.asarray(y, dtype=float) + max_over_attributes(share, inc)) / 2.0


@dataclass(frozen=True, slots=True)
class FixedRound:
    """What one round of the fixed-capacity principal computed: every
    agent's combined row ``x`` and stage-1 row ``y`` (agents x n_i) and the
    emitted across-agent average."""

    x: np.ndarray
    y: np.ndarray
    emitted: np.ndarray


@dataclass
class FixedPolicy:
    """Principal driving all agents; emits the per-round across-agent average
    and keeps one ``FixedRound`` per processed round in ``trace``."""

    d: int
    c: tuple[float, ...]
    capacity: int
    phi_total: tuple[int, ...]
    seed: int
    under: float = field(init=False)
    over: float = field(init=False)
    agents: list[AgentState] = field(init=False)
    v: np.ndarray = field(init=False)  # agents x d: c_k times the sum of y_ij on dim k
    z_acc: np.ndarray = field(init=False)  # agents x d: sum over past rounds of z_ik
    consumed: np.ndarray = field(init=False)  # arrivals seen so far, per dimension
    trace: list[FixedRound] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.phi_total) != self.d:
            raise DimensionError(f"marginals length {len(self.phi_total)} != d={self.d}")
        self.under, self.over = opt_bounds_from_marginals(
            self.d, self.c, self.capacity, list(self.phi_total)
        )
        count = guess_count(self.under, self.over)
        self.agents = [
            AgentState(gamma=(2.0**r) * self.under, d=self.d, c=self.c, capacity=self.capacity)
            for r in range(count)
        ]
        self.v = np.zeros((count, self.d))
        self.z_acc = np.zeros((count, self.d))
        self.consumed = np.zeros(self.d, dtype=np.int64)

    def process_round(self, rnd: Round) -> list[float]:
        # One shuffle per round, shared by all agents; replay is exact given
        # (seed, round index), and the trace holds one record per past round.
        order = list(range(len(rnd)))
        mix = (self.seed * 1_000_003 + len(self.trace)) & 0xFFFFFFFFFFFFFFFF
        random.Random(mix).shuffle(order)
        if not self.agents:
            none = np.zeros((0, len(rnd)))
            self.trace.append(FixedRound(none, none, np.zeros(len(rnd))))
            return [0.0] * len(rnd)
        inc = round_incidence(rnd, self.d)
        self.consumed += inc.counts
        y = controlled_greedy_round(self.agents, self.v, inc, order)
        z = continuous_minimalist_round(
            self.agents, self.v, self.z_acc, np.subtract(self.phi_total, self.consumed), inc
        )
        x = combine_agent_round(y, z, inc)
        # Python's sum adds the agents' rows one after another, in agent order.
        x_avg = sum(x) / float(len(self.agents))
        self.trace.append(FixedRound(x, y, x_avg))
        return x_avg.tolist()


def new_fixed_policy(
    d: int,
    c: tuple[float, ...],
    capacity: int,
    phi_total: list[int],
    seed: int,
) -> FixedPolicy:
    return FixedPolicy(d=d, c=c, capacity=capacity, phi_total=tuple(phi_total), seed=seed)


def run_fixed_policy(inst: Instance, seed: int) -> FixedPolicy:
    """Stream all rounds of an instance through a fresh policy.

    The marginal counts are granted by the scenario's information contract
    and are computed here from the instance itself.
    """
    policy = new_fixed_policy(inst.d, inst.c, inst.capacity, marginals(inst), seed)
    for rnd in inst.rounds:
        policy.process_round(rnd)
    return policy


def policy_solution(policy: FixedPolicy):
    return solution_from_rows([rec.emitted for rec in policy.trace])


def agent_solution(policy: FixedPolicy, index: int):
    return solution_from_rows([rec.x[index] for rec in policy.trace])


def agent_y_solution(policy: FixedPolicy, index: int):
    return solution_from_rows([rec.y[index] for rec in policy.trace])


def best_guess_index(policy: FixedPolicy, opt_value: float) -> int | None:
    """Largest agent index whose guess does not exceed the true optimum."""
    best = None
    for idx, agent in enumerate(policy.agents):
        if agent.gamma <= opt_value + EPS:
            best = idx
    return best
