"""Higher-level policy for the fixed-capacity scenario.

A principal spawns one agent per guessed optimum value (geometric guesses
spanning the closed-form optimum sandwich).  Each round, every agent runs a
controlled greedy pass over the candidates in a shared random order, then a
continuous minimalist pass over the dimensions, and combines the two into a
per-round fraction; the principal emits the across-agent average.

Both "continuous increase" processes are piecewise linear, so they are
realized here as exact closed-form event computations, never time-stepped.
Every stage runs for all agents at once on arrays, and most rounds leave
every agent as it was, so such a round is made cheap:

- stage 1 is sequential in the shared order, but a candidate can only be
  raised if, at the start of the round, at least sqrt(d) of its dimensions
  are below the agent's scaled guess.  One product of the agents x d
  "below" mask (cached like the gap, see below) with the round's d x n_i
  membership matrix screens out every other candidate; only survivors enter
  stage 1, whose scalar step runs on Python floats.
- the shared order is drawn only when some agent has two or more survivors.
- stage 2 is skipped unless some shortfall, an agent's scaled guess minus
  the most utility a dimension can still reach, is positive: otherwise its
  closed form is zero.  The shortfall is gap - c * unseen, and the gap
  target - (v + c z_acc) is cached and refreshed only after a raise or an
  adjustment.
- a round in which no agent raises or adjusts emits zeros without the
  combine step, and its record is shared by every such round of its size:
  read-only zero rows.

The output is the same, bit for bit, as running every stage on every round.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .benchmark import opt_bounds_from_marginals
from .core import (
    EPS,
    Instance,
    Round,
    marginals,
    max_over_attributes,
    min_count_at_least_sqrt_d,
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
    stage 2); the per-round rows of all agents are in a pass's records.
    """

    gamma: float
    capacity: int
    y_used: float = 0.0
    z_used: float = 0.0


def controlled_greedy_round(
    agents: list[AgentState],
    v: np.ndarray,
    target: np.ndarray,
    c: np.ndarray,
    rnd: Round,
    order: Callable[[], list[int]],
) -> np.ndarray:
    """Stage 1 of every agent at once: raise each candidate's fraction while
    it still benefits at least sqrt(d) underrepresented dimensions; returns
    the agents x n_i array y and updates ``v`` (agents x d, c_k times the sum
    of y on dimension k) and each agent's ``y_used``.

    For candidate j the thresholds tau_k = (target - v_k)/c_k over its
    attributes with tau_k > 0 are the exits from the underrepresented set; the
    raise stops at the m-th largest threshold (m = least integer with
    m^2 >= d), at 1, or at the capacity, whichever is smallest.  ``target``
    holds each agent's gamma/sqrt(d).  Candidates are visited in the order
    ``order()`` returns, called only when it matters.

    Within a round every v_k only grows (c_k > 0 and y > 0), so a candidate's
    count of dimensions with v_k < target can only fall as the round goes on.
    That count at the start of the round, one (agents x d) @ (d x n_i)
    product with the round's membership matrix, rules out every candidate
    with fewer than m: tau_k > 0 implies v_k < target, so each of them ends
    at y = 0.  The scalar step runs on the survivors alone, against the
    current v, and recomputes tau, in Python floats (the same IEEE operations
    as on arrays).  Agents share nothing here, so the order matters only among
    one agent's survivors; with at most one each, it is never drawn.  An
    agent whose y_used has reached K raises nothing.
    """
    y = np.zeros((len(agents), len(rnd)))
    survives = _survivors(_below(agents, v, target), rnd)
    rows, cols = (index.tolist() for index in np.nonzero(survives))
    if len(set(rows)) < len(rows):
        # Row-major nonzero over the columns in visiting order: each agent's
        # survivors, agent by agent, in the shared order.
        visit = np.asarray(order(), dtype=np.int64)
        rows, steps = np.nonzero(survives[:, visit])
        rows, cols = rows.tolist(), visit[steps].tolist()
    m = min_count_at_least_sqrt_d(v.shape[1])
    c, bits, bounds = c.tolist(), rnd.bits.tolist(), rnd.starts.tolist() + [rnd.bits.size]
    v_rows = {a: v[a].tolist() for a in set(rows)}
    for a, j in zip(rows, cols):
        agent, v_a, target_a = agents[a], v_rows[a], float(target[a])
        cand = bits[bounds[j] : bounds[j + 1]]
        tau = sorted([tau_k for k in cand if (tau_k := (target_a - v_a[k]) / c[k]) > 0.0])
        y_stop = tau[-m] if len(tau) >= m else 0.0
        step = min(1.0, max(0.0, agent.capacity - agent.y_used), y_stop)
        y[a, j] = step
        if step > 0.0:
            agent.y_used += step
            for k in cand:
                v_a[k] += c[k] * step
    for a, v_a in v_rows.items():
        v[a] = v_a
    return y


def _below(agents: list[AgentState], v: np.ndarray, target: np.ndarray) -> np.ndarray:
    """1.0 where an agent with capacity left has v_k below its target."""
    live = np.array([agent.capacity - agent.y_used > 0.0 for agent in agents], dtype=bool)
    return ((v < target[:, None]) & live[:, None]).astype(float)


def _survivors(below: np.ndarray, rnd: Round) -> np.ndarray:
    """Agents x n_i: does the candidate hold at least sqrt(d) marked dimensions?"""
    d, n = below.shape[1], len(rnd)
    member = np.zeros((d, n))
    member[rnd.bits, np.repeat(np.arange(n), rnd.lens)] = 1.0
    return below @ member >= min_count_at_least_sqrt_d(d)


def continuous_minimalist_round(
    agents: list[AgentState],
    shortfall: np.ndarray,
    c: np.ndarray,
    z_acc: np.ndarray,
    rnd: Round,
) -> np.ndarray:
    """Stage 2 of every agent at once: per-dimension utility adjustments, in
    index order; returns them as an agents x d array.

    ``shortfall`` is, per agent and dimension, the scaled guess minus the
    maximal achievable end-of-horizon utility: target - w - c * unseen, where
    the accumulated utility w = v + c z_acc counts y through the current
    round and z only before it, and unseen is phi_k minus the arrivals through
    this round.  ``z_acc`` holds each agent's adjustments of past rounds and
    gains this round's.  The adjustment closes the shortfall, stopping at the
    round arrival count or at the capacity, in closed form.  All agents share
    d, c and K.
    """
    z = np.minimum(np.maximum(shortfall / c, 0.0), rnd.counts)
    # Only the capacity clip depends on index order.  A zero entry would add
    # 0.0 and leave z and z_used as they are, so the nonzero ones suffice.
    rows, cols = np.nonzero(z)
    clipped = []
    for a, zk in zip(rows.tolist(), z[rows, cols].tolist()):
        agent = agents[a]
        zk = min(zk, max(0.0, agent.capacity - agent.z_used))
        agent.z_used += zk
        clipped.append(zk)
    z[rows, cols] = clipped
    z_acc += z
    return z


def combine_agent_round(y, z, rnd: Round) -> np.ndarray:
    """Stage 3: x_j = [y_j + max_k z_k t_jk / phi_k(R_i)] / 2 (0/0 -> 0), for
    one agent's vectors or every agent's rows at once."""
    # A dimension without arrivals belongs to no candidate, so its quotient
    # is never read; dividing it by 1 keeps it finite.
    share = np.asarray(z, dtype=float) / np.maximum(rnd.counts, 1)
    return (np.asarray(y, dtype=float) + max_over_attributes(share, rnd)) / 2.0


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
    and holds only the running state its next round reads (O(d * agents))."""

    d: int
    c: tuple[float, ...]
    capacity: int
    phi_total: tuple[int, ...]
    seed: int
    under: float = field(init=False)
    over: float = field(init=False)
    agents: list[AgentState] = field(init=False)
    weights: np.ndarray = field(init=False)  # c as an array
    target: np.ndarray = field(init=False)  # per agent: gamma / sqrt(d)
    v: np.ndarray = field(init=False)  # agents x d: c_k times the sum of y_ij on dim k
    z_acc: np.ndarray = field(init=False)  # agents x d: sum over past rounds of z_ik
    gap: np.ndarray = field(init=False)  # agents x d: target - (v + c z_acc)
    below: np.ndarray = field(init=False)  # agents x d: the stage-1 screen, moved only by a raise
    unseen: np.ndarray = field(init=False)  # phi_k minus the arrivals seen so far
    round_index: int = field(default=0, init=False)  # rounds processed so far
    quiet: dict[int, FixedRound] = field(default_factory=dict, init=False, repr=False)  # by round size

    def __post_init__(self) -> None:
        if len(self.phi_total) != self.d:
            raise DimensionError(f"marginals length {len(self.phi_total)} != d={self.d}")
        self.under, self.over = opt_bounds_from_marginals(
            self.d, self.c, self.capacity, list(self.phi_total)
        )
        count = guess_count(self.under, self.over)
        self.agents = [AgentState(gamma=(2.0**r) * self.under, capacity=self.capacity) for r in range(count)]
        self.weights = np.asarray(self.c, dtype=float)
        self.target = np.array([agent.gamma / math.sqrt(self.d) for agent in self.agents])
        self.v = np.zeros((count, self.d))
        self.z_acc = np.zeros((count, self.d))
        self._refresh()
        self.unseen = np.array(self.phi_total, dtype=np.int64)

    def _refresh(self) -> None:
        self.gap = self.target[:, None] - (self.v + self.weights * self.z_acc)
        self.below = _below(self.agents, self.v, self.target)

    def _order(self, index: int, n: int) -> list[int]:
        # One shuffle per round, shared by all agents; replay is exact given
        # (seed, round index), so a round that never draws it changes no other.
        order = list(range(n))
        random.Random((self.seed * 1_000_003 + index) & 0xFFFFFFFFFFFFFFFF).shuffle(order)
        return order

    def _quiet_round(self, n: int) -> FixedRound:
        """The record of every round of n candidates in which no agent moves."""
        if n not in self.quiet:
            y, emitted = np.zeros((len(self.agents), n)), np.zeros(n)
            y.flags.writeable = emitted.flags.writeable = False
            self.quiet[n] = FixedRound(y, y, emitted)
        return self.quiet[n]

    def process_round(self, rnd: Round) -> list[float]:
        """One round (``step``); returns the across-agent average."""
        return self.step(rnd).emitted.tolist()

    def step(self, rnd: Round) -> FixedRound:
        """One round: stage 1, stage 2 and their combination for every agent;
        returns the round's record."""
        if rnd.d != self.d:
            raise DimensionError(f"round of d={rnd.d} fed to a policy of d={self.d}")
        n, index = len(rnd), self.round_index
        self.round_index += 1
        self.unseen -= rnd.counts
        y, raised = self._quiet_round(n).y, False
        if _survivors(self.below, rnd).any():
            y = controlled_greedy_round(
                self.agents, self.v, self.target, self.weights, rnd, lambda: self._order(index, n)
            )
            raised = y.any()
        if raised:
            self._refresh()
        # shortfall = gap - c * unseen is positive exactly where gap > c * unseen.
        if (self.gap > self.weights * self.unseen).any():
            shortfall = self.gap - self.weights * self.unseen
            z = continuous_minimalist_round(self.agents, shortfall, self.weights, self.z_acc, rnd)
            self._refresh()
        elif raised:
            z = np.zeros_like(self.gap)
        else:
            return self._quiet_round(n)
        x = combine_agent_round(y, z, rnd)
        # Python's sum adds the agents' rows one after another, in agent order.
        return FixedRound(x, y, sum(x) / float(len(self.agents)))


def new_fixed_policy(
    d: int,
    c: tuple[float, ...],
    capacity: int,
    phi_total: list[int],
    seed: int,
) -> FixedPolicy:
    return FixedPolicy(d=d, c=c, capacity=capacity, phi_total=tuple(phi_total), seed=seed)


class FixedPass(NamedTuple):
    policy: FixedPolicy  # after the rounds
    trace: list[FixedRound]  # one record per round, in order


def run_fixed_policy(inst: Instance, seed: int) -> FixedPass:
    """Stream all rounds of an instance through a fresh policy.

    The marginal counts are granted by the scenario's information contract
    and are computed here from the instance itself.
    """
    policy = new_fixed_policy(inst.d, inst.c, inst.capacity, marginals(inst), seed)
    return FixedPass(policy, [policy.step(rnd) for rnd in inst.rounds])


def policy_solution(run: FixedPass):
    return solution_from_rows([rec.emitted for rec in run.trace])


def agent_solution(run: FixedPass, index: int):
    return solution_from_rows([rec.x[index] for rec in run.trace])


def agent_y_solution(run: FixedPass, index: int):
    return solution_from_rows([rec.y[index] for rec in run.trace])


def best_guess_index(run: FixedPass, opt_value: float) -> int | None:
    """Largest agent index whose guess does not exceed the true optimum."""
    best = None
    for idx, agent in enumerate(run.policy.agents):
        if agent.gamma <= opt_value + EPS:
            best = idx
    return best
