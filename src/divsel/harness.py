"""Evaluation harness: run policies, compute exact expected utilities and
competitive ratios, Monte-Carlo the rounding, and machine-verify the proven
inequalities.

The performance of a policy is computed exactly from its fractional solution
(the rounding realizes every marginal exactly, so the min of expectations is
determined by x); Monte Carlo exists as a separate verification path.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import fixed_policy as fp
from . import unknown_policy as up
from .benchmark import (
    LP_TOL,
    IntSolution,
    adjustment_bounds,
    fluid_results,
    int_objective,
    opt_bounds,
    solve_fluid,
    solve_int,
)
from .core import (
    EPS,
    FractionalSolution,
    Instance,
    InstanceStats,
    instance_stats,
    least_utility,
    physical_memory as _physical_memory,
    round_counts,
    validate_feasibility,
)
from .errors import ContractError, DomainError, SizeError
from .generators import family_entries, fcs_kappa, fcs_members, fhc_members
from .rounding import max_selection_count, pick_segments

POLICY_NAMES = ("fixed", "uc-hybrid", "uc-myopic", "uc-forward")


def fmt(x: float) -> str:
    """Canonical numeric rendering: 12 significant digits."""
    return f"{x:.12g}"


@dataclass(frozen=True)
class RunReport:
    instance_id: str
    policy: str
    d: int
    n: int
    capacity: int
    per_round_capacity: Optional[int]
    utilities: tuple[float, ...]
    lu: float
    opt: float
    ratio: float
    degenerate: bool
    wall_time_s: float


@dataclass(frozen=True)
class VerificationVerdict:
    name: str
    status: str  # pass | fail | precondition_unmet
    lhs: Optional[float] = None
    rhs: Optional[float] = None
    slack: Optional[float] = None
    detail: str = ""

    def line(self) -> str:
        nums = (("lhs", self.lhs), ("rhs", self.rhs), ("slack", self.slack))
        parts = [self.status.upper(), self.name, *(f"{key}={fmt(v)}" for key, v in nums if v is not None)]
        return " ".join(parts + ([f"({self.detail})"] if self.detail else []))


def _floor_root(x: float, power: float) -> int:
    return math.floor(x**power + 1e-9)


def run_policy(
    inst: Instance,
    policy_name: str,
    seed: int,
    topup: bool = False,
    continue_after_cap: bool = False,
):
    """Stream the instance through one policy; returns (solution, its ``FixedPass`` or ``UnknownPass``)."""
    if policy_name == "fixed":
        run = fp.run_fixed_policy(inst, seed)
        return fp.policy_solution(run), run
    if policy_name.startswith("uc-"):
        if inst.per_round_capacity is None:
            raise ContractError(f"{policy_name} requires the instance to carry a")
        run = up.run_unknown_policy(inst, policy_name[3:], topup, continue_after_cap)
        return up.policy_solution(run), run
    raise ContractError(f"unknown policy {policy_name!r}")


def _ratio(lu: float, opt: float) -> float:
    """ALG/OPT, taken as 1 when OPT is zero."""
    return 1.0 if opt <= EPS else lu / opt


def scenario_mode(policy_name: str) -> str:
    return "total" if policy_name == "fixed" else "per_round_prefix"


def evaluate_policy(
    inst: Instance,
    policy_name: str,
    seed: int,
    instance_id: str = "instance",
    topup: bool = False,
    continue_after_cap: bool = False,
) -> tuple[RunReport, FractionalSolution]:
    """Run one policy and report exact expected utilities and the ratio.

    ALG equals the least utility of the emitted fractions (the rounding layer
    is lossless), and ALG/OPT is reported as 1 when both are zero.
    """
    start = time.perf_counter()
    opt_value = solve_fluid(inst).value  # first: an instance the LP cannot take fails before the pass
    sol, _ = run_policy(inst, policy_name, seed, topup, continue_after_cap)
    lu, utilities = least_utility(inst, sol)
    report = RunReport(
        instance_id, policy_name, inst.d, inst.n, inst.capacity, inst.per_round_capacity, tuple(utilities), lu,
        opt_value, _ratio(lu, opt_value), opt_value <= EPS, time.perf_counter() - start,
    )
    return report, sol


def monte_carlo(
    inst: Instance, sol: FractionalSolution, trials: int, seed: int
) -> dict:
    """Independent rounders, one per trial; reports empirical marginals, the
    maximum realized selection count, sampled and exact over all offsets, and
    per-dimension empirical utilities.

    The trials are read off the solution's pick segments: a change of a
    candidate's pick applies to every trial at or past its offset, so running
    sums of the changes over the sorted draws count each trial's picks.  A
    trial's utility on dimension k is c_k added once per selected candidate
    with attribute k; it is read from a table of those running sums
    (``cumsum`` adds them one after another), indexed by the trial's count.
    Needs ``trials >= 1``; a trial count whose arrays cannot fit in memory is
    a SizeError, raised before they are allocated.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    # pos, its sort order and the sorted draws, the changes per sorted trial
    # and their running sum, the d x trials dimension counts (sorted and
    # unsorted) and the utilities read from them: 8 bytes each.
    need = 8 * trials * (3 * inst.d + 5)
    if need > _physical_memory():
        raise SizeError(f"{trials} trials need {need / 2**30:.1f} GiB, more than the machine's memory")
    x_flat = sol.flat()
    segments = pick_segments(x_flat)
    cand, at, delta = segments.changes()
    lens = inst.cand_lens[cand]  # a change counts once per attribute of its candidate
    attrs = inst.bits[np.repeat(inst.cand_ptr[cand] - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())]
    try:
        rng = np.random.Generator(np.random.PCG64(seed))
        pos = rng.random(trials)
        order = np.argsort(pos)
        ahead = np.searchsorted(pos[order], at)  # sorted trials before each change
        freqs = np.bincount(cand, weights=delta * (trials - ahead), minlength=inst.total_candidates) / trials
        counts = np.cumsum(np.bincount(ahead, weights=delta, minlength=trials + 1)[:trials])
        running = np.zeros((inst.d, trials + 1), dtype=np.int64)
        np.add.at(running, (attrs, np.repeat(ahead, lens)), np.repeat(delta, lens))
        np.cumsum(running, axis=1, out=running)
        dim_counts = np.empty((inst.d, trials), dtype=np.int64)  # row-major, as the mean sums it
        dim_counts[:, order] = running[:, :trials]
        steps = np.repeat(np.asarray(inst.c)[:, None], int(dim_counts.max()) + 1, axis=1)
        steps[:, 0] = 0.0
        sums = np.cumsum(steps, axis=1)
        dim_utils = np.take_along_axis(sums, dim_counts, axis=1).mean(axis=1).tolist()
    except MemoryError as exc:
        raise SizeError(f"{trials} trials do not fit in memory") from exc
    return {
        "trials": trials,
        "frequencies": freqs.tolist(),
        "max_selected": int(counts.max()),
        "max_selected_exact": max_selection_count(x_flat, segments)[0],
        "dimension_utilities": dim_utils,
    }


def worst_marginal_excess(frequencies, x, trials: int) -> float:
    """Most by which a selection frequency strays from its fraction (clipped
    to [0, 1]) beyond 5 standard errors plus 1/trials; 0.0 when none does."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    bound = 5.0 * np.sqrt(x * (1.0 - x) / trials) + 1.0 / trials
    return float(np.max(np.abs(np.asarray(frequencies) - x) - bound, initial=0.0))


def _compare(name: str, lhs: float, rhs: float, tol: float, detail: str = "", upper: bool = False):
    """Pass iff lhs >= rhs - tol, or lhs <= rhs + tol when ``upper``."""
    slack = rhs - lhs if upper else lhs - rhs
    return VerificationVerdict(name, "pass" if slack >= -tol else "fail", lhs, rhs, slack, detail)


def _unmet(name: str, detail: str) -> VerificationVerdict:
    return VerificationVerdict(name=name, status="precondition_unmet", detail=detail)


def composite_factor(inst: Instance, stats) -> Optional[float]:
    """The proven ratio floor for the hybrid policy when the boundedness
    preconditions hold; None otherwise."""
    if stats.frak_b is None or inst.per_round_capacity is None:
        return None
    d4 = _floor_root(inst.d, 0.25)
    if inst.n <= d4:
        return None
    a = inst.per_round_capacity
    return (
        (1.0 / (8.0 * stats.frak_b * inst.d**0.75))
        * min(1.0, stats.eta)
        * min(stats.delta_lo / stats.delta_up, (inst.n - d4) / (stats.frak_b * inst.n))
        * min(1.0, a / stats.b_bar)
    )


def forward_factor(inst: Instance, stats) -> Optional[float]:
    """Ratio floor for the forward-looking solution alone on
    tightly-capacitated instances (no hybrid halving)."""
    base = composite_factor(inst, stats)
    if base is None or stats.loosely_capacitated:
        return None
    return 2.0 * base


def thm2_factor(d: int) -> float:
    return 1.0 / (4.0 * math.sqrt(d) * max(1, math.ceil(math.log2(d)) if d > 1 else 1))


def marginal_exactness_verdict(
    inst: Instance, sol: FractionalSolution, label: str = ""
) -> list[VerificationVerdict]:
    """Prop2-marginals and Prop2-capacity from one exact sweep: the measure
    of the offsets at which the rounder picks each candidate against
    its fraction, and the most candidates it picks at any offset."""
    x_flat = sol.flat()
    segments = pick_segments(x_flat)
    worst = float(np.abs(segments.measures() - segments.x).max(initial=0.0))
    detail = f"{label} max |measure - x_j| over {len(x_flat)} candidates"
    max_count, _ = max_selection_count(x_flat, segments)
    return [
        _compare("Prop2-marginals", worst, EPS, 0.0, detail, upper=True),
        _compare("Prop2-capacity", float(max_count), float(inst.capacity), 0.0,
                 f"{label} max |A| exact over all offsets", upper=True),
    ]


class _Facts:
    """What the verdicts and report rows of one instance read.  OPT is solved
    up front unless given; its sandwich, the statistics, the fixed pass, the
    one plain uc-hybrid pass (unless given), g(n), solutions and least
    utilities are computed on first use.  The pass's myopic and forward rows
    never see a top-up, so it yields every unknown-capacity variant, plain or
    topped up."""

    def __init__(self, inst: Instance, seed: int, eps: float = EPS, instance_id: str = "instance",
                 opt: Optional[float] = None, uc_pass: Optional[up.UnknownPass] = None):
        self.inst, self.seed, self.eps, self.instance_id = inst, seed, eps, instance_id
        self.opt = solve_fluid(inst).value if opt is None else opt
        if uc_pass is not None:
            self.uc_pass = uc_pass  # in place of the cached pass
        self._solutions: dict[str, FractionalSolution] = {}
        self._lus: dict[str, float] = {}

    @cached_property
    def bounds(self) -> tuple[float, float]:
        return opt_bounds(self.inst)

    @cached_property
    def stats(self) -> Optional[InstanceStats]:
        """The instance statistics, or None when the instance has no a or no rounds."""
        return None if _needs_a_and_rounds(self.inst) else instance_stats(self.inst)

    @cached_property
    def composite(self) -> Optional[float]:
        return composite_factor(self.inst, self.stats)

    @cached_property
    def fixed(self) -> tuple[FractionalSolution, fp.FixedPass]:
        return run_policy(self.inst, "fixed", self.seed)

    @cached_property
    def uc_pass(self) -> up.UnknownPass:
        return run_policy(self.inst, "uc-hybrid", self.seed)[1]

    @cached_property
    def guess(self) -> Optional[int]:
        """The fixed policy's best guess r*, counted from 1; None without one."""
        r_star = fp.best_guess_index(self.fixed[1], self.opt)
        return None if r_star is None else r_star + 1

    @property
    def agent(self) -> fp.AgentState:
        return self.fixed[1].policy.agents[self.guess - 1]

    @cached_property
    def int_val(self) -> float:
        """The intermediate objective of the pass's own (y, z)."""
        y, z = zip(*((rec.y, rec.z) for rec in self.uc_pass.trace))
        return int_objective(self.inst, IntSolution(np.concatenate(y), np.array(z)))

    @cached_property
    def g_n(self) -> float:
        return solve_int(self.inst).value

    def solution(self, name: str) -> FractionalSolution:
        """A policy's solution, a variant's top-up rows ("uc-<variant>+topup"),
        or the best-guess agent's rows ("r*") and its stage-1 rows ("r*-stage1")."""
        if name in self._solutions:
            return self._solutions[name]
        plain = name.removesuffix("+topup")
        if name in ("r*", "r*-stage1"):
            sol = (fp.agent_solution if name == "r*" else fp.agent_y_solution)(self.fixed[1], self.guess - 1)
        elif name == "fixed":
            sol = self.fixed[0]
        elif not plain.startswith("uc-"):
            raise ContractError(f"unknown policy {name!r}")
        elif self.inst.per_round_capacity is None:
            raise ContractError(f"{plain} requires the instance to carry a")
        else:
            sol = (up.variant_solution if plain == name else up.topup_solution)(self.uc_pass, plain[3:])
        self._solutions[name] = sol
        return sol

    def lu(self, name: str) -> float:
        if name not in self._lus:
            self._lus[name] = least_utility(self.inst, self.solution(name))[0]
        return self._lus[name]


#: A precondition's answer for a row that does not arise on the instance (a
#: case of its lemma that did not occur): the row reports nothing.
_OUT = object()

#: A row's tolerance, by kind: the caller's eps, eps widened to the LP
#: solver's tolerance (a side read off an LP), or none.
_TOLERANCES = {"eps": lambda eps: eps, "lp": lambda eps: max(eps, LP_TOL), "exact": lambda eps: 0.0}


@dataclass(frozen=True)
class VerdictRow:
    """One verdict of ``verify_instance``: lhs and rhs read the instance's
    facts.  ``unmet(facts)``, when given, is None when the row is checked,
    else its unmet reason or ``_OUT``.  A row without rhs is a yes/no check
    whose lhs is the answer."""

    name: str
    scenario: str  # "instance": always on; "fixed" or "unknown": on when a policy of it is verified
    lhs: Callable[[_Facts], float]
    rhs: Optional[Callable[[_Facts], float]]
    tolerance: str = "eps"
    upper: bool = False  # lhs <= rhs rather than lhs >= rhs
    unmet: Optional[Callable[[_Facts], Optional[str]]] = None
    detail: str = "{f.instance_id}"


def _zero_opt(f: _Facts) -> Optional[str]:
    return "OPT = 0" if f.opt <= EPS else None


def _no_ratio(f: _Facts) -> Optional[str]:
    return "fluctuation ratio undefined" if f.stats.frak_b is None else None


def _lemma4ii_factor(inst: Instance, stats: InstanceStats) -> float:
    d4 = _floor_root(inst.d, 0.25)
    spread = min(stats.delta_lo / stats.delta_up, (inst.n - d4) / (stats.frak_b * inst.n))
    return (min(1.0, stats.eta) / (2.0 * inst.d**0.25)) * spread


VERDICT_TABLE = (
    VerdictRow("Lemma1-under", "instance", lambda f: f.opt, lambda f: f.bounds[0], "lp"),
    VerdictRow("Lemma1-over", "instance", lambda f: f.opt, lambda f: f.bounds[1], "lp", upper=True),
    VerdictRow("Thm2-bound", "fixed", lambda f: f.lu("fixed") / f.opt, lambda f: thm2_factor(f.inst.d),
               unmet=_zero_opt),
    VerdictRow(
        "Lemma2-bestguess", "fixed", lambda f: f.lu("r*"), lambda f: f.agent.gamma / (2.0 * math.sqrt(f.inst.d)),
        unmet=lambda f: _zero_opt(f) or (None if f.guess else "no guess at or below OPT"),
        detail="{f.instance_id} r*={f.guess} gamma={f.agent.gamma:.12g}",
    ),
    VerdictRow(  # a case of Lemma 2, reported only when it occurs
        "Lemma2-depleted", "fixed", lambda f: f.lu("r*-stage1"), lambda f: f.agent.gamma / math.sqrt(f.inst.d),
        unmet=lambda f: None if f.opt > EPS and f.guess and f.agent.y_used >= f.inst.capacity - f.eps else _OUT,
        detail="{f.instance_id} stage-1 capacity exhausted",
    ),
    VerdictRow(
        "WF-optimality", "unknown", lambda f: _water_fill_gap(f.inst, f.uc_pass.trace), lambda f: LP_TOL, "exact",
        upper=True,
        detail="{f.instance_id} max(dual bound - P_i, |f_i - P_i|, z_i infeasibility) over {f.inst.n} rounds",
    ),
    VerdictRow(
        "INT-achieved-vs-opt", "unknown", lambda f: f.g_n, lambda f: f.int_val, "lp",
        detail="{f.instance_id} g(n) dominates the policy's (y,z)",
    ),
    VerdictRow(
        "Lemma3i", "unknown", lambda f: f.g_n, lambda f: f.opt / f.stats.frak_b, "lp",
        unmet=lambda f: _no_ratio(f) and "fluctuation ratio undefined (some b_lo = 0)",
    ),
    VerdictRow(
        "Lemma3ii", "unknown", lambda f: f.lu("uc-forward"),
        lambda f: min(1.0, f.inst.per_round_capacity / f.stats.b_bar) / (2.0 * math.sqrt(f.inst.d)) * f.int_val,
        unmet=lambda f: "no candidate ever arrives" if f.stats.b_bar == 0 else None,
    ),
    VerdictRow(
        "Lemma4ii", "unknown", lambda f: f.int_val, lambda f: _lemma4ii_factor(f.inst, f.stats) * f.g_n, "lp",
        unmet=lambda f: _no_ratio(f) or ("instance is loosely capacitated" if f.stats.loosely_capacitated else None),
    ),
    VerdictRow(
        "Lemma4i", "unknown", lambda f: f.lu("uc-myopic"), lambda f: f.opt / (f.stats.frak_b * math.sqrt(f.inst.d)),
        unmet=lambda f: _no_ratio(f) or (None if f.stats.loosely_capacitated else "instance is tightly capacitated"),
    ),
    VerdictRow(
        "Thm3-composite", "unknown", lambda f: f.lu("uc-hybrid"), lambda f: f.opt * f.composite,
        unmet=lambda f: None if f.composite is not None else "needs b_lo > 0 and n > floor(d^(1/4))",
    ),
    VerdictRow(
        "feasibility[uc-hybrid+topup]", "unknown",
        lambda f: validate_feasibility(f.inst, f.solution("uc-hybrid+topup"), "per_round_prefix", f.eps), None,
    ),
    VerdictRow("Topup-dominance", "unknown", lambda f: f.lu("uc-hybrid+topup"), lambda f: f.lu("uc-hybrid")),
)


def _needs_a_and_rounds(inst: Instance) -> Optional[str]:
    """The precondition every unknown-capacity row shares."""
    if inst.per_round_capacity is None:
        return "instance carries no a"
    return "instance has no rounds" if inst.n == 0 else None


def _verdict(row: VerdictRow, f: _Facts) -> Optional[VerificationVerdict]:
    """One row on one instance; None when the row does not arise."""
    reason = (row.scenario == "unknown" and _needs_a_and_rounds(f.inst)) or (row.unmet and row.unmet(f))
    if reason is _OUT:
        return None
    if reason is not None:
        return _unmet(row.name, reason)
    detail = row.detail.format(f=f)
    if row.rhs is None:
        return VerificationVerdict(row.name, "pass" if row.lhs(f) else "fail", detail=detail)
    return _compare(row.name, row.lhs(f), row.rhs(f), _TOLERANCES[row.tolerance](f.eps), detail, row.upper)


def _rows(f: _Facts, scenario: str) -> list[VerificationVerdict]:
    """The verdicts of one scenario's rows, in table order."""
    return [v for row in VERDICT_TABLE if row.scenario == scenario and (v := _verdict(row, f)) is not None]


def verify_instance(
    inst: Instance,
    policies: Sequence[str],
    seed: int,
    eps: float = EPS,
    instance_id: str = "instance",
) -> list[VerificationVerdict]:
    """Every applicable proven inequality on one instance, as verdicts: the
    ``VERDICT_TABLE`` rows of every instance, each policy's feasibility and
    Prop2 rows, then the rows of each scenario a policy is verified in.

    Checks whose preconditions fail (undefined fluctuation ratio, missing a,
    too-short horizon) are reported as precondition_unmet, never silently
    skipped.
    """
    return _verify(_Facts(inst, seed, eps, instance_id), policies)


def _verify(f: _Facts, policies: Sequence[str]) -> list[VerificationVerdict]:
    """``verify_instance`` on an instance's facts."""
    verdicts = _rows(f, "instance")
    for name in policies:
        if name.startswith("uc-") and f.inst.per_round_capacity is None:
            verdicts.append(_unmet(f"feasibility[{name}]", "instance carries no a"))
            continue
        sol, mode = f.solution(name), scenario_mode(name)
        ok = validate_feasibility(f.inst, sol, mode, f.eps)
        verdicts.append(VerificationVerdict(f"feasibility[{name}]", "pass" if ok else "fail",
                                            detail=f"{f.instance_id} mode={mode}"))
        verdicts.extend(marginal_exactness_verdict(f.inst, sol, label=f"{f.instance_id}/{name}"))
    if "fixed" in policies:
        verdicts += _rows(f, "fixed")
    if any(name.startswith("uc-") for name in policies):
        verdicts += _rows(f, "unknown")
    return verdicts


def _water_fill_gap(inst: Instance, trace: Sequence[up.UnknownRound]) -> float:
    """Round-by-round enclosure of the adjustment LP optimum: the trace's z_i
    is a feasible point of value P_i = min_k (u_ik + c_k z_ik) on the replayed
    utilities, and ``adjustment_bounds`` is a dual bound UB_i.  The water
    level f_i is optimal when UB_i - P_i and |f_i - P_i| vanish; z_i's
    constraint violation counts against it as well.  Returns the largest of
    the three over all rounds."""
    budget = math.sqrt(inst.d) * inst.per_round_capacity
    c = np.asarray(inst.c)
    u = np.zeros(inst.d)
    u_rows = np.empty((inst.n, inst.d))
    for i, (rnd, rec) in enumerate(zip(inst.rounds, trace)):
        np.add.at(u, rnd.bits, c[rnd.bits] * np.repeat(rec.y, rnd.lens))
        u_rows[i] = u
        u += c * rec.z
    caps = round_counts(inst)
    z = np.array([rec.z for rec in trace])
    f = np.array([rec.f for rec in trace])
    value = (u_rows + c * z).min(axis=1)
    upper = adjustment_bounds(u_rows, caps, budget, c, f)
    # 0.0 - z, not -z: a zero z must not make the lhs read -0.
    violation = np.maximum(np.maximum(0.0 - z, z - caps).max(axis=1), z.sum(axis=1) - budget)
    return float(np.maximum.reduce([upper - value, np.abs(f - value), violation]).max(initial=0.0))


def family_members(family: str, d: int) -> Iterator[Instance]:
    """The members of a hard family, in order, each built when the stream
    reaches it.  A family whose attribute entries alone (the int32 ``bits``
    its members keep, a floor on what building it takes) exceed the machine's
    memory is a SizeError, raised before any member is built."""
    need = 4 * family_entries(family, d)
    if need > _physical_memory():
        raise SizeError(f"{family} d={d} needs {need} bytes of attributes, more than the machine's memory")
    if family == "fhc":
        return fhc_members(d)
    return fcs_members(d)


def _readers(items: Iterable, count: int) -> list[Iterator]:
    """``count`` iterators that each yield every item of ``items`` in order;
    an item is read once and held only until every iterator has taken it
    (``itertools.tee`` frees its buffer in blocks of 57 items)."""
    items, held, taken, end = iter(items), deque(), [0] * count, object()  # held[0] is item min(taken)

    def reader(r: int) -> Iterator:
        while True:
            low = min(taken)
            if taken[r] - low == len(held):
                held.append(next(items, end))
            item = held[taken[r] - low]
            if item is end:
                return
            taken[r] += 1
            if min(taken) > low:
                held.popleft()
            yield item

    return [reader(r) for r in range(count)]


def verify_family(
    family: str,
    d: int,
    policies: Sequence[str],
    seed: int,
    eps: float = EPS,
    per_instance: bool = False,
) -> list[VerificationVerdict]:
    """Family-level impossibility witnesses, then with ``per_instance`` every
    member's own verdicts (``verify_instance``).  The fhc ratio bound
    concerns the hybrid policy alone.

    The members are streamed in one in-order pass: each is built, its fluid
    LP solved with its batch (``benchmark.fluid_results``), its policies
    scored and checked from one ``_Facts``, and then dropped, so at most one
    LP batch of members and one more are held; only the minima over members
    are kept.  The unknown-capacity rows of all members come from one forked
    pass (``unknown_policy.unknown_family_passes``): the rounds that
    consecutive members share are processed once, and each member continues
    from a copy of the policy's state after them.
    """
    stream = family_members(family, d)  # first: a bad d is refused before the bounds read it
    if family == "fhc":
        opt_name, opt_floor, scored = "FHC-OPT", float(d), ["uc-hybrid"]
    elif family == "fcs":
        opt_name, opt_floor, scored = "FCS-OPT", d / (8.0 * fcs_kappa(d)), policies
    else:
        raise ContractError(f"unknown family {family!r}")
    ratio_name, ratio_cap = _family_bound(family, d)
    uc = any(name.startswith("uc-") for name in scored)
    members, *readers = _readers(stream, 3 if uc else 2)
    lps = fluid_results(readers[0])
    uc_passes = up.unknown_family_passes(readers[1]) if uc else repeat(None)
    lowest, own = {}, []  # running minima of OPT and of each policy's ratio; the members' own verdicts
    for m, inst in enumerate(members, start=1):
        f = _Facts(inst, seed, eps, f"{family}_d{d}_m{m}", next(lps).value, next(uc_passes))
        lowest[opt_name] = min(lowest.get(opt_name, f.opt), f.opt)
        for name in scored:
            ratio = _ratio(f.lu(name), f.opt)
            lowest[name] = min(lowest.get(name, ratio), ratio)
        if per_instance:
            own += _verify(f, policies)
        del f  # else it holds this member while the next one's OPT and pass read ahead
    verdicts = [_compare(opt_name, lowest[opt_name], opt_floor, max(eps, LP_TOL), f"{family} d={d} min over members")]
    for name in scored:
        detail = f"{family} d={d} family-min ratio of {name}"
        verdicts.append(_compare(ratio_name, lowest[name], ratio_cap, eps, detail, upper=True))
    return verdicts + own


def _family_bound(family: str, d: int) -> tuple[str, float]:
    """The impossibility bound on a hard family's min ratio at dimension d,
    as (verdict name, cap)."""
    if family == "fhc":
        return "FHC-2/d", 2.0 / d
    return "FCS-512", 512.0 * d ** (-1.0 / 3.0)


def policy_bound(
    inst: Instance, policy_name: str, opt: float, stats: Optional[InstanceStats]
) -> tuple[str, Optional[float]]:
    """The applicable proven ratio floor for one (instance, policy) row, given
    the instance's statistics (None when it has no a or no rounds)."""
    if policy_name == "fixed":
        if opt <= EPS:
            return "none", None
        return "Thm2", thm2_factor(inst.d)
    if stats is None:
        return "none", None
    if policy_name == "uc-hybrid":
        factor = composite_factor(inst, stats)
        return ("Thm3-composite", factor) if factor is not None else ("none", None)
    if policy_name == "uc-myopic":
        if stats.frak_b is not None and stats.loosely_capacitated:
            return "Lemma4i", 1.0 / (stats.frak_b * math.sqrt(inst.d))
        return "none", None
    if policy_name == "uc-forward":
        factor = forward_factor(inst, stats)
        return ("Thm3-forward", factor) if factor is not None else ("none", None)
    return "none", None


def _fluid_value(inst: Instance) -> float:
    return solve_fluid(inst).value


def _report_row(instance_id: str, inst: Instance, policy_name: str, lu: float, opt: float, stats) -> dict:
    ratio = _ratio(lu, opt)
    bound_name, bound_value = policy_bound(inst, policy_name, opt, stats)
    satisfied = True if bound_value is None else ratio >= bound_value - EPS
    return {
        "instance": instance_id,
        "d": inst.d,
        "n": inst.n,
        "K": inst.capacity,
        "a": "" if inst.per_round_capacity is None else inst.per_round_capacity,
        "policy": policy_name,
        "LU": fmt(lu),
        "OPT": fmt(opt),
        "ratio": fmt(ratio),
        "bound_name": bound_name,
        "bound_value": "" if bound_value is None else fmt(bound_value),
        "satisfied": "true" if satisfied else "false",
        "_ratio_raw": ratio,
    }


def _eval_rows(args) -> dict[str, dict]:
    """The report rows of one instance for a group of policies, keyed by
    policy, read from one ``_Facts`` of the instance: the unknown-capacity
    rows, plain or topped up, all read its one plain pass."""
    instance_id, inst, group, seed, topup, opt = args
    f, rows = _Facts(inst, seed, instance_id=instance_id, opt=opt), {}
    for name in group:
        uc = name.startswith("uc-")
        lu = f.lu(f"{name}+topup" if topup and uc else name)
        rows[name] = _report_row(instance_id, inst, name, lu, opt, f.stats if uc else None)  # fixed reads no stats
    return rows


def _policy_groups(policies: Sequence[str]) -> list[list[str]]:
    """Policies that share one pass: every unknown-capacity row, plain or
    topped up, reads the same one."""
    shared = [name for name in policies if name.startswith("uc-")]
    return ([shared] if shared else []) + [[name] for name in policies if name not in shared]


CSV_COLUMNS = ["instance", "d", "n", "K", "a", "policy", "LU", "OPT", "ratio", "bound_name", "bound_value",
               "satisfied"]


def competitive_report(
    instances: Sequence[tuple[str, Instance]],
    policies: Sequence[str],
    seed: int,
    fmt_name: str = "csv",
    jobs: int = 1,
    topup: bool = False,
    family_min: Optional[str] = None,
) -> str:
    """Deterministic CSV/JSON report, one row per (instance, policy) in sorted
    order; optionally one family-min impossibility row per policy.  The fluid
    optimum and the instance statistics are computed once per instance and
    shared by its policy rows, and one plain pass per instance gives every
    unknown-capacity row, with top-up or without."""
    ordered = sorted(instances, key=lambda p: p[0])
    groups = _policy_groups(policies)
    # A forked pool starts every worker up front, so never ask for more
    # workers than there are tasks or processors.
    workers = max(1, min(jobs, len(ordered) * len(groups), os.cpu_count() or 1))
    parallel = workers > 1
    if parallel:  # imported only here, since the import adds ~15 ms to start-up
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        mapper = pool.map if parallel else map
        opts = list(mapper(_fluid_value, [inst for _, inst in ordered]))
        tasks = [(instance_id, inst, group, seed, topup, opt) for (instance_id, inst), opt in zip(ordered, opts)
                 for group in groups]
        done = iter(mapper(_eval_rows, tasks))
        rows = []
        for _ in ordered:
            by_policy = {}
            for _ in groups:
                by_policy.update(next(done))
            rows.extend(by_policy[policy] for policy in policies)

    if family_min is not None and rows:
        d = rows[0]["d"]
        bound_name, bound = _family_bound(family_min, d)
        for policy in policies:
            # The fhc bound quantifies over policies without marginal
            # information; it does not constrain the fixed policy.
            if family_min == "fhc" and not policy.startswith("uc-"):
                continue
            ratio = min(r["_ratio_raw"] for r in rows if r["policy"] == policy)
            base = next(r for r in rows if r["policy"] == policy)  # n, K, a and the key order
            rows.append({**base, "instance": f"{family_min}:family-min", "d": d, "LU": "", "OPT": "",
                         "ratio": fmt(ratio), "bound_name": bound_name, "bound_value": fmt(bound),
                         "satisfied": "true" if ratio <= bound + EPS else "false"})

    for row in rows:
        row.pop("_ratio_raw", None)
    if fmt_name == "json":
        import json

        return json.dumps(rows, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
