"""Exact offline benchmarks: the fluid relaxation, the intermediate (y, z)
formulation with its round-prefix truncation, closed-form bounds on the fluid
optimum and on the one-round adjustment LPs, and a brute-force grid oracle
for tiny instances.

The fluid and intermediate max-min objectives are linearized with one
auxiliary level variable and solved with scipy's HiGHS backend; every
returned solution is re-validated against its own constraints before it
leaves this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    EPS,
    MAX_CANDIDATES,
    FractionalSolution,
    Instance,
    core_mask,
    least_utility,
    marginals,
    round_counts,
)
from .errors import ContractError, InvariantError, SizeError
from .rounding import capacity_safe

#: Constraint/value re-validation tolerance for LP results.
LP_TOL = 1e-7


def linprog(*args, **kwargs):
    """scipy's HiGHS ``linprog``; scipy.optimize is imported on the first
    solve, so the commands and streams that solve no LP never load it."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


@dataclass(frozen=True)
class LPResult:
    value: float
    solution: Optional[FractionalSolution]
    status: str  # optimal | infeasible | unbounded_guard
    degenerate_zero: bool = False


@dataclass(frozen=True)
class IntSolution:
    """Feasible point of the intermediate formulation.

    ``y`` mirrors the instance rounds (nonzero only on core candidates);
    ``z`` is an n x d matrix of per-round utility adjustments.
    """

    y: tuple[tuple[float, ...], ...]
    z: tuple[tuple[float, ...], ...]


def _status_name(status: int) -> str:
    if status == 0:
        return "optimal"
    if status == 2:
        return "infeasible"
    return "unbounded_guard"


def _bound_term(bound: np.ndarray, mu: np.ndarray, what: str) -> float:
    finite = np.isfinite(bound)
    if np.abs(mu[~finite]).max(initial=0.0) > LP_TOL:
        raise InvariantError(f"{what}: nonzero multiplier on an infinite bound")
    return float(np.where(finite, bound, 0.0) @ mu)


def _certify_optimal(res, cost, a_ub, b_ub: np.ndarray, bounds: np.ndarray, what: str) -> None:
    """Dual certificate of an optimal HiGHS result (Huangfu & Hall, Math. Prog.
    Comp. 2018) for min c.x s.t. A_ub x <= b_ub, l <= x <= u.

    scipy reports marginals as d fun / d rhs, so dual feasibility means
    lambda <= 0 on the A_ub rows, mu_u <= 0 on upper bounds, mu_l >= 0 on lower
    bounds and c - A_ub^T lambda - mu_u - mu_l = 0; optimality means the dual
    objective b_ub.lambda + u.mu_u + l.mu_l equals c.x.
    """
    lam = res.ineqlin.marginals
    mu_u = res.upper.marginals
    mu_l = res.lower.marginals
    wrong_sign = max(lam.max(initial=0.0), mu_u.max(initial=0.0), -mu_l.min(initial=0.0))
    if wrong_sign > LP_TOL:
        raise InvariantError(f"{what}: dual multiplier of the wrong sign ({wrong_sign:.3g})")
    reduced = cost - a_ub.T @ lam - mu_u - mu_l
    residual = float(np.abs(reduced).max(initial=0.0))
    if residual > LP_TOL * (1.0 + float(np.abs(cost).max(initial=0.0))):
        raise InvariantError(f"{what}: reduced costs do not vanish ({residual:.3g})")
    primal = float(cost @ res.x)
    dual = float(b_ub @ lam) + _bound_term(bounds[:, 1], mu_u, what) + _bound_term(bounds[:, 0], mu_l, what)
    gap = abs(primal - dual)
    if gap > LP_TOL * (1.0 + abs(primal)):
        raise InvariantError(f"{what}: duality gap {gap:.3g} exceeds tolerance")


def _candidate_types(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct candidate types in first-arrival order: the index of each
    type's first candidate, the types' multiplicities, and the type id of
    every candidate in arrival order.

    Two candidates have the same type iff their attribute sets are equal, so
    each candidate is keyed by its attribute set packed into 64-bit words.
    A candidate's attributes are distinct, so adding their bits is OR-ing
    them; ``reduceat`` skips candidates without attributes (key 0).
    """
    n_cands, words = inst.total_candidates, (inst.d + 63) // 64
    keys = np.zeros((n_cands, words), dtype=np.uint64)
    nonempty = inst.cand_lens > 0
    if inst.bits.size:
        ones = np.left_shift(np.uint64(1), (inst.bits % 64).astype(np.uint64))
        word = inst.bits // 64
        for w in range(words):
            in_word = np.where(word == w, ones, np.uint64(0))
            keys[nonempty, w] = np.add.reduceat(in_word, inst.cand_ptr[:-1][nonempty])
    if words == 1:
        keys = keys.reshape(-1)
    else:
        keys = keys.view(np.dtype((np.void, 8 * words))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)  # sorted keys -> first-arrival order
    type_of = np.argsort(order)[inverse.reshape(-1)]
    return first[order], np.bincount(type_of, minlength=order.size), type_of


def solve_fluid(inst: Instance) -> LPResult:
    """Maximize the least utility subject to sum(x) <= K and 0 <= x <= 1.

    Candidates of one type are interchangeable, so the LP runs over distinct
    types with the type's mass bounded by its multiplicity; x* spreads each
    type's mass evenly over its copies and is then made capacity-safe for the
    rounder (``rounding.capacity_safe``).
    """
    n_cands = inst.total_candidates
    if n_cands > MAX_CANDIDATES:
        raise SizeError(f"{n_cands} candidates exceeds the LP cap {MAX_CANDIDATES}")
    first, mult, type_of = _candidate_types(inst)
    n_types, d = len(first), inst.d
    # The first candidates of the types, in arrival order, are the type table.
    is_first = np.zeros(n_cands, dtype=bool)
    is_first[first] = True
    lens = inst.cand_lens[first]
    bits = inst.bits[np.repeat(is_first, inst.cand_lens)]
    if n_cands == 0 or inst.capacity == 0 or np.bincount(bits, minlength=d).min() == 0:
        # Some dimension can never be served: the optimum is 0 (x = 0 allowed).
        zero = FractionalSolution(np.zeros(n_cands), inst.round_ptr)
        return LPResult(value=0.0, solution=zero, status="optimal", degenerate_zero=True)

    from scipy.sparse import csr_matrix

    # Variables: X_1..X_T (mass per type), t.
    # max t  s.t.  sum X <= K,  t - c_k sum_{types with k} X <= 0,  0 <= X <= mult.
    c = np.asarray(inst.c)
    row_idx = np.concatenate([np.zeros(n_types, dtype=np.intp), 1 + bits, 1 + np.arange(d)])
    col_idx = np.concatenate([np.arange(n_types), np.repeat(np.arange(n_types), lens), np.full(d, n_types)])
    vals = np.concatenate([np.ones(n_types), -c[bits], np.ones(d)])
    a_ub = csr_matrix((vals, (row_idx, col_idx)), shape=(1 + d, n_types + 1))
    b_ub = np.zeros(1 + d)
    b_ub[0] = float(inst.capacity)
    cost = np.zeros(n_types + 1)
    cost[-1] = -1.0
    bounds = np.zeros((n_types + 1, 2))
    bounds[:n_types, 1] = mult
    bounds[-1, 1] = np.inf
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        return LPResult(value=float("nan"), solution=None, status=_status_name(res.status))
    _certify_optimal(res, cost, a_ub, b_ub, bounds, "fluid LP")

    value = float(res.x[-1])
    x = (np.clip(res.x[:n_types], 0.0, mult) / mult)[type_of]
    sol = FractionalSolution(capacity_safe(x, inst.capacity), inst.round_ptr)
    lu, _ = least_utility(inst, sol)
    if sol.total() > inst.capacity + LP_TOL or lu < value - LP_TOL:
        raise InvariantError("fluid LP solution failed re-validation")
    return LPResult(value=value, solution=sol, status="optimal", degenerate_zero=value <= EPS)


def opt_bounds(inst: Instance) -> tuple[float, float]:
    """Closed-form sandwich for the fluid optimum, from marginals alone."""
    phi = marginals(inst)
    return opt_bounds_from_marginals(inst.d, inst.c, inst.capacity, phi)


def opt_bounds_from_marginals(
    d: int, c: tuple[float, ...], capacity: int, phi: list[int]
) -> tuple[float, float]:
    under = min(c[k] * min(capacity / d, phi[k]) for k in range(d))
    over = min(c[k] * min(capacity, phi[k]) for k in range(d))
    return under, over


def _core_counts(inst: Instance, tau: int) -> np.ndarray:
    """Per-dimension arrival counts of core candidates in the first ``tau``
    rounds."""
    end = inst.cand_ptr[inst.round_ptr[tau]]
    lens = inst.cand_lens
    core = np.repeat(core_mask(lens, inst.d), lens)[:end]
    return np.bincount(inst.bits[:end][core], minlength=inst.d).astype(float)


def solve_int(inst: Instance, prefix_rounds: Optional[int] = None) -> tuple[LPResult, IntSolution]:
    """Optimum g(tau) of the intermediate formulation truncated to the first
    ``prefix_rounds`` rounds (the full horizon when omitted).

    Presolve: the objective is nondecreasing in every y_j and nothing else
    constrains y, so y_j = 1 on all core candidates is optimal; only the z
    block is handed to the LP.  HiGHS solves it by interior point followed by
    crossover to a vertex, several times faster than simplex on long horizons.
    """
    if inst.per_round_capacity is None:
        raise ContractError("solve_int requires per-round capacity a")
    tau = inst.n if prefix_rounds is None else prefix_rounds
    if not 1 <= tau <= inst.n:
        raise InvariantError(f"prefix_rounds must be in [1, {inst.n}]")
    if tau * inst.d > MAX_CANDIDATES * 10:
        raise SizeError(f"{tau * inst.d} z-variables exceeds the LP cap")
    from scipy.sparse import csr_matrix

    d = inst.d
    budget = math.sqrt(d) * inst.per_round_capacity
    counts = round_counts(inst)
    core_part = _core_counts(inst, tau)
    c = np.asarray(inst.c)

    # Variables: z_{ik} for i < tau (row-major), then t.
    # max t  s.t.  sum_k z_ik <= budget,  t - c_k sum_i z_ik <= c_k core_k,  0 <= z_ik <= counts_ik.
    n_z = tau * d
    z = np.arange(n_z)
    dim = z % d
    row_idx = np.concatenate([z // d, tau + dim, tau + np.arange(d)])
    col_idx = np.concatenate([z, z, np.full(d, n_z)])
    vals = np.concatenate([np.ones(n_z), -c[dim], np.ones(d)])
    a_ub = csr_matrix((vals, (row_idx, col_idx)), shape=(tau + d, n_z + 1))
    b_ub = np.concatenate([np.full(tau, budget), c * core_part])
    cost = np.zeros(n_z + 1)
    cost[-1] = -1.0
    bounds = np.zeros((n_z + 1, 2))
    bounds[:n_z, 1] = counts[:tau].ravel()
    bounds[-1, 1] = np.inf
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs-ipm")
    if res.status != 0:
        return (
            LPResult(value=float("nan"), solution=None, status=_status_name(res.status)),
            IntSolution(y=(), z=()),
        )
    _certify_optimal(res, cost, a_ub, b_ub, bounds, "intermediate LP")

    value = float(res.x[-1])
    y = core_mask(inst.cand_lens, d).astype(float)
    y[inst.round_ptr[tau] :] = 0.0
    y_rows = FractionalSolution(y, inst.round_ptr).x
    z_top = np.clip(res.x[:n_z].reshape(tau, d), 0.0, counts[:tau])
    z_rows = [tuple(row) for row in z_top.tolist()] + [(0.0,) * d] * (inst.n - tau)
    sol = IntSolution(y=tuple(y_rows), z=tuple(z_rows))
    achieved = int_objective(inst, sol)
    if achieved < value - LP_TOL:
        raise InvariantError("intermediate LP solution failed re-validation")
    return LPResult(value=value, solution=None, status="optimal"), sol


def int_objective(inst: Instance, sol: IntSolution, eps: float = EPS) -> float:
    """Objective of the intermediate formulation; validates constraints first."""
    if len(sol.y) != inst.n or len(sol.z) != inst.n:
        raise InvariantError("IntSolution shape does not match the instance")
    a = inst.per_round_capacity
    if a is None:
        raise ContractError("int_objective requires per-round capacity a")
    n, d = inst.n, inst.d
    budget = math.sqrt(d) * a
    all_counts = round_counts(inst)
    core = core_mask(inst.cand_lens, d).tolist()
    pos = 0
    for i, (y_row, z_row, counts, size) in enumerate(
        zip(sol.y, sol.z, all_counts.tolist(), np.diff(inst.round_ptr).tolist())
    ):
        if len(y_row) != size or len(z_row) != d:
            raise InvariantError(f"round {i}: IntSolution row shape mismatch")
        for j, yj in enumerate(y_row):
            if core[pos + j]:
                if yj < -eps or yj > 1.0 + eps:
                    raise InvariantError(f"y[{i}][{j}]={yj!r} outside [0,1]")
            elif abs(yj) > eps:
                raise InvariantError(f"y[{i}][{j}] nonzero on a regular candidate")
        pos += size
        if math.fsum(z_row) > budget + eps:
            raise InvariantError(f"round {i}: sum_k z exceeds sqrt(d)*a")
        for k, zik in enumerate(z_row):
            if zik < -eps or zik > counts[k] + eps:
                raise InvariantError(f"z[{i}][{k}]={zik!r} outside [0, phi_k(R_i)]")
    # Per dimension, round i adds its candidates' y (arrival order) and then
    # z_ik; a stable sort on (round, y before z) gives bincount that order.
    y = np.repeat(np.array([v for row in sol.y for v in row], dtype=float), inst.cand_lens)
    bit_round = np.repeat(np.arange(n), np.diff(inst.cand_ptr[inst.round_ptr]))
    order = np.argsort(np.concatenate([2 * bit_round, 2 * np.repeat(np.arange(n), d) + 1]), kind="stable")
    dims = np.concatenate([inst.bits, np.tile(np.arange(d), n)])[order]
    terms = np.concatenate([y, np.array(sol.z, dtype=float).reshape(-1)])[order]
    acc = np.bincount(dims, weights=terms, minlength=d).tolist()
    return min(inst.c[k] * acc[k] for k in range(d))


def adjustment_bounds(u: np.ndarray, caps: np.ndarray, budget: float, c, level: np.ndarray) -> np.ndarray:
    """Dual bounds on the adjustment LPs max min_k (u_k + c_k z_k) s.t.
    sum z <= budget, 0 <= z <= caps, one per row of the n x d ``u``, ``caps``.

    By weak duality, for weights lambda on the simplex the optimum is at most
    sum_k lambda_k u_k plus the best fill of the budget in order of
    lambda_k c_k (Neumaier & Shcherbina, Math. Program. 99, 2004).  The
    smaller of two closed forms is kept: all weight on one dimension k, and
    lambda_k ~ 1/c_k on S = {k : u_k <= level}.  Any lambda is valid, so the
    row's ``level`` only steers tightness; an empty S keeps the first bound.
    """
    u, caps, c = (np.asarray(v, dtype=float) for v in (u, caps, c))
    single = (u + c * np.minimum(caps, budget)).min(axis=1)
    on = u <= np.asarray(level, dtype=float)[:, None]
    weight = np.where(on, 1.0 / c, 0.0).sum(axis=1)
    fill = np.where(on, u / c, 0.0).sum(axis=1) + np.minimum(budget, np.where(on, caps, 0.0).sum(axis=1))
    pooled = np.divide(fill, weight, out=np.full(len(u), np.inf), where=weight > 0.0)
    return np.minimum(single, pooled)


def grid_oracle(inst: Instance, grid_steps: int = 200) -> float:
    """Exhaustive evaluation of the least utility over the grid
    {0, 1/q, ..., 1}^|S| restricted to sum(x) <= K.

    Independent of the LP path.  The result is a certified lower bound on the
    fluid optimum; the gap is at most d * max_k c_k / q.  Exact reductions
    applied before enumerating: dimensions with no arrivals force the answer
    to 0; monotonicity lets the search saturate the budget; candidates with
    identical types are merged (the objective depends only on group totals).
    """
    n_cands = inst.total_candidates
    if n_cands > 5:
        raise SizeError(f"grid oracle limited to 5 candidates, got {n_cands}")
    if grid_steps < 1:
        raise InvariantError("grid_steps must be >= 1")
    phi = marginals(inst)
    if n_cands == 0 or min(phi) == 0 or inst.capacity == 0:
        return 0.0

    first, mult, _ = _candidate_types(inst)
    types = [inst.bits[inst.cand_ptr[j] : inst.cand_ptr[j + 1]].tolist() for j in first.tolist()]
    sizes = mult.tolist()
    q = grid_steps
    budget_units = min(inst.capacity * q, sum(sizes) * q)

    best = 0.0
    caps = [s * q for s in sizes]
    g = len(types)

    def per_dim_cap(rest: list[int]) -> list[int]:
        out = [0] * inst.d
        for idx in rest:
            for k in types[idx]:
                out[k] += caps[idx]
        return out

    suffix_caps = [per_dim_cap(list(range(i, g))) for i in range(g + 1)]

    def dfs(idx: int, remaining: int, acc: list[int]) -> None:
        nonlocal best
        if idx == g:
            if remaining == 0:
                best = max(best, min(inst.c[k] * acc[k] / q for k in range(inst.d)))
            return
        rest_cap = sum(caps[idx:])
        if remaining > rest_cap:
            return
        # Optimistic bound: give every dimension all its remaining coverage.
        ub = min(
            inst.c[k] * (acc[k] + min(remaining, suffix_caps[idx][k])) / q
            for k in range(inst.d)
        )
        if ub <= best + 1e-15:
            return
        lo = max(0, remaining - sum(caps[idx + 1 :]))
        hi = min(caps[idx], remaining)
        for units in range(hi, lo - 1, -1):
            for k in types[idx]:
                acc[k] += units
            dfs(idx + 1, remaining - units, acc)
            for k in types[idx]:
                acc[k] -= units
        return

    dfs(0, budget_units, [0] * inst.d)
    return best

