"""Exact offline benchmarks: the fluid relaxation, the intermediate (y, z)
formulation with its round-prefix truncation, closed-form bounds on the fluid
optimum and on the one-round adjustment LPs.

A batch of fluid LPs is solved as one block-diagonal LP over candidate
types, by sifting: HiGHS sees only a working set of type columns near each
block's capacity edge, and the full LP's dual certificate is checked per
block.  g(tau) comes from a Dantzig-Wolfe loop priced by a closed-form greedy
fill.  Every value is certified on return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import (
    EPS,
    FractionalSolution,
    Instance,
    common_prefix_rounds,
    core_mask,
    least_utility,
    marginals,
    physical_memory,
    round_counts,
)
from .errors import ContractError, InvariantError, SizeError
from .rounding import capacity_safe

#: Constraint/value re-validation tolerance for LP results.
LP_TOL = 1e-7
#: Master LP solves after which ``solve_int`` gives up.
INT_MAX_MASTER_SOLVES = 200

#: Rows plus columns of one batched fluid LP.  HiGHS's per-call overhead is
#: paid once per batch, but its working memory grows with the LP: one LP for
#: all 64 fhc members at d = 64 (6,367 rows and columns; 7 batches of this
#: size) was no faster and raised peak RSS by ~14 MB more.
FLUID_BATCH_SIZE = 1024
#: Types on each side of a sifted fluid LP's capacity edge that start in its
#: working set, and the most that join it in one round.
FLUID_SIFT_WIDTH = 1000
#: A sifted fluid LP's seed LP keeps every this-many-th type.
FLUID_SAMPLE_STRIDE = 10
#: Restricted solves after which a fluid LP gives up.
FLUID_MAX_SOLVES = 50


def linprog(*args, **kwargs):
    """scipy's HiGHS ``linprog``; scipy.optimize is imported on the first
    solve, so the commands and streams that solve no LP never load it.  An LP it refuses is an InvariantError."""
    from scipy.optimize import linprog as scipy_linprog

    try:
        return scipy_linprog(*args, **kwargs)
    except ValueError as exc:
        raise InvariantError(f"LP refused by the solver: {exc}") from exc


@dataclass(frozen=True)
class LPResult:
    value: float
    solution: Optional[FractionalSolution]
    status: str  # always optimal: a solve that ends otherwise raises
    degenerate_zero: bool = False


@dataclass(frozen=True)
class IntSolution:
    """Feasible point of the intermediate formulation.

    ``y`` holds one float per candidate in arrival order, the layout of
    ``FractionalSolution.values`` (nonzero only on core candidates); ``z`` is
    an n x d array of per-round utility adjustments.
    """

    y: np.ndarray
    z: np.ndarray


def _certify_optimal(
    cost, a_ub, b_ub: np.ndarray, bounds: np.ndarray, x, lam, names: Sequence[str], row_starts, col_starts
) -> None:
    """Dual certificate of the point ``x`` with row multipliers ``lam`` for
    min c.x s.t. A_ub x <= b_ub, l <= x <= u (Huangfu & Hall, Math. Prog.
    Comp. 2018).

    scipy reports marginals as d fun / d rhs, so dual feasibility means
    lambda <= 0.  The bound multipliers are rebuilt from the reduced costs
    r = c - A_ub^T lambda as mu_u = min(r, 0) and mu_l = max(r, 0), the best
    for this lambda, and must vanish on infinite bounds; then the dual
    objective b_ub.lambda + u.mu_u + l.mu_l bounds every point, and
    optimality means it equals c.x.

    The LP may be block-diagonal: block b owns the rows from ``row_starts[b]``
    and the columns from ``col_starts[b]`` and is called ``names[b]``.  Every
    check is made per block, so a failure names the block it found.
    """
    reduced = cost - a_ub.T @ lam

    def check(values: np.ndarray, limits, message: str) -> None:
        bad = np.flatnonzero(values > limits)
        if bad.size:
            raise InvariantError(f"{names[bad[0]]}: {message.format(values[bad[0]])}")

    def by_col(ufunc, v: np.ndarray) -> np.ndarray:
        return ufunc.reduceat(v, col_starts)

    check(np.maximum.reduceat(lam, row_starts), LP_TOL, "dual multiplier of the wrong sign ({:.3g})")
    dual = np.add.reduceat(b_ub * lam, row_starts)
    for bound, mu in ((bounds[:, 1], np.minimum(reduced, 0.0)), (bounds[:, 0], np.maximum(reduced, 0.0))):
        finite = np.isfinite(bound)
        check(by_col(np.maximum, np.where(finite, 0.0, np.abs(mu))), LP_TOL, "nonzero multiplier on an infinite bound")
        dual += by_col(np.add, np.where(finite, bound, 0.0) * mu)
    primal = by_col(np.add, cost * x)
    check(np.abs(primal - dual), LP_TOL * (1.0 + np.abs(primal)), "duality gap {:.3g} exceeds tolerance")


def _type_keys(inst: Instance, prev: Optional[tuple[Instance, np.ndarray]] = None) -> np.ndarray:
    """Every candidate's attribute set packed into 64-bit words, one row of
    ``(d + 63) // 64`` words per candidate in arrival order.

    A candidate's attributes are distinct, so adding their bits is OR-ing
    them; ``reduceat`` skips candidates without attributes (key 0).  ``prev``
    is an earlier instance and its keys: when its d is the same, the
    candidates of the rounds both hold identically
    (``core.common_prefix_rounds``) copy its keys and only the rest are
    packed.
    """
    words = (inst.d + 63) // 64
    keys = np.zeros((inst.total_candidates, words), dtype=np.uint64)
    start = 0
    if prev is not None and prev[0].d == inst.d:
        start = int(inst.round_ptr[common_prefix_rounds(prev[0], inst)])
        keys[:start] = prev[1][:start]
    ptr = inst.cand_ptr[start:]
    nonempty = ptr[1:] > ptr[:-1]
    bits = inst.bits[ptr[0] :]
    if bits.size:
        ones = np.left_shift(np.uint64(1), (bits % 64).astype(np.uint64))
        word = bits // 64
        rest = keys[start:]
        for w in range(words):
            in_word = np.where(word == w, ones, np.uint64(0))
            rest[nonempty, w] = np.add.reduceat(in_word, ptr[:-1][nonempty] - ptr[0])
    return keys


def _candidate_types(inst: Instance, keys: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct candidate types in first-arrival order: the index of each
    type's first candidate, the types' multiplicities, and the type id of
    every candidate in arrival order.

    Two candidates have the same type iff their attribute sets are equal, so
    iff their ``_type_keys`` rows (``keys``, packed here when omitted) are.
    """
    keys = _type_keys(inst) if keys is None else keys
    if keys.shape[1] == 1:
        keys = keys.reshape(-1)
    else:
        keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)  # sorted keys -> first-arrival order
    type_of = np.argsort(order)[inverse.reshape(-1)]
    return first[order], np.bincount(type_of, minlength=order.size), type_of


def _fluid_block(inst: Instance, prev: Optional[tuple[Instance, np.ndarray]] = None):
    """One instance's type keys (``_type_keys(inst, prev)``) and its fluid
    LP over its distinct types as the (row, column, value) triples of A_ub,
    b_ub, the upper bounds and the type of every candidate; the LP is None
    when some dimension can never be served, so the optimum is 0 (x = 0
    allowed).  An instance whose type keys (and their sorted copy) and LP
    triples cannot fit in memory is a SizeError, raised before either is
    allocated."""
    n_cands = inst.total_candidates
    if (need := 16 * n_cands * ((inst.d + 63) // 64) + 24 * inst.bits.size) > physical_memory():
        raise SizeError(f"the fluid LP needs {need / 2**30:.1f} GiB, more than the machine's memory")
    keys = _type_keys(inst, prev)
    first, mult, type_of = _candidate_types(inst, keys)
    n_types, d = len(first), inst.d
    # The first candidates of the types, in arrival order, are the type table.
    is_first = np.zeros(n_cands, dtype=bool)
    is_first[first] = True
    lens = inst.cand_lens[first]
    bits = inst.bits[np.repeat(is_first, inst.cand_lens)]
    if n_cands == 0 or inst.capacity == 0 or np.bincount(bits, minlength=d).min() == 0:
        return keys, None
    # Variables: X_1..X_T (mass per type), t.
    # max t  s.t.  sum X <= K,  t - c_k sum_{types with k} X <= 0,  0 <= X <= mult.
    c = np.asarray(inst.c)
    row_idx = np.concatenate([np.zeros(n_types, dtype=np.intp), 1 + bits, 1 + np.arange(d)])
    col_idx = np.concatenate([np.arange(n_types), np.repeat(np.arange(n_types), lens), np.full(d, n_types)])
    vals = np.concatenate([np.ones(n_types), -c[bits], np.ones(d)])
    b_ub = np.zeros(1 + d)
    b_ub[0] = float(inst.capacity)
    return keys, (row_idx, col_idx, vals, b_ub, np.append(mult, np.inf), type_of)


def solve_fluid(inst: Instance) -> LPResult:
    """The fluid optimum of one instance: ``solve_fluids([inst])[0]``."""
    return solve_fluids([inst])[0]


def solve_fluids(insts: Iterable[Instance]) -> list[LPResult]:
    """``fluid_results(insts)`` as a list."""
    return list(fluid_results(insts))


def fluid_results(insts: Iterable[Instance]) -> Iterator[LPResult]:
    """Maximize each instance's least utility subject to sum(x) <= K and
    0 <= x <= 1, solving each batch of instances as one LP; each result is
    yielded, in order, as soon as its batch is solved.

    Candidates of one type are interchangeable, so an instance's LP runs over
    its distinct types with the type's mass bounded by its multiplicity; x*
    spreads each type's mass evenly over its copies, after the per-type
    values are made capacity-safe for the rounder, each counted once per
    copy (``rounding.capacity_safe``).

    Each instance is screened (memory, zero optimum) and typed, reusing the
    type keys of the rounds it shares with the instance before it (family
    members share long prefixes); the rest are packed, in order, into
    batches of at most ``FLUID_BATCH_SIZE`` rows plus columns (an LP larger
    than that is a batch of its own); each batch is solved as one
    block-diagonal LP (``_solve_fluid_batch``) when the next instance does
    not fit, so only one batch's instances, arrays and x* are held at a time,
    plus that next instance.  A batch whose blocks have at most 2
    ``FLUID_SIFT_WIDTH`` types each takes one HiGHS call; a larger LP is
    sifted, in a few calls over at most a few thousand of its types.
    """
    held, size, prev = {}, 0, None  # instance index -> (instance, its block, or None for a zero optimum)
    for i, inst in enumerate(insts):
        keys, block = _fluid_block(inst, prev)
        prev = inst, keys
        block_size = 0 if block is None else block[3].size + block[4].size  # rows + columns
        if size and size + block_size > FLUID_BATCH_SIZE:
            yield from _solve_fluid_batch(held, alone=False)
            held, size = {}, 0
        held[i], size = (inst, block), size + block_size
    yield from _solve_fluid_batch(held, alone=list(held) == [0])


def _solve_fluid_batch(held: dict, alone: bool) -> list[LPResult]:
    """Solve the fluid LPs of ``held`` (instance index -> instance and its
    ``_fluid_block``) as the blocks of one block-diagonal LP whose objective
    is the sum of their levels, and return each instance's ``LPResult`` in
    order; an instance whose block is None has the zero optimum.  ``alone``
    names the one LP of a single instance "fluid LP", not by member.

    Blocks share no row, so the batch's optimum is every block's own optimum.
    The LP is solved by bounded sifting over its type columns (Bixby et al.,
    Oper. Res. 40(5), 1992): each column is in the working set or fixed at a
    bound, and the LP over the working set, with the fixed columns moved into
    the right-hand side, is solved until its duals price no fixed column
    wrong.  Each round the most wrongly priced ``FLUID_SIFT_WIDTH`` columns
    join, and working columns at a bound that their reduced cost holds by
    more than any joining column's error leave at that bound, so the level
    never falls.  A block of more than 2 ``FLUID_SIFT_WIDTH`` types is seeded
    by an LP on every ``FLUID_SAMPLE_STRIDE``-th type, its capacity scaled by
    their share of the multiplicity: in order of reduced cost under its duals,
    the types more than ``FLUID_SIFT_WIDTH`` above the capacity edge start at
    their multiplicity, those more than that below it at 0, unless the
    seed's capacity did not bind.  Every other block starts whole.

    HiGHS runs without presolve: the blocks are small and presolve costs more
    than it saves.  An x* on the capacity edge is safe, as ``capacity_safe``
    trims per type.  Each block gets its own dual certificate over all its
    columns, and its x* is re-validated against its own instance.  x = 0 is feasible and every level
    bounded, so a status other than optimal is the solver's failure, an InvariantError.
    """
    from scipy.sparse import csr_matrix

    results = {i: LPResult(0.0, FractionalSolution(np.zeros(inst.total_candidates), inst.round_ptr), "optimal", True)
               for i, (inst, block) in held.items() if block is None}
    blocks = {i: block for i, (_, block) in held.items() if block is not None}
    if not blocks:
        return list(results.values())
    row_idx, col_idx, vals, b_ubs, uppers, _ = zip(*blocks.values())
    n_rows, n_cols = np.array([b.size for b in b_ubs]), np.array([u.size for u in uppers])
    row_starts, col_starts = np.cumsum(n_rows) - n_rows, np.cumsum(n_cols) - n_cols
    levels = col_starts + n_cols - 1  # each block's t column
    rows = np.concatenate([r + start for r, start in zip(row_idx, row_starts)])
    cols = np.concatenate([c + start for c, start in zip(col_idx, col_starts)])
    a_ub = csr_matrix((np.concatenate(vals), (rows, cols)), shape=(n_rows.sum(), n_cols.sum()))
    b_ub = np.concatenate(b_ubs)
    cost = np.zeros(a_ub.shape[1])
    cost[levels] = -1.0
    bounds = np.zeros((a_ub.shape[1], 2))
    upper = bounds[:, 1] = np.concatenate(uppers)
    work, up = np.ones(upper.size, dtype=bool), np.zeros(upper.size, dtype=bool)
    sifted = np.flatnonzero(n_cols > 2 * FLUID_SIFT_WIDTH + 1)  # blocks of more than 2 FLUID_SIFT_WIDTH types
    seeds, rhs = [(row_starts[b], np.arange(col_starts[b], levels[b])) for b in sifted], b_ub.copy()
    for row, types in seeds:  # the seed LP: a sample of the types, the capacity scaled to their share
        work[types] = np.arange(types.size) % FLUID_SAMPLE_STRIDE == 0
        rhs[row] *= upper[types[work[types]]].sum() / upper[types].sum()
    for _ in range(FLUID_MAX_SOLVES):
        x = np.where(up, upper, 0.0)
        res = linprog(cost[work], A_ub=a_ub[:, work], b_ub=rhs - a_ub @ x, bounds=bounds[work], method="highs",
                      options={"presolve": False})
        if res.status != 0:
            raise InvariantError(f"fluid LP: solve failed: {res.message}")
        x[work], lam = res.x, res.ineqlin.marginals
        reduced = cost - a_ub.T @ lam
        for row, types in seeds:  # fix the types far from the capacity edge
            order = types[np.argsort(reduced[types], kind="stable")]
            edge = np.searchsorted(np.cumsum(upper[order]), b_ub[row], side="right")
            width = FLUID_SIFT_WIDTH if lam[row] < -EPS else types.size  # no edge shows if capacity did not bind
            up[order[: max(edge - width, 0)]], work[order] = True, False
            work[order[max(edge - width, 0) : edge + width]] = True
        if seeds:
            rhs, seeds = b_ub, []
            continue
        wrong = np.flatnonzero(~work & np.where(up, reduced > EPS, reduced < -EPS))
        if not wrong.size:
            break
        wrong = wrong[np.argsort(-np.abs(reduced[wrong]), kind="stable")[:FLUID_SIFT_WIDTH]]
        clear = np.abs(reduced[wrong[0]])
        leave = work & np.isfinite(upper) & (((x == upper) & (reduced < -clear)) | ((x == 0.0) & (reduced > clear)))
        up |= leave & (x == upper)
        work[leave], work[wrong], up[wrong] = False, True, False
    else:
        raise InvariantError(f"fluid LP: no convergence in {FLUID_MAX_SOLVES} restricted solves")
    names = {i: "fluid LP" if alone else f"fluid LP (member {i + 1})" for i in blocks}
    _certify_optimal(cost, a_ub, b_ub, bounds, x, lam, list(names.values()), row_starts, col_starts)

    for (i, (*_, bound, type_of)), start, level in zip(blocks.items(), col_starts, levels):
        inst, mult = held[i][0], bound[:-1]
        value = float(x[level])
        per_type = capacity_safe(np.clip(x[start:level], 0.0, mult) / mult, inst.capacity, mult)
        sol = FractionalSolution(per_type[type_of], inst.round_ptr)
        lu, _ = least_utility(inst, sol)
        if sol.total() > inst.capacity + LP_TOL or lu < value - LP_TOL:
            raise InvariantError(f"{names[i]} solution failed re-validation")
        results[i] = LPResult(value=value, solution=sol, status="optimal", degenerate_zero=value <= EPS)
    return [results[i] for i in held]


def opt_bounds(inst: Instance) -> tuple[float, float]:
    """Closed-form sandwich for the fluid optimum, from marginals alone."""
    return opt_bounds_from_marginals(inst.d, inst.c, inst.capacity, marginals(inst))


def opt_bounds_from_marginals(d: int, c: tuple[float, ...], capacity: int, phi: list[int]) -> tuple[float, float]:
    under = min(c[k] * min(capacity / d, phi[k]) for k in range(d))
    over = min(c[k] * min(capacity, phi[k]) for k in range(d))
    return under, over


def solve_int(inst: Instance, prefix_rounds: Optional[int] = None) -> LPResult:
    """Optimum g(tau) of the intermediate formulation truncated to the first
    ``prefix_rounds`` rounds (the full horizon when omitted).

    y = 1 on core candidates is optimal and only z's totals Z_k matter, so a
    Dantzig-Wolfe master (Dantzig & Wolfe, Oper. Res. 8, 1960) of d + 1 rows,
    max t s.t. t <= c_k (core_k + sum_p theta_p Z^p_k), sum theta = 1, starts
    from one column per dimension.  Each solve prices its duals and the pooled
    lambda (``_price``); a point that beats every column under its lambda
    joins them.  The value is returned once the duals lie on the simplex, the
    recovered z passes ``int_objective`` and the least bound U(lambda) is
    within ``LP_TOL``.
    """
    if inst.per_round_capacity is None:
        raise ContractError("solve_int requires per-round capacity a")
    tau = inst.n if prefix_rounds is None else prefix_rounds
    if not 1 <= tau <= inst.n:
        raise InvariantError(f"prefix_rounds must be in [1, {inst.n}]")
    d, c = inst.d, np.asarray(inst.c)
    if (need := 8 * d * (2 * inst.n + 3 * tau)) > physical_memory():  # n x d counts and z, 3 tau x d fill arrays
        raise SizeError(f"g({tau}) needs {need / 2**30:.1f} GiB, more than the machine's memory")
    budget, counts = math.sqrt(d) * inst.per_round_capacity, round_counts(inst)[:tau].astype(float)
    y = (core_mask(inst.cand_lens, d) & (np.arange(inst.total_candidates) < inst.round_ptr[tau])).astype(float)
    core_part = np.bincount(inst.bits, weights=np.repeat(y, inst.cand_lens), minlength=d)
    orders, columns, bounds = map(list, zip(*(_price(counts, budget, c, core_part, lam) for lam in np.eye(d))))
    for _ in range(INT_MAX_MASTER_SOLVES):
        pool, size = np.array(columns), len(columns)  # variables theta_p, then t (free); cost a_eq - 1 is -t
        a_ub, a_eq = np.column_stack([-c[:, None] * pool.T, np.ones(d)]), np.append(np.ones(size), 0.0)
        res = linprog(a_eq - 1.0, a_ub, c * core_part, a_eq[None], [1.0], [(0, None)] * size + [(None, None)])
        if res.status != 0:  # the master is always feasible and bounded
            raise InvariantError(f"intermediate LP: master solve failed ({res.message})")
        value, duals = float(res.x[-1]), -res.ineqlin.marginals  # t's reduced cost puts them on the simplex
        if duals.min() < -LP_TOL or abs(duals.sum() - 1.0) > LP_TOL:
            raise InvariantError("intermediate LP: master duals are off the simplex")
        utility = c * (core_part + res.x[:-1] @ pool)
        lowest = utility <= utility.min() + LP_TOL * (1.0 + utility.min())  # pooled: lambda ~ 1/c there
        for lam in (np.maximum(duals, 0.0), np.where(lowest, 1.0 / c, 0.0)):
            order, totals, upper = _price(counts, budget, c, core_part, lam)
            bounds.append(upper)
            if upper > ((core_part + pool) @ (c * lam)).max() / lam.sum() + 1e-12 * (1.0 + upper):
                orders, columns = orders + [order], columns + [totals]
        if len(columns) == size or min(bounds) - value <= 1e-13 * (1.0 + abs(value)):
            break
    else:
        raise InvariantError(f"intermediate LP: no convergence in {INT_MAX_MASTER_SOLVES} master solves")
    theta, z = np.maximum(res.x[:-1], 0.0), np.zeros((inst.n, d))
    for p in np.flatnonzero(theta):
        z[:tau, orders[p]] += theta[p] / theta.sum() * _greedy_fill(counts, budget, orders[p])
    if int_objective(inst, IntSolution(y, z)) < value - LP_TOL:
        raise InvariantError("intermediate LP solution failed re-validation")
    if min(bounds) - value > LP_TOL * (1.0 + abs(value)):
        raise InvariantError(f"intermediate LP: duality gap {min(bounds) - value:.3g} exceeds tolerance")
    return LPResult(value=value + 0.0, solution=None, status="optimal")  # + 0.0: a zero g never reads -0


def _price(counts: np.ndarray, budget: float, c: np.ndarray, core_part: np.ndarray, lam: np.ndarray):
    """Fill order, totals Z and bound U(lam) = sum_k lam_k c_k (core_k + Z_k) >= g for ``lam`` >= 0: filling each
    round by decreasing lam_k c_k (least served first on ties) maximises lam.cZ, so weak duality holds."""
    weights = c * (lam / lam.sum())
    order = np.lexsort((c * core_part, -weights))
    totals = _greedy_fill(counts, budget, order).sum(axis=0)[np.argsort(order)]
    return order, totals, float(weights @ (core_part + totals))


def _greedy_fill(counts: np.ndarray, budget: float, order: np.ndarray) -> np.ndarray:
    """Each round's budget filled in dimension ``order`` up to its counts (columns in that order)."""
    block = counts[:, order]
    spent = np.cumsum(block, axis=1)
    spent -= block  # spent before each dimension
    return np.clip(budget - spent, 0.0, block, out=spent)


def int_objective(inst: Instance, sol: IntSolution) -> float:
    """Objective of the intermediate formulation; validates constraints first,
    kind by kind: y entries, then round budgets, then z entries."""
    y, z = np.asarray(sol.y, dtype=float), np.asarray(sol.z, dtype=float)
    n, d = inst.n, inst.d
    if y.shape != inst.cand_lens.shape or z.shape != (n, d):
        raise InvariantError("IntSolution shape does not match the instance")
    a = inst.per_round_capacity
    if a is None:
        raise ContractError("int_objective requires per-round capacity a")
    budget = math.sqrt(d) * a
    core = core_mask(inst.cand_lens, d)
    bad = np.flatnonzero(np.where(core, (y < -EPS) | (y > 1.0 + EPS), np.abs(y) > EPS))
    if bad.size:
        p = int(bad[0])
        i = int(np.searchsorted(inst.round_ptr, p, side="right")) - 1
        j = p - int(inst.round_ptr[i])
        if core[p]:
            raise InvariantError(f"y[{i}][{j}]={float(y[p])!r} outside [0,1]")
        raise InvariantError(f"y[{i}][{j}] nonzero on a regular candidate")
    for i, row in enumerate(z.tolist()):
        if math.fsum(row) > budget + EPS:
            raise InvariantError(f"round {i}: sum_k z exceeds sqrt(d)*a")
    bad = np.argwhere((z < -EPS) | (z > round_counts(inst) + EPS))
    if bad.size:
        i, k = bad[0].tolist()
        raise InvariantError(f"z[{i}][{k}]={float(z[i, k])!r} outside [0, phi_k(R_i)]")
    # Per dimension, round i adds its candidates' y (arrival order) and then
    # z_ik; a stable sort on (round, y before z) gives bincount that order.
    bit_round = np.repeat(np.arange(n), np.diff(inst.cand_ptr[inst.round_ptr]))
    order = np.argsort(np.concatenate([2 * bit_round, 2 * np.repeat(np.arange(n), d) + 1]), kind="stable")
    dims = np.concatenate([inst.bits, np.tile(np.arange(d), n)])[order]
    terms = np.concatenate([np.repeat(y, inst.cand_lens), z.reshape(-1)])[order]
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
