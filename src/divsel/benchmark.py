"""Exact offline benchmarks: the fluid relaxation, the intermediate (y, z)
formulation with its round-prefix truncation, closed-form bounds on the fluid
optimum and on the one-round adjustment LPs.

A batch of fluid LPs is solved as one block-diagonal LP over candidate
types, by sifting: HiGHS sees only a working set of type columns near each
block's capacity edge, and each block's optimum is certified by a weak-duality
bound from its duals.  g(tau) comes from a Dantzig-Wolfe loop priced by a
closed-form greedy fill.  Every value is certified on return.  HiGHS is
called directly (``linprog``), without scipy.optimize or scipy.sparse.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from typing import Iterable, Iterator, Optional

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
from .errors import ContractError, DivselError, InvariantError, SizeError
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


def _highs():
    """scipy's compiled HiGHS core, loaded from ``scipy/optimize/_highspy/_core`` without importing
    scipy.optimize or scipy.sparse and registered under its own name, so ``import scipy.optimize`` reuses it.
    A scipy without that file (before 1.15) is a DivselError that names the path looked for."""
    name = "scipy.optimize._highspy._core"
    if name not in sys.modules:
        scipy = importlib.util.find_spec("scipy")  # found, not imported
        stem = os.path.join(scipy.submodule_search_locations[0] if scipy else "scipy", "optimize", "_highspy", "_core")
        path = next((stem + suffix for suffix in EXTENSION_SUFFIXES if os.path.isfile(stem + suffix)), None)
        if path is None:
            raise DivselError(f"no HiGHS solver: {stem}{EXTENSION_SUFFIXES[0]} not found (scipy >= 1.15 ships it)")
        spec = importlib.util.spec_from_file_location(name, path, loader=ExtensionFileLoader(name, path))
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@dataclass
class LPSolve:
    """x and the row duals (d objective / d row bound, scipy's ``ineqlin.marginals``), None unless optimal."""

    x: Optional[np.ndarray]
    duals: Optional[np.ndarray]
    optimal: bool
    message: str


def linprog(cost, a, row_lower, row_upper, lower, upper, presolve: bool = False) -> LPSolve:
    """min cost.x s.t. row_lower <= A x <= row_upper, lower <= x <= upper by HiGHS's dual simplex (Huangfu &
    Hall, Math. Prog. Comp. 2018), A as CSC arrays ``(indptr, indices, data)`` with ascending row indices in
    each column.  HiGHS gets the model and options scipy's ``linprog(method="highs")`` gives it, so both
    return the same bits.  A matrix entry that is not finite is refused, an InvariantError."""
    if not np.isfinite(a[2]).all():
        raise InvariantError("LP refused by the solver: a constraint coefficient is not finite")
    h = _highs()
    lp, options, highs = h.HighsLp(), h.HighsOptions(), h._Highs()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(cost)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(row_upper)  # a_matrix_ is column-wise by default
    lp.col_cost_, lp.col_lower_, lp.col_upper_, lp.row_lower_, lp.row_upper_ = cost, lower, upper, row_lower, row_upper
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = a
    options.presolve = "on" if presolve else "off"
    options.simplex_strategy = 1  # the dual simplex
    options.output_flag = options.log_to_console = False
    highs.passOptions(options)
    if highs.passModel(lp) == h.HighsStatus.kError:
        return LPSolve(None, None, False, "HiGHS refused the model")
    highs.run()
    if (status := highs.getModelStatus()) != h.HighsModelStatus.kOptimal:
        return LPSolve(None, None, False, f"model status {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    return LPSolve(np.array(solution.col_value), np.array(solution.row_dual), True, "optimal")


def _columns(a, keep: np.ndarray):
    """The columns of CSC arrays ``a`` where ``keep`` is True."""
    indptr, indices, data = a
    cols = np.flatnonzero(keep)
    ptr = np.append(0, np.cumsum(indptr[cols + 1] - indptr[cols]))
    entries = np.repeat(indptr[cols] - ptr[:-1], np.diff(ptr)) + np.arange(ptr[-1])
    return ptr, indices[entries], data[entries]


def _matvec(a, x: np.ndarray, n_rows: int) -> np.ndarray:
    """A @ x, each row summed in column order as scipy's CSR product sums it, over the columns where x is not 0
    only: a zero term changes no sum, which from +0.0 never reads -0.0."""
    indptr, indices, data = _columns(a, x != 0.0)
    return np.bincount(indices, weights=data * np.repeat(x[x != 0.0], np.diff(indptr)), minlength=n_rows)


def _rmatvec(a, lam: np.ndarray) -> np.ndarray:
    """A^T @ lam, each column summed in row order as scipy sums it, in runs of whole columns of about 2^18
    entries so the temporaries stay small."""
    indptr, indices, data = a
    out = np.zeros(indptr.size - 1)
    cuts = np.unique(np.searchsorted(indptr, np.arange(0, indptr[-1], 2**18), side="right") - 1)  # run starts
    for lo, hi in zip(cuts, [*cuts[1:], indptr.size - 1]):
        cols, run = np.repeat(np.arange(hi - lo), np.diff(indptr[lo : hi + 1])), slice(indptr[lo], indptr[hi])
        out[lo:hi] = np.bincount(cols, weights=data[run] * lam[indices[run]], minlength=hi - lo)
    return out


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


def _fluid_bound(block, lam: np.ndarray, capacity: int) -> float:
    """Weak-duality bound on a fluid block's optimum from its row duals ``lam`` (scipy's sign): for lambda =
    the dimension rows' duals clipped at 0, t <= sum_k lambda_k c_k sum_{j ni k} x_j / sum lambda, so OPT is at
    most the K largest type weights w_j = sum_{k in j} lambda_k c_k, each up to its multiplicity, over sum
    lambda.  No sign error or tolerance makes it too low; it is infinite when every lambda_k is 0."""
    indptr, indices, data, _, upper, _ = block
    lam = np.maximum(-lam, 0.0)
    lam[0] = 0.0  # the capacity row
    weights = _rmatvec((indptr, indices, data), lam)  # -w_j per type, then sum lambda on the t column
    order = np.argsort(weights[:-1], kind="stable")
    mult = upper[order]
    take = np.clip(capacity - (np.cumsum(mult) - mult), 0.0, mult)
    return float(-(take * weights[order]).sum() / weights[-1]) if weights[-1] > 0.0 else math.inf  # no BLAS threads


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
    LP over its distinct types: A_ub as CSC arrays (indptr, int32 row
    indices, data), b_ub, the upper bounds and the type of every candidate;
    the LP is None when some dimension can never be served, so the optimum
    is 0 (x = 0 allowed).  An instance whose type keys (and their sorted
    copy) and CSC arrays cannot fit in memory, or whose LP has more entries
    than int32 indexes, is a SizeError, raised before either is allocated."""
    n_cands, entries = inst.total_candidates, inst.bits.size + inst.total_candidates + inst.d
    # 16 B per key word; 12 B per entry (data and row index), 4 B of indptr per type.
    if (need := 16 * n_cands * ((inst.d + 63) // 64) + 12 * entries + 4 * n_cands) > physical_memory():
        raise SizeError(f"the fluid LP needs {need / 2**30:.1f} GiB, more than the machine's memory")
    if entries >= 2**31:
        raise SizeError(f"the fluid LP has {entries:,} entries, more than int32 indexes")
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
    # Type j's column holds row 0, then rows 1 + bits (increasing); t's holds rows 1..d.
    c, heads = np.asarray(inst.c), np.cumsum(lens) - lens  # each type's first attribute
    indptr = np.concatenate([[0], np.cumsum(lens + 1), [bits.size + n_types + d]]).astype(np.int32)
    indices = np.concatenate([np.insert(bits + 1, heads, 0), np.arange(1, d + 1, dtype=np.int32)])
    data = np.concatenate([np.insert(-c[bits], heads, 1.0), np.ones(d)])
    b_ub = np.zeros(1 + d)
    b_ub[0] = float(inst.capacity)
    return keys, (indptr, indices, data, b_ub, np.append(mult, np.inf), type_of)


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
    trims per type.  x = 0 is feasible and every level bounded, so a status
    other than optimal is the solver's failure, an InvariantError.  Each
    block is certified on its own (``_fluid_result``); one that fails is
    solved again alone, with presolve and then with its rows scaled, and
    must pass one of them.
    """
    results = {i: LPResult(0.0, FractionalSolution(np.zeros(inst.total_candidates), inst.round_ptr), "optimal", True)
               for i, (inst, block) in held.items() if block is None}
    blocks = {i: block for i, (_, block) in held.items() if block is not None}
    if not blocks:
        return list(results.values())
    indptrs, indices, data, b_ubs, uppers, _ = zip(*blocks.values())
    n_rows, n_cols = np.array([b.size for b in b_ubs]), np.array([u.size for u in uppers])
    row_starts, col_starts = np.cumsum(n_rows) - n_rows, np.cumsum(n_cols) - n_cols
    levels = col_starts + n_cols - 1  # each block's t column
    a = indptrs[0], indices[0], data[0]
    if len(blocks) > 1:  # block-diagonal: each block's entries and rows follow the blocks before it
        nnz = np.array([p[-1] for p in indptrs])
        starts = np.repeat(np.cumsum(nnz) - nnz, n_cols)
        a = (np.append(0, np.concatenate([p[1:] for p in indptrs]) + starts).astype(np.int32),
             np.concatenate(indices) + np.repeat(row_starts, nnz).astype(np.int32), np.concatenate(data))
    b_ub = np.concatenate(b_ubs)
    cost = np.zeros(n_cols.sum())
    cost[levels] = -1.0
    upper = np.concatenate(uppers)
    work, up = np.ones(upper.size, dtype=bool), np.zeros(upper.size, dtype=bool)
    sifted = np.flatnonzero(n_cols > 2 * FLUID_SIFT_WIDTH + 1)  # blocks of more than 2 FLUID_SIFT_WIDTH types
    seeds, rhs = [(row_starts[b], np.arange(col_starts[b], levels[b])) for b in sifted], b_ub.copy()
    for row, types in seeds:  # the seed LP: a sample of the types, the capacity scaled to their share
        work[types] = np.arange(types.size) % FLUID_SAMPLE_STRIDE == 0
        rhs[row] *= upper[types[work[types]]].sum() / upper[types].sum()
    for _ in range(FLUID_MAX_SOLVES):
        x = np.where(up, upper, 0.0)
        res = linprog(cost[work], a if work.all() else _columns(a, work), np.full(b_ub.size, -np.inf),
                      rhs - _matvec(a, x, b_ub.size), np.zeros(work.sum()), upper[work])
        if not res.optimal:
            raise InvariantError(f"fluid LP: solve failed: {res.message}")
        x[work], lam = res.x, res.duals
        reduced = cost - _rmatvec(a, lam)
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

    for (i, block), row, start, level in zip(blocks.items(), row_starts, col_starts, levels):
        inst, name = held[i][0], "fluid LP" if alone else f"fluid LP (member {i + 1})"
        result = _fluid_result(inst, block, x[start : level + 1], lam[row : row + inst.d + 1])
        if isinstance(result, str):  # solved alone: with presolve, then with each row k divided by c_k
            indptr, indices, values, row_upper, bound, _ = block
            scaled = np.where(indices == 0, 1.0, -1.0)  # so a dual's error weighs 1 in a type's weight, not c_k
            scaled[indptr[-2] :] = 1.0 / np.asarray(inst.c)
            for data, scale, presolve in ((values, 1.0, True), (scaled, np.append(1.0, inst.c), False)):
                one = linprog(cost[start : level + 1], (indptr, indices, data), np.full(row_upper.size, -np.inf),
                              row_upper, np.zeros(bound.size), bound, presolve=presolve)
                result = (_fluid_result(inst, block, one.x, one.duals / scale) if one.optimal  # the rows' own duals
                          else f"solve failed: {one.message}")
                if not isinstance(result, str):
                    break
        if isinstance(result, str):
            raise InvariantError(f"{name}: {result}")
        results[i] = result
    return [results[i] for i in held]


def _fluid_result(inst: Instance, block, x: np.ndarray, lam: np.ndarray):
    """The ``LPResult`` of a fluid block's point ``x`` (its type columns, then t) and row duals ``lam``, or why
    it fails: x* (each type's capacity-safe mass spread over its copies) must re-validate, and its least
    utility and the level t must be within ``LP_TOL``, relative, of ``_fluid_bound``."""
    *_, upper, type_of = block
    mult, value = upper[:-1], float(x[-1])
    per_type = capacity_safe(np.clip(x[:-1], 0.0, mult) / mult, inst.capacity, mult)
    sol = FractionalSolution(per_type[type_of], inst.round_ptr)
    lu, _ = least_utility(inst, sol)
    if sol.total() > inst.capacity + LP_TOL or lu < value - LP_TOL:
        return "solution failed re-validation"
    bound = _fluid_bound(block, lam, inst.capacity)
    gap = bound - min(value, lu)
    if not gap <= LP_TOL * bound < math.inf:
        return f"duality gap {gap:.3g} exceeds tolerance"
    return LPResult(value=value, solution=sol, status="optimal", degenerate_zero=value <= EPS)


def opt_bounds(inst: Instance) -> tuple[float, float]:
    """Closed-form sandwich for the fluid optimum, from marginals alone."""
    return opt_bounds_from_marginals(inst.d, inst.c, inst.capacity, marginals(inst))


def opt_bounds_from_marginals(d: int, c: tuple[float, ...], capacity: int, phi: list[int]) -> tuple[float, float]:
    under = min(c[k] * min(capacity / d, phi[k]) for k in range(d))
    over = min(c[k] * min(capacity, phi[k]) for k in range(d))
    return under, over


@np.errstate(over="ignore")  # a weight near the float limit overflows to inf, which linprog refuses
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
        a_eq = np.append(np.ones(size), 0.0)
        cols = np.column_stack([np.column_stack([-c[:, None] * pool.T, np.ones(d)]).T, a_eq])  # rows <=, then = 1
        csc = np.append(0, np.cumsum((cols != 0).sum(axis=1))), np.nonzero(cols)[1], cols[cols != 0]  # no zeros
        res = linprog(a_eq - 1.0, csc, np.append(np.full(d, -np.inf), 1.0), np.append(c * core_part, 1.0),
                      np.append(np.zeros(size), -np.inf), np.full(size + 1, np.inf), presolve=True)
        if not res.optimal:  # the master is always feasible and bounded
            raise InvariantError(f"intermediate LP: master solve failed ({res.message})")
        value, duals = float(res.x[-1]), -res.duals[:d]  # t's reduced cost puts them on the simplex
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
