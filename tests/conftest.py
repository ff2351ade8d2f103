import math
import random
from fractions import Fraction

import numpy as np
import pytest

from divsel.core import Instance
from divsel.errors import DimensionError


def fill_value(u, z, c):
    """Objective min_k (u_k + c_k z_k) achieved by an adjustment vector."""
    return float((np.asarray(u) + np.asarray(c) * np.asarray(z)).min())


def make_instance(d, cand_rounds, capacity, c=None, a=None):
    """Compact instance builder: cand_rounds is a list of rounds, each a list
    of attribute-index tuples."""
    return Instance.from_bit_lists(
        d=d,
        c=tuple(c) if c is not None else tuple(1.0 for _ in range(d)),
        capacity=capacity,
        rounds=[[sorted(bits) for bits in rnd] for rnd in cand_rounds],
        per_round_capacity=a,
    )


def make_round(d, cands):
    """One ``Round`` over d dimensions holding the given attribute-index
    tuples, in order: the only round of an instance built for it."""
    return make_instance(d, [cands], capacity=0).rounds[0]


def random_feasible_x(inst, seed, saturate=False):
    """Seeded feasible fractional solution with boundary values mixed in."""
    rng = random.Random(seed)
    rows = []
    for rnd in inst.rounds:
        row = []
        for _ in rnd:
            roll = rng.random()
            if roll < 0.15:
                row.append(0.0)
            elif roll < 0.3:
                row.append(1.0)
            else:
                row.append(rng.random())
        rows.append(row)
    total = sum(v for row in rows for v in row)
    if total > inst.capacity and total > 0:
        scale = inst.capacity / total
        rows = [[v * scale for v in row] for row in rows]
    from divsel.core import solution_from_rows

    return solution_from_rows(rows)


def adjustment_lp(u, caps, budget, c):
    """Test-only oracle: round i's utility-adjustment LP
    max min_k (u_k + c_k z_k) s.t. sum z <= budget, 0 <= z_k <= caps_k, solved
    by HiGHS over z_1..z_d and the level t.  Returns (optimum, z).

    HiGHS may overrun a bound or the budget by its feasibility tolerance
    (z = 1e-7 against a zero budget), so z is first clipped and scaled back
    into the feasible set and the optimum is read at that z: it never exceeds
    the true optimum."""
    from scipy.optimize import linprog

    d = len(u)
    a_ub = np.zeros((1 + d, d + 1))
    a_ub[0, :d] = 1.0
    a_ub[1:, :d] = -np.diag(np.asarray(c, dtype=float))
    a_ub[1:, d] = 1.0
    b_ub = np.concatenate([[budget], np.asarray(u, dtype=float)])
    cost = np.zeros(d + 1)
    cost[d] = -1.0
    bounds = [(0.0, float(cap)) for cap in caps] + [(None, None)]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    z = np.clip(res.x[:d], 0.0, caps)
    if z.sum() > budget:
        z *= budget / z.sum()
    return fill_value(u, z, c), z.tolist()


def grid_oracle(inst, grid_steps=200):
    """Test-only oracle: exhaustive evaluation of the least utility over the grid
    {0, 1/q, ..., 1}^|S| restricted to sum(x) <= K.

    Independent of the LP path.  The result is a certified lower bound on the
    fluid optimum; the gap is at most d * max_k c_k / q.  Exact reductions
    applied before enumerating: dimensions with no arrivals force the answer
    to 0; monotonicity lets the search saturate the budget; candidates with
    identical types are merged (the objective depends only on group totals).

    The search runs depth first over the types' unit counts and skips a
    subtree whose upper bound is within 1e-15 of the best point found.  The
    bounds are closed-form weak duality (no LP): for weights proportional to
    1/c_k on a set S of dimensions, min_k c_k A_k <= sum_S A_k / sum_S 1/c_k,
    and sum_S A_k is at most the units already placed on S plus the remaining
    units filled in order of each type's coverage of S.  The sets are every
    single dimension and the prefixes of the dimensions by current utility.
    The last two types are not enumerated: see ``pair_best``.
    """
    from divsel.benchmark import _candidate_types
    from divsel.core import marginals
    from divsel.errors import InvariantError, SizeError

    n_cands = inst.total_candidates
    if n_cands > 5:
        raise SizeError(f"grid oracle limited to 5 candidates, got {n_cands}")
    if grid_steps < 1:
        raise InvariantError("grid_steps must be >= 1")
    phi = marginals(inst)
    if n_cands == 0 or min(phi) == 0 or inst.capacity == 0:
        return 0.0

    first, mult, _ = _candidate_types(inst)
    types = [set(inst.bits[inst.cand_ptr[j] : inst.cand_ptr[j + 1]].tolist()) for j in first.tolist()]
    q, c, d, g = grid_steps, inst.c, inst.d, len(types)
    caps = [s * q for s in mult.tolist()]
    budget_units = min(inst.capacity * q, sum(caps))
    suffix_caps = [[sum(caps[t] for t in range(i, g) if k in types[t]) for k in range(d)] for i in range(g + 1)]
    best = 0.0

    def pooled_bound(idx: int, remaining: int, acc: list[int]) -> float:
        bound, placed, weight, dims = math.inf, 0, 0.0, set()
        for k in sorted(range(d), key=lambda k: c[k] * acc[k]):
            dims.add(k)
            placed += acc[k]
            weight += 1.0 / c[k]
            fill, left = 0, remaining
            for cover, cap in sorted(((len(types[t] & dims), caps[t]) for t in range(idx, g)), reverse=True):
                take = min(cap, left)
                fill, left = fill + cover * take, left - take
            bound = min(bound, (placed + fill) / (q * weight))
        return bound

    def pair_best(idx: int, remaining: int, acc: list[int]) -> float:
        """Grid maximum with u units on type ``idx`` and the rest on the last
        type.  Utilities of the dimensions only the first covers rise with u
        and those only the last covers fall, so the maximum lies where the
        rising minimum first reaches the falling one, found by bisection."""
        rise, fall = types[idx], types[idx + 1]
        lo, hi = max(0, remaining - caps[idx + 1]), min(caps[idx], remaining)

        def parts(u: int) -> list[float]:  # minima over rising, falling, other dimensions
            out = [math.inf] * 3
            for k in range(d):
                side = 2 if (k in rise) == (k in fall) else int(k in fall)
                out[side] = min(out[side], c[k] * (acc[k] + u * (k in rise) + (remaining - u) * (k in fall)) / q)
            return out

        a, b = lo, hi + 1
        while a < b:
            mid = (a + b) // 2
            rising, falling, _ = parts(mid)
            a, b = (a, mid) if rising >= falling else (mid + 1, b)
        return max(min(parts(u)) for u in (a - 1, a) if lo <= u <= hi)

    def dfs(idx: int, remaining: int, acc: list[int]) -> None:
        nonlocal best
        if idx == g:
            if remaining == 0:
                best = max(best, min(c[k] * acc[k] / q for k in range(d)))
            return
        if remaining > sum(caps[idx:]):
            return
        # Optimistic bound: give every dimension all its remaining coverage.
        ub = min(c[k] * (acc[k] + min(remaining, suffix_caps[idx][k])) / q for k in range(d))
        if ub <= best + 1e-15 or pooled_bound(idx, remaining, acc) <= best + 1e-15:
            return
        if idx == g - 2:
            value = pair_best(idx, remaining, acc)
            if value > best + 1e-15:
                best = value
            return
        lo = max(0, remaining - sum(caps[idx + 1 :]))
        hi = min(caps[idx], remaining)
        for units in range(hi, lo - 1, -1):
            for k in types[idx]:
                acc[k] += units
            dfs(idx + 1, remaining - units, acc)
            for k in types[idx]:
                acc[k] -= units

    dfs(0, budget_units, [0] * d)
    return best


def dfs_grid_oracle(inst, grid_steps):
    """Test-only oracle: ``grid_oracle``'s depth-first search with only its
    per-dimension bound, kept as the reference that the pruned search must
    equal."""
    from divsel.benchmark import _candidate_types
    from divsel.core import marginals

    phi = marginals(inst)
    if inst.total_candidates == 0 or min(phi) == 0 or inst.capacity == 0:
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


def tiny_grid_instances():
    """Instances of at most five candidates, small enough for the grid oracle."""
    return [
        make_instance(1, [[(0,)]], capacity=1),
        make_instance(2, [[(0, 1)]], capacity=1),
        make_instance(2, [[(0,), (1,)]], capacity=1),
        make_instance(2, [[(0,), (1,), (0, 1)]], capacity=2),
        make_instance(3, [[(0, 1), (1, 2), (0, 2)]], capacity=2),
        make_instance(3, [[(0,), (1,), (2,), (0, 1, 2)]], capacity=2),
        make_instance(4, [[(0, 1), (2, 3), (0, 2), (1, 3), (0, 1, 2, 3)]], capacity=2),
        make_instance(2, [[(0,), (0,), (1,), (1,)]], capacity=3),
        make_instance(3, [[(0, 1), (1, 2), (0, 2), (0, 1, 2)]], capacity=4, c=[1.0, 1.5, 2.0]),
        make_instance(1, [[(0,), (0,), (0,), (0,), (0,)]], capacity=2),
        make_instance(2, [[(0, 1), (0, 1), (0,), (1,)]], capacity=3),
        make_instance(5, [[(0, 1, 2, 3, 4)]], capacity=1),
    ]


@pytest.fixture
def tiny_instance():
    return make_instance(2, [[(0,), (1,)]], capacity=2)


def exact_total(x_flat):
    """Test-only oracle: the exact sum of the fractions clipped to [0, 1]."""
    return sum(map(Fraction, np.clip(np.asarray(x_flat, dtype=float), 0.0, 1.0).tolist()), Fraction(0))


def line_boundaries(x_flat):
    """Test-only exact model of the rounder's line: the clipped fractions and
    the boundary before the first candidate and after each one, the exact
    prefix sum of the clipped fractions rounded down to a multiple of 2^-53,
    in ``Fraction`` arithmetic."""
    x = np.clip(np.asarray(x_flat, dtype=float), 0.0, 1.0).tolist()
    total, bounds = Fraction(0), [Fraction(0)]
    for xj in x:
        if xj > 0.0:
            total += Fraction(xj)
            bounds.append(Fraction(math.floor(total * 2**53), 2**53))
        else:
            bounds.append(bounds[-1])
    return x, bounds


def points_below(bound, pos):
    """The points l + pos (integers l >= 0) below ``bound``, at each offset of
    ``pos``; the fractional part of a bound is a multiple of 2^-53, so its
    float is exact."""
    whole = math.floor(bound)
    return whole + (float(bound - whole) > pos)


def offset_selections(x_flat, pos):
    """Test-only oracle: the rounder's picks at many offsets at once,
    ``(j, mask over pos)`` for every candidate with x_j > 0: j is picked iff
    the model line holds more points below its end than below its start."""
    x, bounds = line_boundaries(x_flat)
    prev = points_below(bounds[0], pos)
    for j, xj in enumerate(x):
        if xj > 0.0:  # a zero fraction leaves the boundary where it is
            cur = points_below(bounds[j + 1], pos)
            yield j, cur > prev
            prev = cur


def selection_intervals(x_flat):
    """Idealized wrap-around model: candidate j owns the offsets in the wrap
    of the model line's [b_j, b_{j+1}) into [0, 1), of Lebesgue measure
    b_{j+1} - b_j.  Computed by exact interval arithmetic, independent of the
    rounder's predicate."""
    x, bounds = line_boundaries(x_flat)
    out = []
    for xj, start, end in zip(x, bounds, bounds[1:]):
        if xj <= 0.0:
            out.append([])
            continue
        lo = start - math.floor(start)
        hi = lo + (end - start)
        out.append([(lo, hi)] if hi <= 1 else [(lo, Fraction(1)), (Fraction(0), hi - 1)])
    return out


def ref_int_objective(inst, y_rows, z_rows, eps=1e-9):
    """Test-only oracle: ``benchmark.int_objective`` as a scalar loop over
    per-round tuples of y and z, validating round by round, kept as the
    reference the array version must equal in value and in its errors."""
    import math

    from divsel.core import core_mask, round_counts
    from divsel.errors import ContractError, InvariantError

    if len(y_rows) != inst.n or len(z_rows) != inst.n:
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
        zip(y_rows, z_rows, all_counts.tolist(), np.diff(inst.round_ptr).tolist())
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
    y = np.repeat(np.array([v for row in y_rows for v in row], dtype=float), inst.cand_lens)
    bit_round = np.repeat(np.arange(n), np.diff(inst.cand_ptr[inst.round_ptr]))
    order = np.argsort(np.concatenate([2 * bit_round, 2 * np.repeat(np.arange(n), d) + 1]), kind="stable")
    dims = np.concatenate([inst.bits, np.tile(np.arange(d), n)])[order]
    terms = np.concatenate([y, np.array(z_rows, dtype=float).reshape(-1)])[order]
    acc = np.bincount(dims, weights=terms, minlength=d).tolist()
    return min(inst.c[k] * acc[k] for k in range(d))


def ref_gen_random(d, n, a, density, min_arrivals, c_max, seed):
    """The scalar loop over ``random.Random(seed)`` that ``gen_random`` draws
    in blocks; the two must build the same instance."""
    if not 0.0 < density <= 1.0:
        raise DimensionError("density must be in (0, 1]")
    if min_arrivals < 1 or n < 1 or a < 1:
        raise DimensionError("n, a and min_arrivals must be >= 1")
    rng = random.Random(seed)
    rounds = []
    for _ in range(n):
        base = rng.randint(1, max(2, d))
        cands = []
        counts = [0] * d
        for _ in range(base):
            bits = [k for k in range(d) if rng.random() < density]
            cands.append(bits)
            for k in bits:
                counts[k] += 1
        for k in range(d):
            while counts[k] < min_arrivals:
                cands.append([k])
                counts[k] += 1
        rng.shuffle(cands)
        rounds.append(cands)
    c = [1.0 + (c_max - 1.0) * rng.random() for _ in range(d)]
    c[rng.randrange(d)] = 1.0
    return Instance.from_bit_lists(
        d=d,
        c=tuple(c),
        capacity=n * a,
        rounds=tuple(rounds),
        per_round_capacity=a,
    )


def sparse_int_value(inst, tau):
    """Test-only oracle: g(tau) as one sparse LP over the whole tau x d z
    block (y = 1 on the core candidates of the first tau rounds), solved by
    HiGHS's interior point method with crossover to a vertex.

    Variables: z_{ik} for i < tau (row-major), then t.
    max t  s.t.  sum_k z_ik <= sqrt(d) a,  t - c_k sum_i z_ik <= c_k core_k,
    0 <= z_ik <= counts_ik."""
    import math

    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    from divsel.core import core_mask, round_counts

    d = inst.d
    budget = math.sqrt(d) * inst.per_round_capacity
    y = core_mask(inst.cand_lens, d).astype(float)
    y[inst.round_ptr[tau] :] = 0.0
    core_part = np.bincount(inst.bits, weights=np.repeat(y, inst.cand_lens), minlength=d)
    c = np.asarray(inst.c)
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
    bounds[:n_z, 1] = round_counts(inst)[:tau].ravel()
    bounds[-1, 1] = np.inf
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs-ipm")
    assert res.status == 0, res.message
    return float(res.x[-1])


def type_fluid_lp(inst):
    """Test-only oracle: the fluid LP over the instance's distinct types as
    one HiGHS call with every type column,
    max t  s.t.  sum_T X_T <= K,  t <= c_k sum_{T with k} X_T,  0 <= X_T <= mult_T.
    Returns the optimum and x per candidate, X_T / mult_T of its type."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    from divsel.benchmark import _candidate_types

    first, mult, type_of = _candidate_types(inst)
    n_types, d, c = len(first), inst.d, np.asarray(inst.c)
    lens = inst.cand_lens[first]
    bits = np.concatenate([inst.bits[inst.cand_ptr[j] : inst.cand_ptr[j + 1]] for j in first.tolist()])
    row_idx = np.concatenate([np.zeros(n_types, dtype=np.intp), 1 + bits, 1 + np.arange(d)])
    col_idx = np.concatenate([np.arange(n_types), np.repeat(np.arange(n_types), lens), np.full(d, n_types)])
    vals = np.concatenate([np.ones(n_types), -c[bits], np.ones(d)])
    a_ub = csr_matrix((vals, (row_idx, col_idx)), shape=(1 + d, n_types + 1))
    b_ub = np.zeros(1 + d)
    b_ub[0] = float(inst.capacity)
    cost = np.zeros(n_types + 1)
    cost[-1] = -1.0
    bounds = np.column_stack([np.zeros(n_types + 1), np.append(mult, np.inf)])
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(res.x[-1]), (np.clip(res.x[:-1], 0.0, mult) / mult)[type_of]
