"""Reference values the workloads' outputs are checked against.

``reference.json`` stores the seed-independent expectations: the exact verdict
lines of the two adversarial families and the verdict names and statuses of a
random instance.  Seed-dependent numbers are recomputed here from the raw
instance document, with code that shares nothing with ``divsel``: the fluid
optimum from a linear program over distinct attribute types, utilities and
feasibility from plain arithmetic on the emitted fractions.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("reference.json")


@functools.cache
def stored() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def fluid_opt(doc: dict) -> float:
    """max_x min_k c_k sum_j x_j t_jk  s.t.  sum x <= K, 0 <= x <= 1.

    Candidates of one type are interchangeable, so the LP runs over distinct
    types with bounds [0, multiplicity].
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    d, c, cap = doc["d"], doc["c"], doc["K"]
    mult: dict[tuple[int, ...], int] = {}
    for rnd in doc["rounds"]:
        for bits in rnd:
            mult[tuple(bits)] = mult.get(tuple(bits), 0) + 1
    covered = {k for bits in mult for k in bits}
    if cap == 0 or len(covered) < d:
        return 0.0
    types = list(mult)
    rows, cols, vals = [], [], []
    for col, bits in enumerate(types):
        rows.append(0)
        cols.append(col)
        vals.append(1.0)
        for k in bits:
            rows.append(1 + k)
            cols.append(col)
            vals.append(-c[k])
    level = len(types)
    for k in range(d):
        rows.append(1 + k)
        cols.append(level)
        vals.append(1.0)
    a_ub = coo_matrix((vals, (rows, cols)), shape=(1 + d, level + 1)).tocsr()
    b_ub = np.zeros(1 + d)
    b_ub[0] = cap
    cost = np.zeros(level + 1)
    cost[-1] = -1.0
    bounds = [(0.0, float(mult[t])) for t in types] + [(0.0, None)]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.x[-1])


def least_utility(doc: dict, x_rows) -> float:
    acc = [0.0] * doc["d"]
    for rnd, row in zip(doc["rounds"], x_rows):
        for bits, xj in zip(rnd, row):
            for k in bits:
                acc[k] += xj
    return min(ck * a for ck, a in zip(doc["c"], acc))


def infeasibility(doc: dict, x_rows, mode: str, eps: float = 1e-9) -> list[str]:
    """Violations of 0 <= x <= 1, sum x <= K and, in ``per_round_prefix``
    mode, prefix mass <= i * a through every round i."""
    errors = []
    if [len(r) for r in x_rows] != [len(r) for r in doc["rounds"]]:
        return ["solution shape differs from the instance"]
    prefix = 0.0
    for i, row in enumerate(x_rows):
        if any(not (-eps <= v <= 1.0 + eps) for v in row):
            errors.append(f"round {i}: fraction outside [0, 1]")
        prefix = math.fsum([prefix, *row])
        if mode == "per_round_prefix" and prefix > (i + 1) * doc["a"] + eps:
            errors.append(f"round {i}: prefix mass {prefix!r} > {(i + 1) * doc['a']}")
    if prefix > doc["K"] + eps:
        errors.append(f"total mass {prefix!r} > K={doc['K']}")
    return errors
