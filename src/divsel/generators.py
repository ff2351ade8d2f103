"""Hard-instance families and a parameterized random family.

The two adversarial families share a design: members agree on a common prefix
of rounds, so an online policy cannot tell them apart until its early
decisions are already locked in, while the offline optimum of each member is
large.  The random family exists to stress the policies and theorem checks
with controllable arrival statistics.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .core import Instance
from .errors import ContractError, DimensionError


def gen_fhc(d: int) -> list[Instance]:
    """Fixed-horizon-capacity family: d members with c = 1, K = 2d, n = d, a = 2.

    Member m holds d candidates of the prefix type 1..k in every round k <= m
    and d candidates of the complement type m+1..d in round m+1; all later
    rounds are empty (emitted explicitly so K = n*a stays exact).  Members
    therefore agree on rounds 1..min(m, m'), and each member's optimum is d:
    take the round-m batch plus its complement batch.

    Each member is built directly as CSR arrays: candidate j of length L_j
    starting at attribute s_j holds s_j, ..., s_j + L_j - 1.
    """
    if d < 1:
        raise DimensionError("gen_fhc requires d >= 1")
    members = []
    for m in range(1, d + 1):
        # (0-indexed) prefix types 0..i-1 for i = 1..m, then the suffix m..d-1.
        lens = np.repeat(np.append(np.arange(1, m + 1), d - m), d)
        first = np.repeat(np.append(np.zeros(m, dtype=np.int64), m), d)
        if m == d:
            lens, first = lens[:-d], first[:-d]
        cand_ptr = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(lens, out=cand_ptr[1:])
        bits = np.arange(cand_ptr[-1]) - np.repeat(cand_ptr[:-1] - first, lens)
        sizes = [d] * min(m + 1, d) + [0] * (d - m - 1)
        round_ptr = np.zeros(d + 1, dtype=np.int64)
        np.cumsum(sizes, out=round_ptr[1:])
        members.append(
            Instance.from_arrays(
                d=d,
                c=(1.0,) * d,
                capacity=2 * d,
                round_ptr=round_ptr,
                cand_ptr=cand_ptr,
                bits=bits,
                per_round_capacity=2,
            )
        )
    return members


def fcs_kappa(d: int) -> int:
    return math.floor(d ** (1.0 / 3.0) + 1e-9)


def fcs_eta(d: int) -> int:
    return math.floor(d ** (2.0 / 3.0) / 2.0 + 1e-9)


def gen_fcs(d: int) -> list[Instance]:
    """Fixed-capacity-stationary family: kappa = floor(d^(1/3)) members with
    K = n = d, c = 1, a = 1, and every round's batched profile all ones.

    Dimensions are split into consecutive subsets of size kappa; member m owns
    the m-th collection of kappa subsets.  The first kappa groups of
    eta = floor(d^(2/3)/2) rounds are identical across members: one candidate
    per subset type of the group's collection plus singletons for the
    uncovered dimensions.  The trailing group holds one candidate covering
    the complement of the member's dimensions plus singletons inside them.
    """
    if d < 3:
        raise DimensionError("gen_fcs requires d >= 3")
    kappa = fcs_kappa(d)
    eta = fcs_eta(d)
    n_subsets = math.ceil(d / kappa)
    subsets = []
    for l in range(1, n_subsets + 1):
        start = (l - 1) * kappa
        end = min(l * kappa, d)
        subsets.append(tuple(range(start, end)))
    assert kappa * kappa <= n_subsets, "collection indices must stay within the subsets"

    def collection(m: int) -> list[tuple[int, ...]]:
        return [subsets[l - 1] for l in range((m - 1) * kappa + 1, m * kappa + 1)]

    def early_round(mprime: int) -> list[tuple[int, ...]]:
        coll = collection(mprime)
        covered = set()
        for sub in coll:
            covered.update(sub)
        return list(coll) + [(k,) for k in range(d) if k not in covered]

    members = []
    for m in range(1, kappa + 1):
        covered_m = set()
        for sub in collection(m):
            covered_m.update(sub)
        complement = tuple(k for k in range(d) if k not in covered_m)
        late = [complement] if complement else []
        late += [(k,) for k in sorted(covered_m)]
        rounds = []
        for mprime in range(1, kappa + 1):
            rounds.extend([early_round(mprime)] * eta)
        rounds.extend([late] * (d - kappa * eta))
        members.append(
            Instance.from_bit_lists(
                d=d,
                c=tuple(1.0 for _ in range(d)),
                capacity=d,
                rounds=rounds,
                per_round_capacity=1,
            )
        )
    return members


def family_entries(family: str, d: int) -> int:
    """Attribute entries over all members of a hard family, in closed form,
    so a family too large to hold is refused before any member is built.

    An fhc member m holds d candidates of lengths 1..m and d of length d - m,
    so the family holds d * (d(d+1)(d+2)/6 + d(d-1)/2) entries.  Every round
    of an fcs member holds exactly d entries (disjoint subsets plus the
    singletons of the rest), so the family holds kappa * d * d.  A dimension
    count the generator rejects holds none.
    """
    if family == "fhc":
        return d * (d * (d + 1) * (d + 2) // 6 + d * (d - 1) // 2) if d >= 1 else 0
    if family == "fcs":
        if d < 3:
            return 0
        # kappa >= 1; past 2**64 the d * d entries alone exceed any memory,
        # and d ** (1/3) could overflow a float.
        return (fcs_kappa(d) if d < 2**64 else 1) * d * d
    raise ContractError(f"unknown family {family!r}")


def gen_random(
    d: int,
    n: int,
    a: int,
    density: float,
    min_arrivals: int,
    c_max: float,
    seed: int,
) -> Instance:
    """Random instance with K = n*a and every dimension guaranteed at least
    ``min_arrivals`` arrivals per round (so the fluctuation ratio is defined).

    Each round draws a seeded number of base candidates with i.i.d.
    Bernoulli(density) attributes, then appends singleton candidates per
    dimension up to the arrival floor.  Coefficients are drawn in [1, c_max]
    with one coordinate pinned to exactly 1.
    """
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

