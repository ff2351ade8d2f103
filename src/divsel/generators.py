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
from typing import Iterator

import numpy as np

from .core import Instance, _offsets, physical_memory
from .errors import ContractError, DimensionError, SizeError


def gen_fhc(d: int) -> list[Instance]:
    """``fhc_members(d)`` as a list."""
    return list(fhc_members(d))


def fhc_members(d: int) -> Iterator[Instance]:
    """Fixed-horizon-capacity family: d members with c = 1, K = 2d, n = d, a = 2,
    each built when the stream reaches it.

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
    return (_fhc_member(d, m) for m in range(1, d + 1))


def _fhc_member(d: int, m: int) -> Instance:
    # (0-indexed) prefix types 0..i-1 for i = 1..m, then the suffix m..d-1.
    lens = np.repeat(np.append(np.arange(1, m + 1), d - m), d)
    first = np.repeat(np.append(np.zeros(m, dtype=np.int64), m), d)
    if m == d:
        lens, first = lens[:-d], first[:-d]
    cand_ptr = _offsets(lens)
    bits = np.arange(cand_ptr[-1]) - np.repeat(cand_ptr[:-1] - first, lens)
    round_ptr = _offsets([d] * min(m + 1, d) + [0] * (d - m - 1))
    return Instance._adopt(d, (1.0,) * d, 2 * d, round_ptr, cand_ptr, bits, per_round_capacity=2)


def fcs_kappa(d: int) -> int:
    return math.floor(d ** (1.0 / 3.0) + 1e-9)


def fcs_eta(d: int) -> int:
    return math.floor(d ** (2.0 / 3.0) / 2.0 + 1e-9)


def gen_fcs(d: int) -> list[Instance]:
    """``fcs_members(d)`` as a list."""
    return list(fcs_members(d))


def fcs_members(d: int) -> Iterator[Instance]:
    """Fixed-capacity-stationary family: kappa = floor(d^(1/3)) members with
    K = n = d, c = 1, a = 1, and every round's batched profile all ones, each
    built when the stream reaches it.

    Dimensions are split into consecutive subsets of size kappa; member m owns
    the m-th collection of kappa subsets.  The first kappa groups of
    eta = floor(d^(2/3)/2) rounds are identical across members: one candidate
    per subset type of the group's collection plus singletons for the
    uncovered dimensions.  The trailing group holds one candidate covering
    the complement of the member's dimensions plus singletons inside them.
    """
    if d < 3:
        raise DimensionError("gen_fcs requires d >= 3")
    return (_fcs_member(d, m) for m in range(1, fcs_kappa(d) + 1))


def _fcs_member(d: int, m: int) -> Instance:
    kappa, eta = fcs_kappa(d), fcs_eta(d)
    # Collection j (0-indexed) covers dimensions j*kappa^2 up to min((j+1)*kappa^2, d), in subsets of kappa.
    spans = [(j * kappa * kappa, min((j + 1) * kappa * kappa, d)) for j in (*range(kappa), m - 1)]
    rounds = [  # (bits, candidate lengths) of the early rounds: the subsets, then singletons outside them
        (np.r_[lo:hi, 0:lo, hi:d], np.r_[np.diff(np.r_[lo:hi:kappa, hi]), np.ones(d - (hi - lo), np.int64)])
        for lo, hi in spans[:-1]
    ]
    lo, hi = spans[-1]  # the late rounds: the complement as one candidate, if any, then singletons inside
    lens = np.r_[d - (hi - lo), np.ones(hi - lo, np.int64)]
    rounds.append((np.r_[0:lo, hi:d, lo:hi], lens[lens > 0]))
    repeats = [eta] * kappa + [d - kappa * eta]
    bits, lens = (np.concatenate([np.tile(rnd[part], r) for rnd, r in zip(rounds, repeats)]) for part in (0, 1))
    round_ptr = _offsets(np.repeat([rnd[1].size for rnd in rounds], repeats))
    return Instance._adopt(d, (1.0,) * d, d, round_ptr, _offsets(lens), bits.astype(np.int32), per_round_capacity=1)


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


def _mt19937(seed: int) -> np.random.MT19937:
    """numpy's MT19937 in the state ``random.Random(seed)`` starts in."""
    *key, pos = random.Random(seed).getstate()[1]
    gen = np.random.MT19937()
    gen.state = {"bit_generator": "MT19937", "state": {"key": np.array(key, dtype=np.uint32), "pos": pos}}
    return gen


def _randbelow(gen: np.random.MT19937, n: int) -> int:
    """``Random._randbelow(n)``: ``getrandbits(n.bit_length())`` until it is
    below n.  A draw of k bits takes ceil(k/32) words, low word first, and
    keeps the top bits of the last."""
    k = n.bit_length()
    while True:
        r = 0
        for shift in range(0, k, 32):
            r |= gen.random_raw() >> max(32 - (k - shift), 0) << shift
        if r < n:
            return r


def _shuffled(gen: np.random.MT19937, m: int) -> list[int]:
    """The order ``Random.shuffle`` leaves ``list(range(m))`` in: Fisher-Yates
    from the top, swapping place i with ``_randbelow(i + 1)``."""
    perm = list(range(m))
    i = m - 1
    while i >= 2**32:  # draws of more than one word
        j = _randbelow(gen, i + 1)
        perm[i], perm[j] = perm[j], perm[i]
        i -= 1
    while i > 0:
        # Each remaining place takes at least one word, so none is drawn ahead.
        for word in gen.random_raw(i).tolist():
            j = word >> (32 - (i + 1).bit_length())
            if j <= i:
                perm[i], perm[j] = perm[j], perm[i]
                i -= 1
    return perm


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
    dimension up to the arrival floor and shuffles the round.  Coefficients
    are drawn in [1, c_max] with one coordinate pinned to exactly 1.

    Every draw comes from the 32-bit word stream of ``random.Random(seed)``,
    read through numpy's MT19937 and used word for word as ``randint``,
    ``random``, ``shuffle`` and ``randrange`` use it, so an instance is the
    one a scalar loop over ``random.Random(seed)`` builds.  An instance whose
    certain arrivals and candidates (at least n*d*min_arrivals and
    n*min_arrivals) take more than the machine's memory, or a round whose
    base x d block of draws does, is a SizeError, raised before it is drawn.
    """
    if not 0.0 < density <= 1.0:
        raise DimensionError("density must be in (0, 1]")
    if min(d, n, a, min_arrivals) < 1:
        raise DimensionError("d, n, a and min_arrivals must be >= 1")
    # Every round gives each dimension min_arrivals arrivals, at most
    # max(2, d) of them from base candidates and the rest from singletons.
    arrivals = n * d * min_arrivals
    cands = n * max(min_arrivals, d * (min_arrivals - max(2, d)))
    # The int32 bits and int64 cand_ptr start at these floors and double in
    # place when full; the check leaves room for a reallocation that copies.
    memory = physical_memory()
    if 12 * arrivals + 16 * cands > memory:
        raise SizeError(f"{arrivals} arrivals do not fit in memory")
    gen = _mt19937(seed)
    # numpy's MT19937 doubles are CPython's random(): (a >> 5) * 2**26 +
    # (b >> 6) over 2**53, from two consecutive words a, b.
    rng = np.random.Generator(gen)
    dims = np.arange(d)
    # Filled round by round, each at its final dtype and handed to the instance.
    round_ptr, cand_ptr = np.zeros(n + 1, dtype=np.int64), np.zeros(cands + 1, dtype=np.int64)
    bits = np.empty(arrivals, dtype=np.int32)
    for i in range(n):
        base = 1 + _randbelow(gen, max(2, d))
        # A float and a bool per draw.
        if 9 * base * d > memory:
            raise SizeError(f"a round of {base} x {d} draws does not fit in memory")
        hit = rng.random((base, d)) < density
        # The base candidates, then singletons up to min_arrivals per dimension.
        short = np.maximum(min_arrivals - np.add.reduce(hit, axis=0), 0)
        lens = np.concatenate([np.add.reduce(hit, axis=1), np.ones(int(np.add.reduce(short)), dtype=np.int64)])
        entries = np.concatenate([hit.nonzero()[1], dims.repeat(short)])
        # Place p of the shuffled round holds candidate perm[p], whose entries
        # move by the difference of the two ends.
        perm = np.array(_shuffled(gen, lens.size))
        ends, lens = np.add.accumulate(lens), lens[perm]
        moved = np.add.accumulate(lens)
        lo, start = int(round_ptr[i]), int(cand_ptr[round_ptr[i]])  # the round's first candidate, entry
        hi, stop = lo + lens.size, start + int(moved[-1])
        round_ptr[i + 1] = hi
        _grow(cand_ptr, hi + 1)[lo + 1 : hi + 1] = start + moved
        _grow(bits, stop)[start:stop] = entries[(ends[perm] - moved).repeat(lens) + np.arange(stop - start)]
    cand_ptr.resize(int(round_ptr[-1]) + 1, refcheck=False)
    bits.resize(int(cand_ptr[-1]), refcheck=False)
    c = (1.0 + (c_max - 1.0) * rng.random(d)).tolist()
    c[_randbelow(gen, d)] = 1.0
    return Instance._adopt(d, tuple(c), n * a, round_ptr, cand_ptr, bits, a)


def _grow(buf: np.ndarray, size: int) -> np.ndarray:
    """``buf`` (owning its memory, with no views) doubled in place until it holds ``size`` entries."""
    if size > buf.size:
        buf.resize(max(size, 2 * buf.size), refcheck=False)
    return buf
