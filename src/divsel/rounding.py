"""Online dependent rounding: one random offset, hard capacity, exact marginals.

A rounder draws a single offset ``pos`` uniformly from [0, 1) and lays the
incoming fractions end to end on a line holding the points l + pos, l >= 0
(systematic sampling).  After candidate j the line's boundary is B_j =
floor(2^53 S_j) ticks of 2^-53, where S_j is the exact sum of the clipped
fractions so far, and j is selected iff [B_{j-1}, B_j) holds a point.  So
every offset selects floor or ceil of the exact sum of x, j is picked on
offsets of measure (B_j - B_{j-1}) / 2^53, within 2^-53 of x_j, and its pick
changes only at (B_{j-1} mod 2^53) / 2^53 and (B_j mod 2^53) / 2^53.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import EPS
from .errors import DomainError, InvariantError

#: Ticks of the line per unit: boundaries are multiples of 2^-53, so every
#: offset at which a pick changes is a float.
_BITS = 53
_MASK = (1 << _BITS) - 1
#: Every float is a whole multiple of 2^-1074; exact sums are kept in that unit.
_FINE = 1074
#: One unit of 2^-112, the rounder's coarse tier, in units of 2^-1074.
_SHIFT, _CARRY = _FINE - 112, 1 << (_FINE - 112)
#: Live candidates below which ``pick_segments``' limb sums fit int64.
_LIMB_ROWS = 1 << 24


def _exact(x: float) -> int:
    """x in units of 2^-1074, exactly."""
    num, den = x.as_integer_ratio()
    return num << (_FINE + 1 - den.bit_length())


@dataclass
class RounderState:
    """Single-owner state; rounds must be fed sequentially.  It holds the
    offset and the line's end, never the picks: ``process_round`` returns them."""

    pos: float
    _total: int = field(default=0, repr=False)  # exact sum so far, in units of 2^-1074
    _below: int = field(default=0, repr=False)  # points l + pos below the line's end


def new_rounder(seed: int) -> RounderState:
    """Fresh rounder with pos drawn from a seeded uniform generator."""
    pos = random.Random(seed).random()
    return RounderState(pos=pos)


def rounder_at(pos: float) -> RounderState:
    """Rounder with an explicit offset, for replaying the rounder at a chosen pos."""
    if not 0.0 <= pos < 1.0:
        raise DomainError(f"pos={pos!r} outside [0,1)")
    return RounderState(pos=pos)


def process_round(state: RounderState, x_i: list[float]) -> list[int]:
    """Process one round of fractions; returns selected positions within it.
    A fraction of 0 owns no part of the line and is never selected."""
    for xj in x_i:
        if xj < -EPS or xj > 1.0 + EPS:
            raise DomainError(f"fraction {xj!r} outside [0,1]")
    picked = []
    # The points below a boundary of b ticks number (b >> 53) + (b mod 2^53 >
    # 2^53 pos); the product is exact and so is Python's int-float comparison.
    ticks_pos = state.pos * (1 << _BITS)
    # The exact sum in two tiers: fractions >= 2^-60 (whole multiples of 2^-112)
    # add to ``coarse`` in that unit, smaller ones to ``fine`` at 2^-1074, which
    # carries whole units of 2^-112 into ``coarse`` at once.
    coarse, fine = state._total >> _SHIFT, state._total & (_CARRY - 1)
    below, drop, mask, tiny, scale = state._below, 112 - _BITS, _MASK, 2.0**-60, 2.0**112
    for j, xj in enumerate(x_i):
        if xj <= 0.0:
            continue
        if xj >= tiny:
            coarse += int((xj if xj < 1.0 else 1.0) * scale)
        else:
            carry, fine = divmod(fine + _exact(xj), _CARRY)
            coarse += carry
        now = (coarse >> 112) + (((coarse >> drop) & mask) > ticks_pos)
        if now > below:
            picked.append(j)
        below = now
    state._total, state._below = (coarse << _SHIFT) | fine, below
    return picked


def selection_count(x_flat: list[float], pos: float) -> int:
    """Realized selection count at a given offset, straight from the rounder."""
    return len(process_round(rounder_at(pos), x_flat))


def capacity_safe(x: np.ndarray, capacity: int, counts: Optional[np.ndarray] = None) -> np.ndarray:
    """``x`` with trailing positive entries lowered until its exact sum, entry
    j counted ``counts[j]`` times (once by default), is at most K.  The
    rounder picks at most the ceiling of that sum, so then no offset picks
    more than K candidates.  A row already within K is returned as it is.
    """
    counts = np.ones(len(x), dtype=np.int64) if counts is None else np.asarray(counts).astype(np.int64)
    clipped = np.clip(x, 0.0, 1.0)  # as the rounder reads them
    # fsum is correctly rounded, so the sign of the excess is exact.
    if math.fsum([*np.repeat(clipped, counts).tolist(), -capacity]) <= 0.0:
        return x
    values, weights = clipped.tolist(), counts.tolist()
    excess = Fraction(sum(w * _exact(v) for v, w in zip(values, weights)), 1 << _FINE) - capacity
    x = x.copy()
    for j in reversed(np.flatnonzero(x > 0.0).tolist()):
        mass = weights[j] * Fraction(values[j])
        if mass <= excess:
            x[j] = 0.0
            excess -= mass
            continue
        # The largest float at most the exact remainder.
        rest = Fraction(values[j]) - excess / weights[j]
        low = float(rest)
        x[j] = low if Fraction(low) <= rest else math.nextafter(low, 0.0)
        break
    return x


@dataclass(frozen=True)
class PickSegments:
    """Where the rounder picks each candidate, over every offset in [0, 1).

    Row i is candidate ``live[i]``, one of those with x_j > 0; it owns the
    line between boundaries i and i + 1.  Boundary i lies ``units[i]`` whole
    units plus ``ticks[i]`` ticks of 2^-53 along the line; at offset pos the
    points below it number units[i] + (ticks[i] > 2^53 pos).  So row i is
    picked at pos iff units[i+1] - units[i] + [pos < e] - [pos < s] > 0,
    with s = ticks[i] / 2^53 and e = ticks[i + 1] / 2^53.
    """

    x: np.ndarray  # clipped fractions, one per candidate
    live: np.ndarray
    units: np.ndarray  # len(live) + 1 boundaries
    ticks: np.ndarray

    def measures(self) -> np.ndarray:
        """Per candidate: the measure of the offsets at which it is picked."""
        out = np.zeros(len(self.x))
        out[self.live] = ((np.diff(self.units) << _BITS) + np.diff(self.ticks)) / 2.0**_BITS
        return out

    def changes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every change of a pick as pos sweeps [0, 1): (candidate, offset,
        +1 or -1).  A candidate picked at pos = 0 changes there."""
        start, end = self.ticks[:-1], self.ticks[1:]
        at_zero = np.diff(self.units) + (end > 0) - (start > 0) > 0
        moves = start != end  # otherwise the pick never changes past 0
        rows = [np.flatnonzero(at_zero), np.flatnonzero(moves & (end > 0)), np.flatnonzero(moves & (start > 0))]
        at = [np.zeros(len(rows[0])), end[rows[1]] / 2.0**_BITS, start[rows[2]] / 2.0**_BITS]
        delta = [np.full(len(r), sign) for r, sign in zip(rows, (1, -1, 1))]
        return self.live[np.concatenate(rows)], np.concatenate(at), np.concatenate(delta)


def pick_segments(x_flat: list[float]) -> PickSegments:
    """The rounder's picks of every candidate at every offset in [0, 1),
    from the exact boundaries of its line.

    A fraction x >= 2^-64 is a whole number of units 2^-116 below 2^117, cut
    exactly (in floats) into three 39-bit limbs whose ``cumsum`` fits int64
    for fewer than 2^24 candidates.  With the carries passed up a boundary is
    c2 * 2^78 + c1 * 2^39 + c0 units: units = c2 >> 38, ticks the 53 bits
    below.  A row with a smaller fraction, or with 2^24 or more live
    candidates, sums in Python ints, as the rounder does."""
    x = np.clip(np.asarray(x_flat, dtype=float), 0.0, 1.0)
    live = np.flatnonzero(x > 0.0)
    if live.size >= _LIMB_ROWS or (live.size and x[live].min() < 2.0**-64):
        ends = np.cumsum(np.array([0, *map(_exact, x[live].tolist())], dtype=object)) >> (_FINE - _BITS)
        return PickSegments(x, live, (ends >> _BITS).astype(np.int64), (ends & _MASK).astype(np.int64))
    limbs, rest = np.zeros((3, live.size + 1), dtype=np.int64), x[live] * 2.0**38
    for limb in limbs:
        limb[1:] = whole = np.floor(rest)
        rest = (rest - whole) * 2.0**39  # exact: a float's fraction is a float
    c2, c1, c0 = np.cumsum(limbs, axis=1)
    c1 += c0 >> 39
    c2 += c1 >> 39
    return PickSegments(x, live, c2 >> 38, ((c2 & (2**38 - 1)) << 15) | ((c1 & (2**39 - 1)) >> 24))


def capacity_sweep(x_flat: list[float], segments: Optional[PickSegments] = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact selection count of the rounder at every offset.

    Returns sorted segment left ends ``offsets`` (the first is 0.0) and
    ``counts``: the rounder picks exactly ``counts[i]`` candidates at every
    pos in [offsets[i], offsets[i+1]) (the last segment ends at 1.0).  The
    picks telescope to the points below the line's end: ceil(B_N / 2^53)
    before the offset (B_N mod 2^53) / 2^53 and floor(B_N / 2^53) from it
    on, so there are at most two segments.  ``segments`` is
    ``pick_segments(x_flat)`` when the caller already has it.
    """
    if segments is None:
        segments = pick_segments(x_flat)
    units, ticks = int(segments.units[-1]), int(segments.ticks[-1])
    offsets, counts = np.array([0.0, ticks / 2.0**_BITS]), np.array([units + 1, units], dtype=np.int64)
    return (offsets, counts) if ticks else (offsets[:1], counts[1:])


def max_selection_count(x_flat: list[float], segments: Optional[PickSegments] = None) -> tuple[int, float]:
    """The largest number of candidates the rounder picks at any offset, and
    the smallest offset that realizes it (pos = 0), checked by replaying the
    rounder."""
    count = int(capacity_sweep(x_flat, segments)[1][0])
    replay = selection_count(x_flat, 0.0)
    if replay != count:
        raise InvariantError(f"capacity sweep reads {count} at pos=0.0, the rounder picks {replay}")
    return count, 0.0
