"""Online dependent rounding: one random offset, hard capacity, exact marginals.

A rounder draws a single offset ``pos`` uniformly from [0, 1) and lays the
incoming fractions end to end on a line.  Candidate j, occupying the interval
[s_j, s_{j+1}) between consecutive values of a compensated running sum, is
selected iff the interval contains a point l + pos for some integer l >= 0.
Selections are irrevocable and the realized count never exceeds ceil(sum of
x).  Over the draw of pos, candidate j is picked with probability x_j up to
the rounding of the line boundaries s_j and s_{j+1}: ``pick_segments`` finds
the exact float offsets that pick it, and ``Prop2-marginals`` measures them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import EPS, FractionalSolution, Instance
from .errors import DomainError, FeasibilityError, InvariantError


class _KahanSum:
    """Compensated running sum whose ``value`` never steps back.

    Marginal exactness is this module's contract, so the sum is compensated;
    the hard capacity needs candidates' intervals not to overlap, so
    ``value`` holds the largest sum so far (Kahan's correction can move the
    sum down by an ulp).
    """

    __slots__ = ("value", "_sum", "_comp")

    def __init__(self) -> None:
        self.value = 0.0
        self._sum = 0.0
        self._comp = 0.0

    def add(self, x: float) -> None:
        y = x - self._comp
        t = self._sum + y
        self._comp = (t - self._sum) - y
        self._sum = t
        if t > self.value:
            self.value = t


@dataclass
class RounderState:
    """Single-owner state; rounds must be fed sequentially."""

    pos: float
    selected: list = field(default_factory=list)
    _acc: _KahanSum = field(default_factory=_KahanSum, repr=False)
    _round_index: int = 0


def new_rounder(seed: int) -> RounderState:
    """Fresh rounder with pos drawn from a seeded uniform generator."""
    pos = random.Random(seed).random()
    return RounderState(pos=pos)


def rounder_at(pos: float) -> RounderState:
    """Rounder with an explicit offset, for replaying the rounder at a chosen pos."""
    if not 0.0 <= pos < 1.0:
        raise DomainError(f"pos={pos!r} outside [0,1)")
    return RounderState(pos=pos)


def _covers_point(start: float, end: float, pos: float) -> bool:
    # Is there an integer l >= 0 with l + pos in [start, end)?  A candidate's
    # end is the next one's start and ends never decrease, so the picks
    # telescope to at most ceil(total - pos).  (Testing l + pos < start + x
    # instead lets two candidates claim the same point when the next start
    # lies an ulp below fl(start + x).)
    return math.ceil(end - pos) > math.ceil(start - pos)


def process_round(state: RounderState, x_i: list[float]) -> list[int]:
    """Process one round of fractions; returns selected positions within it.
    A fraction of 0 owns no part of the line and is never selected."""
    for xj in x_i:
        if xj < -EPS or xj > 1.0 + EPS:
            raise DomainError(f"fraction {xj!r} outside [0,1]")
    picked = []
    acc = state._acc
    for j, xj in enumerate(x_i):
        if xj <= 0.0:
            continue
        start = acc.value
        acc.add(min(xj, 1.0))
        if _covers_point(start, acc.value, state.pos):
            picked.append(j)
            state.selected.append((state._round_index, j))
    state._round_index += 1
    return picked


def select_offline(inst: Instance, sol: FractionalSolution, seed: int) -> list[tuple[int, int]]:
    """Feed all rounds through one rounder; returns (round, position) pairs.

    A solution may exceed K by up to the feasibility tolerance, and then the
    rounder's final line boundary can pass K; the row is first made
    capacity-safe (``capacity_safe``), so no offset picks more than K.
    """
    total = sol.total()
    if total > inst.capacity + EPS:
        raise FeasibilityError(f"sum(x)={total!r} exceeds K={inst.capacity}")
    x_flat = capacity_safe(sol.values, inst.capacity).tolist()
    state = new_rounder(seed)
    ptr = sol.round_ptr.tolist()
    for lo, hi in zip(ptr, ptr[1:]):
        process_round(state, x_flat[lo:hi])
    return list(state.selected)


def selection_count(x_flat: list[float], pos: float) -> int:
    """Realized selection count at a given offset, straight from the rounder."""
    state = rounder_at(pos)
    process_round(state, x_flat)
    return len(state.selected)


def _running_sums(positive: list[float]) -> tuple[list[float], list[float]]:
    """The rounder's compensated running sum over the positive fractions, in
    order: its total and correction before the first and after each one."""
    totals, comps = [0.0], [0.0]
    total = comp = 0.0
    for xj in positive:
        # _KahanSum.add, inlined: this loop runs once per candidate.
        y = xj - comp
        t = total + y
        comp = (t - total) - y
        total = t
        totals.append(t)
        comps.append(comp)
    return totals, comps


def accumulator_path(x_flat: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Clipped fractions and the rounder's line boundaries: candidate j owns
    [path[j], path[j+1]) (length N + 1, nondecreasing), from the rounder's
    own additions."""
    x = np.clip(np.asarray(x_flat, dtype=float), 0.0, 1.0)
    live = x > 0.0
    totals, _ = _running_sums(x[live].tolist())
    # The boundary is the largest total so far; a zero fraction leaves it.
    tops = np.maximum.accumulate(totals)
    return x, tops[np.concatenate([[0], np.cumsum(live)])]


def capacity_safe(x: np.ndarray, capacity: int) -> np.ndarray:
    """``x`` with trailing positive entries lowered until the rounder's final
    line boundary is at most K, so no offset can pick more than K candidates
    (the picks telescope to at most the ceiling of that boundary).  An exact
    sum clearly below K, with room for the rounding of a running sum, skips
    the replay.

    The running sum is replayed once.  An entry is lowered only once every
    later entry is 0, so the final boundary then follows from the sum's state
    before that entry in one step, and the fit stays linear in len(x).
    """
    if math.fsum(x.tolist()) <= capacity * (1.0 - 1e-12):
        return x
    live = np.flatnonzero(x > 0.0).tolist()
    totals, comps = _running_sums(np.minimum(x[live], 1.0).tolist())
    tops = np.maximum.accumulate(totals).tolist()
    if tops[-1] <= capacity:
        return x
    x = x.copy()

    def excess(r: int, j: int) -> float:
        # Final boundary minus K while x[j + 1:] is all 0; r positive entries
        # come before entry j.
        xj = min(float(x[j]), 1.0)
        return (tops[r] if xj <= 0.0 else max(tops[r], totals[r] + (xj - comps[r]))) - capacity

    for r, j in reversed(list(enumerate(live))):
        step = excess(r, j)
        while step > 0.0 and x[j] > 0.0:
            x[j] = max(0.0, x[j] - step)
            step = 2.0 * step if excess(r, j) > 0.0 else 0.0
        if step <= 0.0:
            break
    return x


#: Bit pattern of 1.0; nonnegative doubles order like their bit patterns, so
#: [0, _ONE_BITS) enumerates every float offset in [0, 1) in order.
_ONE_BITS = int(np.float64(1.0).view(np.int64))


def _first_offset_at_most(values: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """For each (v, level): the smallest float pos in [0, 1) with
    ceil(v - pos) <= level, or 1.0 when there is none.

    fl(v - pos) never increases as pos grows, so the predicate flips at most
    once; a bisection over bit patterns finds the exact float in at most 62
    halvings, for all entries at once.
    """
    lo = np.zeros(values.shape, dtype=np.int64)
    hi = np.full(values.shape, _ONE_BITS, dtype=np.int64)
    while (lo < hi).any():
        mid = (lo + hi) // 2
        hit = np.ceil(values - mid.view(np.float64)) <= levels
        hi = np.where(hit, mid, hi)
        lo = np.where(hit, lo, np.minimum(mid + 1, hi))
    return lo.view(np.float64)


def _drop_offsets(path: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where ceil(v - pos) falls as pos sweeps [0, 1), for every accumulator
    value v: the offsets of its first and second unit drop (1.0 when absent).
    v - pos spans less than one unit, so even with rounding it drops at most
    twice."""
    top = np.ceil(path)
    bottom = np.ceil(path - np.nextafter(1.0, 0.0))
    drops = []
    for step in (1, 2):
        at = np.ones_like(path)
        has = top - bottom >= step
        at[has] = _first_offset_at_most(path[has], top[has] - step)
        drops.append(at)
    return drops[0], drops[1]


@dataclass(frozen=True)
class PickSegments:
    """Where the rounder picks each candidate, over every float offset.

    Row i is candidate ``live[i]``, one of those with x_j > 0.  Its four
    cuts (1.0 where absent) split [0, 1) into five pieces; ``starts[i]`` holds
    their left ends (0.0, then the sorted cuts), and ``picked[i, p]`` is
    whether the rounder picks the candidate at every offset in piece p.  An
    offset equal to a cut lies in the piece that the cut starts.
    """

    x: np.ndarray  # clipped fractions, one per candidate
    live: np.ndarray
    starts: np.ndarray
    picked: np.ndarray

    def measures(self) -> np.ndarray:
        """Per candidate: the measure of the offsets at which it is picked."""
        ends = np.concatenate([self.starts[:, 1:], np.ones((len(self.live), 1))], axis=1)
        out = np.zeros(len(self.x))
        out[self.live] = ((ends - self.starts) * self.picked).sum(axis=1)
        return out

    def changes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every change of a pick as pos sweeps [0, 1): (candidate, offset,
        +1 or -1).  A candidate picked at pos = 0 changes there."""
        before = np.concatenate([np.zeros((len(self.live), 1), dtype=bool), self.picked[:, :-1]], axis=1)
        row, piece = np.nonzero((self.picked != before) & (self.starts < 1.0))
        return self.live[row], self.starts[row, piece], np.where(self.picked[row, piece], 1, -1)


def pick_segments(x_flat: list[float]) -> PickSegments:
    """The rounder's picks of every candidate at every float offset in [0, 1).

    Candidate j is picked iff ceil(s_{j+1} - pos) > ceil(s_j - pos), two
    float expressions that never increase with pos: each starts at ceil(v)
    and falls by one at each drop of v - pos.  So j's pick changes only at
    the drops of its two boundaries, which are found exactly; between them
    it is constant.
    """
    x, path = accumulator_path(x_flat)
    first, second = _drop_offsets(path)
    top = np.ceil(path)
    live = np.flatnonzero(x > 0.0)
    # Per candidate: the drops of its end (minus) and start (plus).
    drops = np.stack([first[live + 1], second[live + 1], first[live], second[live]], axis=1)
    signs = np.array([-1.0, -1.0, 1.0, 1.0])
    # No drop happens at pos = 0 (ceil(v - 0) = ceil(v)).  On each piece,
    # every drop at or below its left end has happened.
    starts = np.concatenate([np.zeros((len(live), 1)), np.sort(drops, axis=1)], axis=1)
    margin = top[live + 1] - top[live]
    picked = margin[:, None] + ((starts[:, :, None] >= drops[:, None, :]) * signs).sum(axis=2) > 0
    return PickSegments(x, live, starts, picked)


def capacity_sweep(
    x_flat: list[float], segments: Optional[PickSegments] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact selection count of the rounder at every float offset.

    Returns sorted segment left ends ``offsets`` (the first is 0.0) and
    ``counts``: the rounder picks exactly ``counts[i]`` candidates at every
    pos in [offsets[i], offsets[i+1]) (the last segment ends at 1.0).  The
    counts are running sums of the candidates' pick changes.  ``segments``
    is ``pick_segments(x_flat)`` when the caller already has it.
    """
    if segments is None:
        segments = pick_segments(x_flat)
    _, at, delta = segments.changes()
    offsets, inverse = np.unique(np.append(at, 0.0), return_inverse=True)
    steps = np.bincount(inverse, weights=np.append(delta, 0), minlength=len(offsets))
    return offsets, np.cumsum(steps).astype(np.int64)


def max_selection_count(x_flat: list[float], segments: Optional[PickSegments] = None) -> tuple[int, float]:
    """The largest number of candidates the rounder picks at any offset, and
    the smallest offset that realizes it, checked by replaying the rounder."""
    offsets, counts = capacity_sweep(x_flat, segments)
    best = int(np.argmax(counts))
    count, pos = int(counts[best]), float(offsets[best])
    replay = selection_count(x_flat, pos)
    if replay != count:
        raise InvariantError(f"capacity sweep reads {count} at pos={pos!r}, the rounder picks {replay}")
    return count, pos
