"""Online dependent rounding: one random offset, hard capacity, exact marginals.

A rounder draws a single offset ``pos`` uniformly from [0, 1) and lays the
incoming fractions end to end on a line.  Candidate j, occupying the interval
[s_j, s_{j+1}) between consecutive values of a compensated running sum, is
selected iff the interval contains a point l + pos for some integer l >= 0.
Selections are irrevocable and the realized count never exceeds ceil(sum of
x); marginals are exactly x_j over the draw of pos.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator

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


def selection_intervals(x_flat: list[float]) -> list[list[tuple[float, float]]]:
    """Exact-marginal oracle: per-candidate sets of pos values that select it.

    Candidate j with interval [s_j, s_j + x_j) is selected at offset pos iff
    pos falls in the wrap-around of that interval into [0, 1); the Lebesgue
    measure of the returned pieces is exactly x_j.  Computed by direct
    interval arithmetic, independent of the sequential selection path.
    """
    acc = _KahanSum()
    out = []
    for xj in x_flat:
        xj = min(max(xj, 0.0), 1.0)
        if xj <= 0.0:
            out.append([])
            continue
        start = acc.value
        lo = start - math.floor(start)
        hi = lo + xj
        if hi <= 1.0:
            out.append([(lo, hi)])
        else:
            out.append([(lo, 1.0), (0.0, hi - 1.0)])
        acc.add(xj)
    return out


def interval_measures(x_flat: list[float]) -> list[float]:
    """Per-candidate selection probabilities from the exact oracle."""
    return [math.fsum(hi - lo for lo, hi in pieces) for pieces in selection_intervals(x_flat)]


def selection_count(x_flat: list[float], pos: float) -> int:
    """Realized selection count at a given offset, straight from the rounder."""
    state = rounder_at(pos)
    process_round(state, x_flat)
    return len(state.selected)


def accumulator_path(x_flat: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Clipped fractions and the rounder's line boundaries: candidate j owns
    [path[j], path[j+1]) (length N + 1, nondecreasing), from the rounder's
    own additions."""
    x = np.clip(np.asarray(x_flat, dtype=float), 0.0, 1.0)
    path = [0.0]
    total = comp = top = 0.0
    for xj in x.tolist():
        if xj > 0.0:
            # _KahanSum.add, inlined: this loop runs once per candidate.
            y = xj - comp
            t = total + y
            comp = (t - total) - y
            total = t
            if t > top:
                top = t
        path.append(top)
    return x, np.array(path)


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
    states = []  # (total, comp, top) of the rounder's running sum before each entry
    total = comp = top = 0.0
    for xj in np.clip(x, 0.0, 1.0).tolist():
        states.append((total, comp, top))
        if xj > 0.0:
            # _KahanSum.add, as in accumulator_path.
            y = xj - comp
            t = total + y
            comp = (t - total) - y
            total = t
            if t > top:
                top = t
    if top <= capacity:
        return x
    x = x.copy()

    def excess(j: int) -> float:
        # Final boundary minus K while x[j + 1:] is all 0.
        total, comp, top = states[j]
        xj = min(float(x[j]), 1.0)
        return (top if xj <= 0.0 else max(top, total + (xj - comp))) - capacity

    for j in np.flatnonzero(x > 0.0)[::-1].tolist():
        step = excess(j)
        while step > 0.0 and x[j] > 0.0:
            x[j] = max(0.0, x[j] - step)
            step = 2.0 * step if excess(j) > 0.0 else 0.0
        if step <= 0.0:
            break
    return x


def offset_selections(x_flat: list[float], pos: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """The rounder's picks at many offsets at once: ``(j, mask over pos)`` for
    every candidate with x_j > 0, from the same predicate and boundaries as
    ``process_round``."""
    x, path = accumulator_path(x_flat)
    ends = path[1:].tolist()
    prev = np.ceil(0.0 - pos)
    for j, xj in enumerate(x.tolist()):
        if xj > 0.0:  # a zero fraction leaves the boundary where it is
            cur = np.ceil(ends[j] - pos)
            yield j, cur > prev
            prev = cur


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


def capacity_sweep(x_flat: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Exact selection count of the rounder at every float offset.

    Returns sorted segment left ends ``offsets`` (the first is 0.0) and
    ``counts``: the rounder picks exactly ``counts[i]`` candidates at every
    pos in [offsets[i], offsets[i+1]) (the last segment ends at 1.0).

    Candidate j is picked iff ceil(s_{j+1} - pos) > ceil(s_j - pos), two
    float expressions that never increase with pos.  So its pick set changes
    only where one of them drops; those offsets are found exactly, and one
    sorted sweep over them gives the count on every segment.
    """
    x, path = accumulator_path(x_flat)
    first, second = _drop_offsets(path)
    top = np.ceil(path)
    live = np.flatnonzero(x > 0.0)
    # Per picked-able candidate: the drops of its end (minus) and start (plus).
    cuts = np.stack([first[live + 1], second[live + 1], first[live], second[live]], axis=1)
    signs = np.array([-1.0, -1.0, 1.0, 1.0])
    margin0 = top[live + 1] - top[live]

    def picked(at: np.ndarray) -> np.ndarray:
        return margin0 + ((at[:, None] >= cuts) * signs).sum(axis=1) > 0

    # Walk each candidate's cuts in order; a change of its pick is an event.
    # No drop happens at pos = 0 (ceil(v - 0) = ceil(v)), so no event does.
    ordered = np.sort(cuts, axis=1)
    before = at_zero = picked(np.zeros(len(live)))
    event_pos, event_delta = [], []
    for at in ordered.T:
        now = picked(at)
        change = (now != before) & (at < 1.0)
        event_pos.append(at[change])
        event_delta.append(now[change].astype(np.int64) - before[change])
        before = now
    offsets, inverse = np.unique(np.concatenate(event_pos), return_inverse=True)
    steps = np.bincount(inverse, weights=np.concatenate(event_delta), minlength=len(offsets))
    counts = int(at_zero.sum()) + np.concatenate([[0.0], np.cumsum(steps)])
    return np.concatenate([[0.0], offsets]), counts.astype(np.int64)


def max_selection_count(x_flat: list[float]) -> tuple[int, float]:
    """The largest number of candidates the rounder picks at any offset, and
    the smallest offset that realizes it, checked by replaying the rounder."""
    offsets, counts = capacity_sweep(x_flat)
    best = int(np.argmax(counts))
    count, pos = int(counts[best]), float(offsets[best])
    replay = selection_count(x_flat, pos)
    if replay != count:
        raise InvariantError(f"capacity sweep reads {count} at pos={pos!r}, the rounder picks {replay}")
    return count, pos
