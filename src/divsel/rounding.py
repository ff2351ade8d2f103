"""Online dependent rounding: one random offset, hard capacity, exact marginals.

A rounder draws a single offset ``pos`` uniformly from [0, 1) and lays the
incoming fractions end to end on a line.  Candidate j, occupying the interval
[sum, sum + x_j), is selected iff the interval contains a point l + pos for
some integer l >= 0.  Selections are irrevocable and the realized count never
exceeds ceil(sum of x); marginals are exactly x_j over the draw of pos.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .core import EPS, FractionalSolution, Instance
from .errors import DomainError, FeasibilityError


class _KahanSum:
    """Compensated accumulator; marginal exactness is this module's contract."""

    __slots__ = ("value", "_comp")

    def __init__(self) -> None:
        self.value = 0.0
        self._comp = 0.0

    def add(self, x: float) -> None:
        y = x - self._comp
        t = self.value + y
        self._comp = (t - self.value) - y
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
    """Rounder with an explicit offset; used by grid checks and the oracle."""
    if not 0.0 <= pos < 1.0:
        raise DomainError(f"pos={pos!r} outside [0,1)")
    return RounderState(pos=pos)


def _covers_point(start: float, x: float, pos: float) -> bool:
    # Is there an integer l >= 0 with l + pos in [start, start + x)?
    # start >= 0 and pos < 1 imply ceil(start - pos) >= 0, so the smallest
    # admissible l is ceil(start - pos); the half-open right end is strict.
    if x <= 0.0:
        return False
    return math.ceil(start - pos) < start + x - pos


def process_round(state: RounderState, x_i: list[float]) -> list[int]:
    """Process one round of fractions; returns selected positions within it."""
    for xj in x_i:
        if xj < -EPS or xj > 1.0 + EPS:
            raise DomainError(f"fraction {xj!r} outside [0,1]")
    picked = []
    for j, xj in enumerate(x_i):
        xj = min(max(xj, 0.0), 1.0)
        if _covers_point(state._acc.value, xj, state.pos):
            picked.append(j)
            state.selected.append((state._round_index, j))
        state._acc.add(xj)
    state._round_index += 1
    return picked


def select_offline(inst: Instance, sol: FractionalSolution, seed: int) -> list[tuple[int, int]]:
    """Feed all rounds through one rounder; returns (round, position) pairs."""
    total = sol.total()
    if total > inst.capacity + EPS:
        raise FeasibilityError(f"sum(x)={total!r} exceeds K={inst.capacity}")
    state = new_rounder(seed)
    for row in sol.x:
        process_round(state, list(row))
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
        else:
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


def pos_selects(pieces: list[tuple[float, float]], pos: float) -> bool:
    return any(lo <= pos < hi for lo, hi in pieces)


def selection_count(x_flat: list[float], pos: float) -> int:
    """Realized selection count at a given offset, straight from the rounder."""
    state = rounder_at(pos)
    process_round(state, x_flat)
    return len(state.selected)


def count_bounds(x_flat: list[float]) -> tuple[int, int]:
    """The only two counts any offset can realize: floor and ceil of sum(x)."""
    total = math.fsum(min(max(x, 0.0), 1.0) for x in x_flat)
    return math.floor(total), math.ceil(total)
