"""Higher-level policy for the unknown-capacity scenario.

Three building blocks run each round: a myopic equal-improvement allocation,
a forward-looking pass (core candidates at full tendency, then water-filled
utility adjustments under a sqrt(d)*a budget, scaled into a feasible
fraction), and the hybrid average of the two.  An optional second agent tops
unused capacity back up without ever influencing the first agent's state.
Every round computes both the myopic and the forward row into one record; a
pass keeps the records, so it yields every variant, plain or topped up.

The policy reads only (d, c, a); it never sees K, n, or marginal information.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    BLOCK,
    FractionalSolution,
    Instance,
    Round,
    common_prefix_rounds,
    max_over_attributes,
    solution_from_rows,
)
from .errors import ContractError, DimensionError, ShapeError


def myopic_round(c: Sequence[float], a: int, rnd: Round) -> np.ndarray:
    """Equal-improvement allocation of the fresh capacity a.

    The common utility raise is alpha = min(min_k c_k phi_k, a / sum_k 1/c_k);
    each candidate takes the largest per-dimension share it is needed for.
    A dimension with no arrivals this round forces alpha = 0.
    """
    return _one_round(np.zeros(len(c)), c, a, rnd)[0]


def water_fill(
    u: Sequence[float],
    caps: Sequence[float],
    budget: float,
    c: Sequence[float],
    continue_after_cap: bool = False,
) -> np.ndarray:
    """Raise the lowest utility levels under a total budget and per-dim caps.

    The levels L_k = u_k + c_k z_k rise together from the bottom, in one
    sweep over 2d sorted events: dimension k joins at level u_k, adding 1/c_k
    to the slope of the consumption sum_k z_k, and reaches its cap at
    u_k + c_k caps_k; joins come first at equal levels.  The sweep stops where
    the consumption reaches the budget and, by default, at the first cap;
    min_k L_k then equals the optimum of the one-round adjustment LP, which
    ``benchmark.adjustment_bounds`` certifies from above.  With
    ``continue_after_cap`` a capped dimension leaves the slope and the rest
    keep rising until the budget runs out (same value, more mass).  Both modes
    cost O(d log d), for the sort, which by default takes only the events
    before the first cap: the joins at or below it, then that cap.
    """
    u, caps, c = (np.asarray(v, dtype=float) for v in (u, caps, c))
    if not u.size or budget <= 0.0:
        return np.zeros(u.size)
    events = np.concatenate([u, u + c * caps])
    if continue_after_cap:
        order = np.lexsort((np.arange(events.size) >= u.size, events))
    else:
        cap = u.size + int(events[u.size :].argmin())
        (joins,) = np.nonzero(u <= events[cap])
        order = np.concatenate([joins[u[joins].argsort(kind="stable")], [cap]])
    steps = np.concatenate([1.0 / c, -1.0 / c])[order].tolist()
    level, used, slope = float(events[order[0]]), 0.0, 0.0
    for event, capped, step in zip(events[order].tolist(), (order >= u.size).tolist(), steps):
        if used + slope * (event - level) >= budget:
            level += (budget - used) / slope
            break
        used += slope * (event - level)
        level = event
        if capped and not continue_after_cap:
            break
        slope += step
    return np.minimum(caps, np.maximum(0.0, (level - u) / c))


def forward_round(
    u: np.ndarray,
    c: Sequence[float],
    a: int,
    rnd: Round,
    continue_after_cap: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, np.ndarray]:
    """One round of the forward-looking pass from the running utilities u:
    returns (y_i, z_i, x_i, f_i, u_next), never writing to u.

    Stage 1 marks core candidates (tendency 1) and enters them into the
    accumulated utilities immediately; stage 2 water-fills the adjustments
    against the current utilities, reaching the water level f_i; stage 3
    scales both into a fraction that consumes at most a/2 + a/2 of the fresh
    capacity.  The adjustments enter the accumulators only after the
    fraction is formed.

    A round without candidates has no core and no caps: z_i = 0, the level
    is min(u) and u stays as it is.
    """
    _, x_i, y_i, z, levels, u_next = _one_round(u, c, a, rnd, continue_after_cap)
    return y_i, z[0] if len(z) else np.zeros(len(u)), x_i, levels[-1], u_next


class RoundBlock(NamedTuple):
    """Consecutive rounds: each one's candidate count (``sizes``), each one
    with candidates a row of arrival counts phi (``counts``) and the offset of
    its first attribute (``row_ptr``, closed by the attribute count), each
    candidate's attribute count and offset (``lens``, ``starts``), and each
    attribute's dimension (``dims``) and cell row * d + k of ``counts`` (``bits``)."""

    sizes: np.ndarray
    counts: np.ndarray
    row_ptr: list[int]
    lens: np.ndarray
    starts: np.ndarray
    dims: np.ndarray
    bits: np.ndarray

    @classmethod
    def of_round(cls, rnd: Round) -> RoundBlock:
        """One round, sharing the index arrays of its view."""
        counts, ptr = rnd.counts[None][: int(len(rnd) > 0)], [0, rnd.bits.size]
        return cls(np.array([len(rnd)]), counts, ptr, rnd.lens, rnd.starts, rnd.bits, rnd.bits)

    @classmethod
    def of_instance(cls, inst: Instance, lo: int, hi: int) -> RoundBlock:
        """Rounds lo:hi of an instance, from its CSR arrays."""
        ptr = inst.round_ptr[lo : hi + 1]
        sizes, cand = np.diff(ptr), inst.cand_ptr[ptr[0] : ptr[-1] + 1]
        widths, dims = np.diff(cand[ptr - ptr[0]])[sizes > 0], inst.bits[cand[0] : cand[-1]]
        cells = np.repeat(np.arange(widths.size) * inst.d, widths) + dims
        counts = np.bincount(cells, minlength=widths.size * inst.d).reshape(-1, inst.d)
        return cls(sizes, counts, [0, *widths.cumsum().tolist()], np.diff(cand), cand[:-1] - cand[0], dims, cells)


def _feed(run: UnknownPass, inst: Instance, lo: int, hi: int) -> None:
    """Rounds lo:hi of an instance into a pass, in blocks of at most ``BLOCK`` (round, k) cells."""
    step = max(1, BLOCK // inst.d)
    for start in range(lo, hi, step):
        run.trace.extend(run.policy.process_rounds(RoundBlock.of_instance(inst, start, min(hi, start + step))))


def _block_rows(u, c, raise_cap, a, block, continue_after_cap):
    """Both passes over a block from the running utilities u: (x_bar, x_hat,
    y, z, levels, u_next); z and levels[1:] hold a row and a water level per
    round with candidates, levels[0] is min(u).  Only the core update of u
    (c_k once per core attribute, in order, by ``np.add.at``), the water fill,
    u's update and the row's y scale go round by round; the rest runs over the
    whole block, the three per-candidate maxima in one ``reduceat``."""
    d, counts, lens, sizes, ptr = c.size, block.counts, block.lens, block.sizes, block.row_ptr
    phi = np.maximum(counts, 1)  # a dimension without arrivals is read by no candidate
    peaks = np.empty((3,) + counts.shape)  # per dimension: myopic shares, z / phi, the row's y scale
    alpha = np.minimum((c * counts).min(axis=1, keepdims=True), raise_cap)  # 0 where some phi_k = 0
    np.divide(alpha / c, phi, out=peaks[0])
    core = lens * lens >= d
    in_core = core.repeat(lens)  # per attribute
    levels = [float(u.min()) if len(counts) < len(sizes) else None]  # read by empty rounds only
    budget, z = math.sqrt(d) * a, []
    for j in range(len(counts)):
        lo, hi = ptr[j], ptr[j + 1]
        dims = block.dims[lo:hi][in_core[lo:hi]]
        u = u.copy()
        np.add.at(u, dims, c[dims])
        peaks[1, j] = z_j = water_fill(u, counts[j], budget, c, continue_after_cap)
        peaks[2, j] = min(1.0, a / ((hi - lo) / math.sqrt(d))) if hi > lo else 0.0
        u = u + c * z_j
        levels.append(float(u.min()))
        z.append(z_j)
    np.divide(peaks[1], phi, out=peaks[1])
    x_bar, z_part, y = max_over_attributes(peaks.reshape(3, -1), block)  # y holds the y scale until the end
    x_hat = np.add((core / 2.0) * y, z_part / (2.0 * math.sqrt(d)), out=z_part)
    y[:] = core
    return x_bar, x_hat, y, z, levels, u


def _one_round(u, c, a: int, rnd: Round, continue_after_cap: bool = False):
    """``_block_rows`` of one round, for the public kernels."""
    if len(c) != rnd.d or len(u) != rnd.d:
        raise DimensionError(f"c of length {len(c)} and u of length {len(u)} for a round of d={rnd.d}")
    c, raise_cap = np.asarray(c, dtype=float), a / math.fsum(1.0 / ck for ck in c)
    return _block_rows(np.asarray(u, dtype=float), c, raise_cap, a, RoundBlock.of_round(rnd), continue_after_cap)


def hybrid_round(x_bar, x_hat) -> np.ndarray:
    if len(x_bar) != len(x_hat):
        raise ShapeError(f"hybrid inputs differ in length: {len(x_bar)} vs {len(x_hat)}")
    return (np.asarray(x_bar, dtype=float) + np.asarray(x_hat, dtype=float)) / 2.0


def _variant_row(variant: str, x_bar: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    """One variant's plain (not topped-up) row from the myopic and forward rows."""
    if variant == "myopic":
        return x_bar
    if variant == "forward":
        return x_hat
    return hybrid_round(x_bar, x_hat)


def _equal_increment_topup(x_i: np.ndarray, budget: float) -> np.ndarray:
    """Raise all entries by a common increment, clipping at 1, until the
    budget or every headroom is consumed.  Never reduces an entry.

    Entries are visited by headroom, smallest first, while the increment
    would push the next one past 1: it is set to 1 and its headroom leaves the
    budget.  Where the rest of the budget fits, the remaining entries rise
    together; mostly that is at once, and nothing is sorted.
    """
    if not x_i.size or budget <= 0.0:
        return x_i
    if (1.0 - float(x_i.max())) * x_i.size >= budget - 1e-15:
        return np.minimum(1.0, x_i + budget / x_i.size)
    order = np.argsort(1.0 - x_i, kind="stable")
    remaining = budget
    base = 0.0
    for rank, j in enumerate(order.tolist()):
        headroom = (1.0 - x_i[j]) - base
        active = order.size - rank
        if headroom * active >= remaining - 1e-15:
            base += remaining / active
            break
        base += headroom
        remaining -= headroom * active
    else:
        return np.ones(order.size)
    result = np.minimum(1.0, x_i + base)
    result[order[:rank]] = 1.0
    return result


def leftover_topup(policy: "UnknownPolicy", x_i: np.ndarray) -> np.ndarray:
    """Second agent: distribute the accumulated unused capacity over the
    current round's candidates, never reducing an entry.

    The budget is the capacity released so far minus everything already
    emitted (including past top-ups) minus the first agent's current row; the
    first agent's own state never sees the result, so its future decisions
    are unchanged and the combined solution dominates the plain one.
    """
    budget = policy.round_index * policy.a - policy.emitted_total - math.fsum(x_i.tolist())
    return _equal_increment_topup(x_i, budget)


#: The rows of every round without candidates, read-only since shared.
_EMPTY = np.zeros(0)
_EMPTY.flags.writeable = False


@dataclass(frozen=True, slots=True)
class UnknownRound:
    """One round of the unknown-capacity pass.  The myopic and forward parts
    never depend on the configured variant or the top-up."""

    x_bar: np.ndarray  # myopic row
    x_hat: np.ndarray  # forward row
    y: np.ndarray  # forward core tendencies
    z: np.ndarray  # forward adjustments, per dimension
    f: float  # forward water level
    emitted: np.ndarray  # the returned row: the variant's, topped up when enabled


VARIANTS = ("hybrid", "myopic", "forward")


@dataclass
class UnknownPolicy:
    """Sequential per-round driver for the unknown-capacity scenario; holds
    only the running state its next round reads (O(d))."""

    d: int
    c: tuple[float, ...]
    a: int
    variant: str = "hybrid"  # hybrid | myopic | forward
    topup_enabled: bool = False
    continue_after_cap: bool = False
    u: np.ndarray = field(init=False)  # running utilities of the forward pass
    emitted_total: float = 0.0
    round_index: int = 0
    weights: np.ndarray = field(init=False, repr=False)  # c as an array
    raise_cap: float = field(init=False, repr=False)  # a / sum_k 1/c_k
    zero_z: np.ndarray = field(init=False, repr=False)  # z of every empty round, read-only

    def __post_init__(self) -> None:
        if self.a < 1:
            raise ContractError("unknown-capacity policies require a >= 1")
        if self.variant not in VARIANTS:
            raise ContractError(f"unknown variant {self.variant!r}")
        self.u = np.zeros(self.d)
        self.weights = np.array(self.c, dtype=float)
        self.raise_cap = self.a / math.fsum(1.0 / ck for ck in self.c)
        self.zero_z = np.zeros(self.d)
        self.zero_z.flags.writeable = False

    def fork(self) -> UnknownPolicy:
        """An independent copy of the policy in its current state, to feed a
        different continuation of the rounds seen so far.  ``u`` is shared
        with the original, since each round replaces it rather than writes."""
        return copy.copy(self)

    def process_round(self, rnd: Round) -> list[float]:
        """One round, as a one-round block; returns its emitted row."""
        return self.process_rounds(RoundBlock.of_round(rnd))[0].emitted.tolist()

    def process_rounds(self, block: RoundBlock) -> list[UnknownRound]:
        """Feed consecutive rounds; returns their records.  A round without
        candidates records no rows, z = 0 and level min(u), and changes nothing else."""
        if block.counts.shape[1] != self.d:
            raise DimensionError(f"round of d={block.counts.shape[1]} fed to a policy of d={self.d}")
        x_bar, x_hat, y, z, levels, self.u = _block_rows(self.u, self.weights, self.raise_cap, self.a, block,
                                                         self.continue_after_cap)
        rows = _variant_row(self.variant, x_bar, x_hat)
        records, level, parts, hi = [], levels[0], zip(z, levels[1:]), 0
        for size in block.sizes.tolist():
            if size:
                z_i, level = next(parts)
                lo, hi = hi, hi + size  # the round's rows are views of the block's
                records.append(UnknownRound(x_bar[lo:hi], x_hat[lo:hi], y[lo:hi], z_i, level, self._emit(rows[lo:hi])))
            else:
                records.append(UnknownRound(_EMPTY, _EMPTY, _EMPTY, self.zero_z, level, self._emit(_EMPTY)))
        return records

    def _emit(self, row: np.ndarray) -> np.ndarray:
        """The emit step of one round's plain row, which reads nothing of the first agent: count the
        round, top the row up when enabled, and add it to ``emitted_total``; returns it."""
        self.round_index += 1
        if self.topup_enabled:
            row = leftover_topup(self, row)
        self.emitted_total += math.fsum(row.tolist())
        return row


class UnknownPass(NamedTuple):
    policy: UnknownPolicy  # after the rounds
    trace: list[UnknownRound]  # one record per round, in order


def _new_pass(inst: Instance, variant: str, topup: bool, continue_after_cap: bool) -> UnknownPass:
    if inst.per_round_capacity is None:
        raise ContractError("instance carries no per-round capacity a")
    return UnknownPass(UnknownPolicy(inst.d, inst.c, inst.per_round_capacity, variant, topup, continue_after_cap), [])


def run_unknown_policy(
    inst: Instance,
    variant: str = "hybrid",
    topup: bool = False,
    continue_after_cap: bool = False,
) -> UnknownPass:
    """Stream all rounds of an instance, as blocks, through a fresh policy."""
    run = _new_pass(inst, variant, topup, continue_after_cap)
    _feed(run, inst, 0, inst.n)
    return run


def unknown_family_passes(members: Iterable[Instance]) -> Iterator[UnknownPass]:
    """``run_unknown_policy(member)`` of every member, in order, each yielded
    as soon as it is complete, with the rounds that members share processed
    once.  Members are read one ahead of the pass yielded.

    The policy is deterministic and reads only (d, c, a), so two members with
    the same (d, c, a) that agree on their first r rounds reach the same state
    after them.  Member j + 1 agrees with member j on ``common_prefix_rounds``
    rounds; when member j's own pass starts at or before that round, member
    j + 1 continues a fork of it from there, with a copy of its records so
    far.  Otherwise (or when (d, c, a) differs) member j + 1 starts a fresh
    pass.
    """
    members = iter(members)
    inst, start, run = next(members, None), 0, None  # start: the first round inst's pass processes itself
    while inst is not None:
        nxt, split = next(members, None), 0  # split: where nxt forks off, if it does
        if nxt is not None and (inst.d, inst.c, inst.per_round_capacity) == (nxt.d, nxt.c, nxt.per_round_capacity):
            shared = common_prefix_rounds(inst, nxt)
            split = shared if shared >= start else 0
        run = _new_pass(inst, "hybrid", False, False) if run is None else run
        _feed(run, inst, start, split or start)
        follower = UnknownPass(run.policy.fork(), list(run.trace)) if split else None
        _feed(run, inst, split or start, inst.n)
        done, inst, start, run = run, nxt, split, follower  # inst no longer held while done is read
        yield done


def policy_solution(run: UnknownPass):
    """The rows the pass's policy emitted."""
    return solution_from_rows([rec.emitted for rec in run.trace])


def variant_solution(run: UnknownPass, variant: str):
    """A variant's plain rows (no top-up), read from any pass's records."""
    if variant not in VARIANTS:
        raise ContractError(f"unknown variant {variant!r}")
    x_bar = solution_from_rows([rec.x_bar for rec in run.trace])
    x_hat = np.concatenate([rec.x_hat for rec in run.trace] + [_EMPTY])
    return FractionalSolution(_variant_row(variant, x_bar.values, x_hat), x_bar.round_ptr)


def topup_solution(run: UnknownPass, variant: str):
    """A variant's topped-up rows, replayed from any pass's records: its plain
    rows go through the emit step of a fresh top-up policy.  The top-up never
    feeds back into the first agent, so these are the rows
    ``run_unknown_policy(inst, variant, topup=True)`` emits, bit for bit."""
    plain, policy = variant_solution(run, variant), run.policy
    replay, bounds = UnknownPolicy(policy.d, policy.c, policy.a, variant, True), plain.round_ptr.tolist()
    return solution_from_rows([replay._emit(plain.values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])
