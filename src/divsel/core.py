"""Domain types, instance (de)serialization, utility evaluation, and diagnostics.

All types are immutable after construction and the operations are pure
functions, so instances can be evaluated in parallel without shared state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ContractError, DegenerateError, InvariantError, SchemaError, ShapeError

#: Numeric tolerance for all feasibility comparisons.  Every process in this
#: package is piecewise linear in double precision; accumulated error stays
#: orders of magnitude below this at desk scale.
EPS = 1e-9

#: Desk-scale cap on total candidate count accepted by the LP-backed solvers.
MAX_CANDIDATES = 50_000


@dataclass(frozen=True)
class AttributeVector:
    """A candidate type: the sorted indices of the attributes it possesses."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        for prev, cur in zip(self.bits, self.bits[1:]):
            if cur <= prev:
                raise InvariantError("bits must be strictly increasing")
        if self.bits and self.bits[0] < 0:
            raise InvariantError("bits must be nonnegative")

    @property
    def popcount(self) -> int:
        return len(self.bits)

    def has(self, k: int) -> bool:
        return k in self.bits


@dataclass(frozen=True)
class Round:
    """One arrival batch; candidate order is the arrival/serialization order."""

    candidates: tuple[AttributeVector, ...]

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self) -> Iterator[AttributeVector]:
        return iter(self.candidates)

    def attribute_counts(self, d: int) -> list[int]:
        """Per-dimension arrival counts of this batch."""
        counts = [0] * d
        for cand in self.candidates:
            for k in cand.bits:
                counts[k] += 1
        return counts


@dataclass(frozen=True)
class RoundIncidence:
    """One round as index arrays: per-dimension arrival ``counts``, every
    candidate's attributes concatenated in arrival order (``bits``), and each
    candidate's attribute count and offset into ``bits`` (``lens``,
    ``starts``).

    Built on demand by ``round_incidence`` and never stored on a ``Round``,
    so a streamed horizon keeps no per-round arrays alive.
    """

    counts: np.ndarray
    bits: np.ndarray
    lens: np.ndarray
    starts: np.ndarray


def flatten_bits(bit_tuples: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Lengths of the tuples and their concatenated entries, as index arrays."""
    lens = np.fromiter(map(len, bit_tuples), dtype=np.intp, count=len(bit_tuples))
    return lens, np.fromiter(chain.from_iterable(bit_tuples), dtype=np.intp, count=int(lens.sum()))


def round_incidence(rnd: Round, d: int) -> RoundIncidence:
    """Index arrays of one round over ``d`` dimensions."""
    lens, bits = flatten_bits([cand.bits for cand in rnd.candidates])
    return RoundIncidence(
        counts=np.bincount(bits, minlength=d),
        bits=bits,
        lens=lens,
        starts=np.cumsum(lens) - lens,
    )


def max_over_attributes(values, inc: RoundIncidence) -> np.ndarray:
    """Each candidate's maximum of a per-dimension ``values`` vector (or of
    every row of an agents x d matrix) over its own attributes; 0.0 for a
    candidate with no attributes.

    ``reduceat`` returns an element rather than an empty reduction for a
    zero-length segment, so candidates without attributes are left out of it.
    """
    values = np.asarray(values, dtype=float)
    out = np.zeros(values.shape[:-1] + inc.lens.shape)
    nonempty = inc.lens > 0
    if inc.bits.size:
        out[..., nonempty] = np.maximum.reduceat(values[..., inc.bits], inc.starts[nonempty], axis=-1)
    return out


@dataclass(frozen=True)
class Instance:
    """Full problem data for one selection instance.

    ``capacity`` is the total number of slots.  ``per_round_capacity`` is
    present only for instances meant for the unknown-capacity scenario and
    must then satisfy ``capacity == n * per_round_capacity`` exactly.
    """

    d: int
    c: tuple[float, ...]
    capacity: int
    rounds: tuple[Round, ...]
    per_round_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.d < 1:
            raise InvariantError("d must be a positive integer")
        if len(self.c) != self.d:
            raise InvariantError("c must have length d")
        if not all(math.isfinite(ck) for ck in self.c):
            raise InvariantError("c entries must be finite")
        if any(ck <= 0 for ck in self.c):
            raise InvariantError("c entries must be positive")
        if abs(min(self.c) - 1.0) > EPS:
            raise InvariantError("min c must equal 1")
        if self.capacity < 0:
            raise InvariantError("K must be nonnegative")
        if self.per_round_capacity is not None:
            if self.per_round_capacity < 1:
                raise InvariantError("a must be a positive integer")
            if self.capacity != len(self.rounds) * self.per_round_capacity:
                raise InvariantError("K != n*a")
        for rnd in self.rounds:
            for cand in rnd:
                if cand.bits and cand.bits[-1] >= self.d:
                    raise InvariantError("candidate attribute index must be < d")

    @property
    def n(self) -> int:
        return len(self.rounds)

    @property
    def total_candidates(self) -> int:
        return sum(len(r) for r in self.rounds)

    def all_candidates(self) -> Iterator[AttributeVector]:
        for rnd in self.rounds:
            yield from rnd


@dataclass(frozen=True)
class FractionalSolution:
    """Per-(round, candidate-position) ex-ante selection probabilities."""

    x: tuple[tuple[float, ...], ...]

    def flat(self) -> list[float]:
        return [v for row in self.x for v in row]

    def total(self) -> float:
        return math.fsum(self.flat())


#: Per-dimension utilities c_k * sum_j x_j t_jk; plain list, length d.
UtilityVector = list


@dataclass(frozen=True)
class InstanceStats:
    """Arrival-fluctuation diagnostics for the unknown-capacity scenario.

    ``frak_b`` and ``eta`` are ``None`` when some dimension never arrives in
    some round (the fluctuation ratio is undefined); downstream theorem checks
    that need them must then report ``precondition_unmet`` rather than fail.
    """

    b_up: tuple[int, ...]
    b_lo: tuple[int, ...]
    frak_b: Optional[float]
    b_bar: int
    delta_up: float
    delta_lo: float
    eta: Optional[float]
    theta_lo: float
    theta_up: float
    loosely_capacitated: bool
    degenerate_dims: tuple[int, ...]


def _check_shape(inst: Instance, sol: FractionalSolution) -> None:
    if len(sol.x) != inst.n:
        raise ShapeError(f"solution has {len(sol.x)} rounds, instance has {inst.n}")
    for i, (row, rnd) in enumerate(zip(sol.x, inst.rounds)):
        if len(row) != len(rnd):
            raise ShapeError(f"round {i}: {len(row)} entries for {len(rnd)} candidates")


def _load_json(text: str):
    """JSON document; malformed, too deeply nested or oversize-integer
    input is a SchemaError."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise SchemaError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer over Python's digit limit
        raise SchemaError(f"invalid JSON: {exc}") from exc


def _numbers(values, message: str) -> tuple[float, ...]:
    """A JSON list of numbers as floats.  Anything else, booleans included,
    is a SchemaError, and so is an integer beyond float range."""
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise SchemaError(message)
    try:
        return tuple(float(v) for v in values)
    except OverflowError as exc:
        raise SchemaError(f"{message}: {exc}") from exc


def parse_instance(text: str) -> Instance:
    """Parse and validate the JSON instance document.

    Schema: ``{"d": int, "c": [float], "K": int, "a": int|null,
    "rounds": [[[int, ...], ...], ...]}`` with each candidate given as a
    sorted list of attribute indices.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise SchemaError("top-level document must be an object")
    for field in ("d", "c", "K", "rounds"):
        if field not in doc:
            raise SchemaError(f"missing field {field!r}")
    d = doc["d"]
    if not isinstance(d, int) or isinstance(d, bool):
        raise SchemaError("d must be an integer")
    c = _numbers(doc["c"], "c must be a list of numbers")
    cap = doc["K"]
    if not isinstance(cap, int) or isinstance(cap, bool):
        raise SchemaError("K must be an integer")
    a = doc.get("a")
    if a is not None and (not isinstance(a, int) or isinstance(a, bool)):
        raise SchemaError("a must be an integer or null")
    raw_rounds = doc["rounds"]
    if not isinstance(raw_rounds, list):
        raise SchemaError("rounds must be a list")
    rounds = []
    for i, raw_round in enumerate(raw_rounds):
        if not isinstance(raw_round, list):
            raise SchemaError(f"round {i} must be a list of candidates")
        cands = []
        for j, raw_cand in enumerate(raw_round):
            if not isinstance(raw_cand, list) or not all(
                isinstance(b, int) and not isinstance(b, bool) for b in raw_cand
            ):
                raise SchemaError(f"round {i} candidate {j} must be a list of integers")
            cands.append(AttributeVector(tuple(raw_cand)))
        rounds.append(Round(tuple(cands)))
    return Instance(
        d=d,
        c=c,
        capacity=cap,
        rounds=tuple(rounds),
        per_round_capacity=a,
    )


def serialize_instance(inst: Instance) -> str:
    """Serialize to the JSON schema; round-trips through parse_instance."""
    doc = {
        "d": inst.d,
        "c": list(inst.c),
        "K": inst.capacity,
        "a": inst.per_round_capacity,
        "rounds": [[list(cand.bits) for cand in rnd] for rnd in inst.rounds],
    }
    return json.dumps(doc)


def parse_solution(text: str, inst: Instance) -> FractionalSolution:
    """Parse a fractional solution (nested lists mirroring ``rounds``)."""
    doc = _load_json(text)
    if not isinstance(doc, list) or not all(isinstance(row, list) for row in doc):
        raise SchemaError("solution must be a list of per-round lists")
    sol = FractionalSolution(tuple(_numbers(row, "solution entries must be numbers") for row in doc))
    if not all(math.isfinite(v) for row in sol.x for v in row):
        raise SchemaError("solution entries must be finite")
    _check_shape(inst, sol)
    return sol


def serialize_solution(sol: FractionalSolution, digits: int = 12) -> str:
    return json.dumps([[float(f"{v:.{digits}g}") for v in row] for row in sol.x])


def marginals(inst: Instance) -> list[int]:
    """Per-dimension counts of arriving candidates over the whole horizon."""
    counts = [0] * inst.d
    for cand in inst.all_candidates():
        for k in cand.bits:
            counts[k] += 1
    return counts


def least_utility(inst: Instance, sol: FractionalSolution) -> tuple[float, UtilityVector]:
    """Least utility across dimensions plus the full per-dimension utilities.

    u_k = c_k * sum_j x_j t_jk, lu = min_k u_k.
    """
    _check_shape(inst, sol)
    acc = [0.0] * inst.d
    for row, rnd in zip(sol.x, inst.rounds):
        for xj, cand in zip(row, rnd):
            if xj == 0.0:
                continue
            for k in cand.bits:
                acc[k] += xj
    u = [inst.c[k] * acc[k] for k in range(inst.d)]
    return min(u), u


def validate_feasibility(
    inst: Instance,
    sol: FractionalSolution,
    mode: str = "total",
    eps: float = EPS,
) -> bool:
    """Check feasibility of a fractional solution.

    ``total`` checks sum(x) <= K and 0 <= x_j <= 1.  ``per_round_prefix``
    additionally enforces the unknown-capacity discipline: the mass emitted in
    rounds 1..i never exceeds i*a, for every i.
    """
    return not feasibility_report(inst, sol, mode, eps)


def feasibility_report(
    inst: Instance,
    sol: FractionalSolution,
    mode: str = "total",
    eps: float = EPS,
) -> list[str]:
    """Companion to validate_feasibility: list of violated constraints."""
    if mode not in ("total", "per_round_prefix"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_shape(inst, sol)
    violations = []
    for i, row in enumerate(sol.x):
        for j, xj in enumerate(row):
            if not math.isfinite(xj):
                violations.append(f"x[{i}][{j}]={xj!r} is not finite")
            elif xj < -eps or xj > 1.0 + eps:
                violations.append(f"x[{i}][{j}]={xj!r} outside [0,1]")
    total = sol.total()
    if total > inst.capacity + eps:
        violations.append(f"sum(x)={total!r} exceeds K={inst.capacity}")
    if mode == "per_round_prefix":
        if inst.per_round_capacity is None:
            raise ContractError("per_round_prefix mode requires per-round capacity a")
        a = inst.per_round_capacity
        prefix = 0.0
        for i, row in enumerate(sol.x):
            prefix = math.fsum([prefix, *row])
            if prefix > (i + 1) * a + eps:
                violations.append(f"prefix sum through round {i} is {prefix!r} > {(i + 1) * a}")
    return violations


def round_counts(inst: Instance) -> np.ndarray:
    """Per-round arrival counts as one n x d integer matrix: row i is round
    i's ``attribute_counts``."""
    lens, bits = flatten_bits([cand.bits for cand in inst.all_candidates()])
    sizes = np.fromiter(map(len, inst.rounds), dtype=np.intp, count=inst.n)
    cand_round = np.repeat(np.arange(inst.n), sizes)
    bit_round = np.repeat(cand_round, lens)
    return np.bincount(bit_round * inst.d + bits, minlength=inst.n * inst.d).reshape(inst.n, inst.d)


def instance_stats(inst: Instance, strict: bool = False) -> InstanceStats:
    """Arrival statistics used by the unknown-capacity theorem checks.

    Requires ``per_round_capacity``.  With ``strict=True`` a dimension that
    never arrives in some round raises DegenerateError; by default the ratio
    fields are reported as None and everything else is still computed.
    """
    if inst.per_round_capacity is None:
        raise ContractError("instance_stats requires per-round capacity a")
    if inst.n == 0:
        raise DegenerateError("instance has no rounds")
    a = inst.per_round_capacity
    counts = round_counts(inst)
    b_up = tuple(counts.max(axis=0).tolist())
    b_lo = tuple(counts.min(axis=0).tolist())
    degenerate = tuple(k for k in range(inst.d) if b_lo[k] == 0)
    if degenerate and strict:
        raise DegenerateError(f"dimensions {list(degenerate)} have a round with no arrivals")
    frak_b = None if degenerate else max(b_up[k] / b_lo[k] for k in range(inst.d))
    b_bar = max(b_up)
    delta_up = 2.0 * max(b_up[k] * inst.c[k] for k in range(inst.d))
    delta_lo = 2.0 * min(b_lo[k] * inst.c[k] for k in range(inst.d))
    eta = None if delta_lo == 0 else a / delta_lo
    inv_c_sum = math.fsum(1.0 / ck for ck in inst.c)
    theta_lo = min(
        min(inst.c[k] * b_lo[k] for k in range(inst.d)),
        math.sqrt(inst.d) * a / inv_c_sum,
    )
    theta_up = 2.0 * min(b_up[k] * inst.c[k] for k in range(inst.d))
    loose = a * math.sqrt(inst.d) >= math.fsum(delta_lo / ck for ck in inst.c) - EPS
    return InstanceStats(
        b_up=b_up,
        b_lo=b_lo,
        frak_b=frak_b,
        b_bar=b_bar,
        delta_up=delta_up,
        delta_lo=delta_lo,
        eta=eta,
        theta_lo=theta_lo,
        theta_up=theta_up,
        loosely_capacitated=loose,
        degenerate_dims=degenerate,
    )


def is_core(cand: AttributeVector, d: int) -> bool:
    """Core-candidate test: popcount >= sqrt(d), decided exactly by squaring."""
    return cand.popcount * cand.popcount >= d


def min_count_at_least_sqrt_d(d: int) -> int:
    """Smallest integer m with m*m >= d (exact integer arithmetic)."""
    r = math.isqrt(d)
    return r if r * r == d else r + 1


def solution_from_rows(rows: Sequence[Iterable[float]]) -> FractionalSolution:
    return FractionalSolution(tuple(tuple(float(v) for v in row) for row in rows))
