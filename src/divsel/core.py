"""Domain types, instance (de)serialization, utility evaluation, and diagnostics.

An instance is held once, as compressed sparse rows (CSR): ``round_ptr``
marks where each round's candidates start, ``cand_ptr`` where each
candidate's attributes start, and ``bits`` holds every attribute in one int32
array.  Every layer reads these arrays.  A ``Round`` is a view of one round's
slice of them and carries the index arrays the policies read, built once per
view; ``AttributeVector`` is a candidate's type for callers that want
objects.  All types are immutable after construction and the operations are
pure functions, so instances can be evaluated in parallel without shared
state.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Optional

import numpy as np

from .errors import ContractError, DegenerateError, InvariantError, SchemaError, ShapeError

#: Numeric tolerance for all feasibility comparisons.  Every process in this
#: package is piecewise linear in double precision; accumulated error stays
#: orders of magnitude below this at desk scale.
EPS = 1e-9


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


def _vector(bits: tuple[int, ...]) -> AttributeVector:
    """An AttributeVector of bits an instance has already validated."""
    vec = object.__new__(AttributeVector)
    object.__setattr__(vec, "bits", bits)
    return vec


def _offsets(sizes) -> np.ndarray:
    """CSR pointer of consecutive blocks of the given sizes (length + 1)."""
    sizes = np.asarray(sizes, dtype=np.int64)
    ptr = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    return ptr


def _pack(bit_lists: Sequence[Sequence[int]], dtype=np.int64) -> tuple[np.ndarray, np.ndarray]:
    """CSR form of a list of integer sequences: the int64 pointer and the
    concatenated entries as ``dtype``."""
    ptr = _offsets(np.fromiter(map(len, bit_lists), dtype=np.int64, count=len(bit_lists)))
    return ptr, np.fromiter(chain.from_iterable(bit_lists), dtype=dtype, count=int(ptr[-1]))


def physical_memory() -> float:
    """Bytes of physical memory, or infinity where the OS does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return math.inf


def _split(flat: list, ptr: np.ndarray) -> list[list]:
    """``flat`` cut at the offsets of a CSR pointer (relative to its start)."""
    offsets = (ptr - ptr[0]).tolist()
    return [flat[lo:hi] for lo, hi in zip(offsets, offsets[1:])]


class Round:
    """One arrival batch of an instance over its ``d`` dimensions; candidate
    order is the arrival/serialization order.

    A view of the instance's read-only CSR arrays (``ptr`` is the round's
    slice of ``cand_ptr``, ``data`` the instance's ``bits``) that carries the
    index arrays every kernel reads: the candidates' attributes concatenated
    in arrival order (``bits``), each candidate's attribute count and offset
    into ``bits`` (``lens``, ``starts``), and the per-dimension arrival
    counts phi_k (``counts``).  They are built once, with the view, and are
    read-only, so policies fed the same view share them and none can change
    them.
    """

    __slots__ = ("d", "_ptr", "bits", "lens", "starts", "counts")

    def __init__(self, d: int, ptr: np.ndarray, data: np.ndarray) -> None:
        self.d, self._ptr = d, ptr
        self.bits = data[ptr[0] : ptr[-1]]
        self.lens, self.starts = ptr[1:] - ptr[:-1], ptr[:-1] - ptr[0]
        self.counts = np.bincount(self.bits, minlength=d)
        self.lens.flags.writeable = self.starts.flags.writeable = self.counts.flags.writeable = False

    def bit_lists(self) -> list[list[int]]:
        """Each candidate's attributes as a list of ints, in arrival order."""
        return _split(self.bits.tolist(), self._ptr)

    @property
    def candidates(self) -> tuple[AttributeVector, ...]:
        return tuple(_vector(tuple(bits)) for bits in self.bit_lists())

    def __len__(self) -> int:
        return len(self._ptr) - 1

    def __iter__(self) -> Iterator[AttributeVector]:
        return iter(self.candidates)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Round):
            return NotImplemented
        return self.bit_lists() == other.bit_lists()

    def __repr__(self) -> str:
        return f"Round({self.bit_lists()!r})"

    def attribute_counts(self, d: int) -> list[int]:
        """Per-dimension arrival counts of this batch."""
        return np.bincount(self.bits, minlength=d).tolist()


def max_over_attributes(values, rnd: Round) -> np.ndarray:
    """Each candidate's maximum of a per-dimension ``values`` vector (or of
    every row of an agents x d matrix) over its own attributes; 0.0 for a
    candidate with no attributes.

    ``reduceat`` returns an element rather than an empty reduction for a
    zero-length segment, so candidates without attributes are left out of it.
    """
    values = np.asarray(values, dtype=float)
    if rnd.lens.all():  # no such candidate: one reduceat is the whole answer
        return np.maximum.reduceat(values.take(rnd.bits, axis=-1), rnd.starts, axis=-1)
    out = np.zeros(values.shape[:-1] + rnd.lens.shape)
    nonempty = rnd.lens > 0
    if rnd.bits.size:
        out[..., nonempty] = np.maximum.reduceat(values.take(rnd.bits, axis=-1), rnd.starts[nonempty], axis=-1)
    return out


def _frozen(values, dtype, copy: bool = True) -> np.ndarray:
    """``values`` as a read-only array; without ``copy``, one of the dtype is itself frozen."""
    arr = np.array(values, dtype=dtype) if copy else np.asarray(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


class _Rounds(Sequence):
    """An instance's rounds as ``Round`` views, each built when accessed."""

    __slots__ = ("_inst",)

    def __init__(self, inst: Instance) -> None:
        self._inst = inst

    def __len__(self) -> int:
        return self._inst.n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n = len(self)
        i = i + n if i < 0 else i
        if not 0 <= i < n:
            raise IndexError("round index out of range")
        inst = self._inst
        lo, hi = inst.round_ptr[i : i + 2].tolist()
        return Round(inst.d, inst.cand_ptr[lo : hi + 1], inst.bits)

    def __iter__(self) -> Iterator[Round]:
        inst = self._inst
        ptr = inst.round_ptr.tolist()
        for lo, hi in zip(ptr, ptr[1:]):
            yield Round(inst.d, inst.cand_ptr[lo : hi + 1], inst.bits)


@dataclass(frozen=True, eq=False, repr=False)
class Instance:
    """Full problem data for one selection instance, as CSR arrays.

    Round i holds candidates ``round_ptr[i]:round_ptr[i+1]`` (arrival order)
    and candidate j the attributes ``bits[cand_ptr[j]:cand_ptr[j+1]]``,
    strictly increasing.  ``capacity`` is the total number of slots.
    ``per_round_capacity`` is present only for instances meant for the
    unknown-capacity scenario and must then satisfy
    ``capacity == n * per_round_capacity`` exactly.

    ``Instance(d, c, capacity, round_ptr, cand_ptr, bits, per_round_capacity)``
    validates and copies the arrays, so the caller may change its own later;
    ``from_bit_lists`` builds them from per-round lists of attribute indices.
    """

    d: int
    c: tuple[float, ...]
    capacity: int
    round_ptr: np.ndarray
    cand_ptr: np.ndarray
    bits: np.ndarray
    per_round_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        self._set(self.d, self.c, self.capacity, self.round_ptr, self.cand_ptr, self.bits, self.per_round_capacity)

    @classmethod
    def _adopt(cls, d, c, capacity, round_ptr, cand_ptr, bits, per_round_capacity=None) -> Instance:
        """An instance of arrays the package's builders give up: those of the stored dtypes are kept."""
        return cls.__new__(cls)._set(d, c, capacity, round_ptr, cand_ptr, bits, per_round_capacity, copy=False)

    @classmethod
    def from_bit_lists(
        cls,
        d: int,
        c: Sequence[float],
        capacity: int,
        rounds: Sequence[Sequence[Sequence[int]]],
        per_round_capacity: Optional[int] = None,
    ) -> Instance:
        """Instance from rounds given as lists of attribute-index sequences."""
        round_ptr = _offsets([len(rnd) for rnd in rounds])
        cands = list(chain.from_iterable(rounds))
        try:
            cand_ptr, bits = _pack(cands, np.int32)
        except OverflowError:  # an index past int32: packed as int64, it meets the checks in their order
            cand_ptr, bits = _pack(cands)
        return cls._adopt(d, c, capacity, round_ptr, cand_ptr, bits, per_round_capacity)

    def _set(self, d, c, capacity, round_ptr, cand_ptr, bits, per_round_capacity, copy=True) -> Instance:
        """Validate the fields and store them, the arrays read-only (copied with ``copy``)."""
        round_ptr = np.asarray(round_ptr, dtype=np.int64)
        cand_ptr = np.asarray(cand_ptr, dtype=np.int64)
        bits = np.asarray(bits)
        if bits.dtype.kind not in "iu":
            bits = bits.astype(np.int64)
        if not (
            round_ptr.ndim == cand_ptr.ndim == bits.ndim == 1
            and round_ptr.size >= 1 and round_ptr[0] == 0 and round_ptr[-1] == cand_ptr.size - 1
            and cand_ptr[0] == 0 and cand_ptr[-1] == bits.size
            and (np.diff(round_ptr) >= 0).all() and (np.diff(cand_ptr) >= 0).all()
        ):
            raise InvariantError("round_ptr, cand_ptr and bits do not form CSR arrays")
        # Consecutive entries of one candidate must increase; the pairs that
        # straddle a candidate boundary are exempt.
        unordered = bits[1:] <= bits[:-1]
        unordered[cand_ptr[(cand_ptr > 0) & (cand_ptr < bits.size)] - 1] = False
        if unordered.any():
            raise InvariantError("bits must be strictly increasing")
        if bits.size and bits.min() < 0:
            raise InvariantError("bits must be nonnegative")
        c = tuple(c)
        if d < 1:
            raise InvariantError("d must be a positive integer")
        if len(c) != d:
            raise InvariantError("c must have length d")
        if not all(math.isfinite(ck) for ck in c):
            raise InvariantError("c entries must be finite")
        if any(ck <= 0 for ck in c):
            raise InvariantError("c entries must be positive")
        if abs(min(c) - 1.0) > EPS:
            raise InvariantError("min c must equal 1")
        if capacity < 0:
            raise InvariantError("K must be nonnegative")
        if per_round_capacity is not None:
            if per_round_capacity < 1:
                raise InvariantError("a must be a positive integer")
            if capacity != (round_ptr.size - 1) * per_round_capacity:
                raise InvariantError("K != n*a")
        if bits.size and bits.max() >= d:
            raise InvariantError("candidate attribute index must be < d")
        for name, value in (
            ("d", d),
            ("c", c),
            ("capacity", capacity),
            ("per_round_capacity", per_round_capacity),
            ("round_ptr", _frozen(round_ptr, np.int64, copy)),
            ("cand_ptr", _frozen(cand_ptr, np.int64, copy)),
            ("bits", _frozen(bits, np.int32, copy)),
        ):
            object.__setattr__(self, name, value)
        return self

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (self.d, self.c, self.capacity, self.per_round_capacity) == (
            other.d, other.c, other.capacity, other.per_round_capacity
        ) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("round_ptr", "cand_ptr", "bits")
        )

    def __repr__(self) -> str:
        return (
            f"Instance(d={self.d}, n={self.n}, candidates={self.total_candidates}, "
            f"capacity={self.capacity}, per_round_capacity={self.per_round_capacity})"
        )

    @property
    def rounds(self) -> _Rounds:
        return _Rounds(self)

    @property
    def n(self) -> int:
        return self.round_ptr.size - 1

    @property
    def total_candidates(self) -> int:
        return self.cand_ptr.size - 1

    @property
    def cand_lens(self) -> np.ndarray:
        """Attribute count of every candidate, in arrival order."""
        return np.diff(self.cand_ptr)

    def all_candidates(self) -> Iterator[AttributeVector]:
        for bits in _split(self.bits.tolist(), self.cand_ptr):
            yield _vector(tuple(bits))


def _first_difference(x: np.ndarray, y: np.ndarray) -> int:
    """Index of the first unequal entry of two equal-length arrays, or their
    length when they are equal."""
    diff = np.flatnonzero(x != y)
    return int(diff[0]) if diff.size else x.size


def common_prefix_rounds(a: Instance, b: Instance) -> int:
    """Number of leading rounds two instances hold identically (same
    candidates with the same attributes, in the same order), read from the
    CSR arrays.

    Up to the first round whose size differs, both instances place their
    candidates at the same offsets; up to the first of those candidates whose
    length differs, they place their attributes at the same offsets.  The
    prefix ends at the round holding the first differing size, length or
    attribute.
    """
    n = min(a.n, b.n)
    rounds = _first_difference(np.diff(a.round_ptr[: n + 1]), np.diff(b.round_ptr[: n + 1]))
    cands = int(a.round_ptr[rounds])
    bad = _first_difference(a.cand_lens[:cands], b.cand_lens[:cands])
    width = int(a.cand_ptr[bad])
    bit = _first_difference(a.bits[:width], b.bits[:width])
    if bit < width:
        bad = int(np.searchsorted(a.cand_ptr, bit, side="right")) - 1
    if bad == cands:
        return rounds
    # The last round starting at or before the candidate is the one holding it.
    return int(np.searchsorted(a.round_ptr, bad, side="right")) - 1


@dataclass(frozen=True, eq=False)
class FractionalSolution:
    """Per-(round, candidate-position) ex-ante selection probabilities: one
    float64 entry per candidate in arrival order (``values``), cut into
    rounds by ``round_ptr``.  ``x`` gives the rows as tuples."""

    values: np.ndarray
    round_ptr: np.ndarray

    def __post_init__(self) -> None:
        values = _frozen(self.values, float)
        round_ptr = _frozen(self.round_ptr, np.int64)
        if not (
            values.ndim == round_ptr.ndim == 1 and round_ptr.size >= 1
            and round_ptr[0] == 0 and round_ptr[-1] == values.size and (np.diff(round_ptr) >= 0).all()
        ):
            raise ShapeError("round_ptr does not cut values into rounds")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "round_ptr", round_ptr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FractionalSolution):
            return NotImplemented
        return np.array_equal(self.round_ptr, other.round_ptr) and np.array_equal(self.values, other.values)

    @property
    def x(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(tuple, _split(self.flat(), self.round_ptr)))

    def flat(self) -> list[float]:
        return self.values.tolist()

    def total(self) -> float:
        return math.fsum(self.flat())


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
    if np.array_equal(sol.round_ptr, inst.round_ptr):
        return
    if sol.round_ptr.size != inst.round_ptr.size:
        raise ShapeError(f"solution has {sol.round_ptr.size - 1} rounds, instance has {inst.n}")
    got, want = np.diff(sol.round_ptr), np.diff(inst.round_ptr)
    i = int(np.flatnonzero(got != want)[0])
    raise ShapeError(f"round {i}: {got[i]} entries for {want[i]} candidates")


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


def _check_candidate_lists(raw_rounds: list) -> None:
    """Every round a list of candidates and every candidate a list of
    integers (booleans excluded), else a SchemaError naming the first
    offender; set comprehensions over the types keep the common case fast."""
    if {type(raw_round) for raw_round in raw_rounds} <= {list}:
        cands = list(chain.from_iterable(raw_rounds))
        if {type(cand) for cand in cands} <= {list} and set(map(type, chain.from_iterable(cands))) <= {int}:
            return
    for i, raw_round in enumerate(raw_rounds):
        if not isinstance(raw_round, list):
            raise SchemaError(f"round {i} must be a list of candidates")
        for j, raw_cand in enumerate(raw_round):
            if not isinstance(raw_cand, list) or not all(type(b) is int for b in raw_cand):
                raise SchemaError(f"round {i} candidate {j} must be a list of integers")


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
    _check_candidate_lists(raw_rounds)
    try:
        return Instance.from_bit_lists(d, c, cap, raw_rounds, a)
    except OverflowError:
        # An attribute index beyond int64: the per-candidate checks still
        # come first, and no instance has that many dimensions.
        for cand in chain.from_iterable(raw_rounds):
            AttributeVector(tuple(cand))
        raise InvariantError("candidate attribute index must be < d") from None


def serialize_instance(inst: Instance) -> str:
    """Serialize to the JSON schema; round-trips through parse_instance."""
    doc = {
        "d": inst.d,
        "c": list(inst.c),
        "K": inst.capacity,
        "a": inst.per_round_capacity,
        "rounds": _split(_split(inst.bits.tolist(), inst.cand_ptr), inst.round_ptr),
    }
    return json.dumps(doc)


def parse_solution(text: str, inst: Instance) -> FractionalSolution:
    """Parse a fractional solution (nested lists mirroring ``rounds``)."""
    doc = _load_json(text)
    if not isinstance(doc, list) or not all(isinstance(row, list) for row in doc):
        raise SchemaError("solution must be a list of per-round lists")
    sol = solution_from_rows([_numbers(row, "solution entries must be numbers") for row in doc])
    if not np.isfinite(sol.values).all():
        raise SchemaError("solution entries must be finite")
    _check_shape(inst, sol)
    return sol


def serialize_solution(sol: FractionalSolution, digits: int = 12) -> str:
    flat = [float(f"{v:.{digits}g}") for v in sol.flat()]
    return json.dumps(_split(flat, sol.round_ptr))


def marginals(inst: Instance) -> list[int]:
    """Per-dimension counts of arriving candidates over the whole horizon."""
    return np.bincount(inst.bits, minlength=inst.d).tolist()


def least_utility(inst: Instance, sol: FractionalSolution) -> tuple[float, list[float]]:
    """Least utility across dimensions plus the full per-dimension utilities.

    u_k = c_k * sum_j x_j t_jk, lu = min_k u_k.  ``bincount`` adds each
    dimension's terms one by one in arrival order, as a loop over the
    candidates would.
    """
    _check_shape(inst, sol)
    acc = np.bincount(inst.bits, weights=np.repeat(sol.values, inst.cand_lens), minlength=inst.d)
    u = (np.asarray(inst.c) * acc).tolist()
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
    v = sol.values
    bad = np.flatnonzero(~np.isfinite(v) | (v < -eps) | (v > 1.0 + eps))
    rounds = np.searchsorted(sol.round_ptr, bad, side="right") - 1
    for j, i in zip(bad.tolist(), rounds.tolist()):
        xj = float(v[j])
        where = f"x[{i}][{j - int(sol.round_ptr[i])}]={xj!r}"
        violations.append(f"{where} is not finite" if not math.isfinite(xj) else f"{where} outside [0,1]")
    total = sol.total()
    if total > inst.capacity + eps:
        violations.append(f"sum(x)={total!r} exceeds K={inst.capacity}")
    if mode == "per_round_prefix":
        if inst.per_round_capacity is None:
            raise ContractError("per_round_prefix mode requires per-round capacity a")
        a = inst.per_round_capacity
        prefix = 0.0
        for i, row in enumerate(_split(sol.flat(), sol.round_ptr)):
            prefix = math.fsum([prefix, *row])
            if prefix > (i + 1) * a + eps:
                violations.append(f"prefix sum through round {i} is {prefix!r} > {(i + 1) * a}")
    return violations


def round_counts(inst: Instance) -> np.ndarray:
    """Per-round arrival counts as one n x d integer matrix: row i is round
    i's ``attribute_counts``."""
    bit_round = np.repeat(np.arange(inst.n), np.diff(inst.cand_ptr[inst.round_ptr]))
    return np.bincount(bit_round * inst.d + inst.bits, minlength=inst.n * inst.d).reshape(inst.n, inst.d)


def instance_stats(inst: Instance) -> InstanceStats:
    """Arrival statistics used by the unknown-capacity theorem checks.

    Requires ``per_round_capacity``.  When a dimension never arrives in some
    round the ratio fields are None and everything else is still computed.
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


def core_mask(lens: np.ndarray, d: int) -> np.ndarray:
    """``is_core`` of every candidate from its attribute count."""
    return lens * lens >= d


def min_count_at_least_sqrt_d(d: int) -> int:
    """Smallest integer m with m*m >= d (exact integer arithmetic)."""
    r = math.isqrt(d)
    return r if r * r == d else r + 1


def solution_from_rows(rows: Sequence[Sequence[float]]) -> FractionalSolution:
    """A solution from per-round rows (lists, tuples or float arrays)."""
    rows = [np.asarray(row, dtype=float) for row in rows]
    return FractionalSolution(np.concatenate(rows + [np.zeros(0)]), _offsets([row.size for row in rows]))
