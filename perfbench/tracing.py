"""In-memory span tracing of divsel's layers, installed from outside the package.

Every public function of the traced modules (and every public method of their
classes) is replaced, in each namespace where a caller looks it up, by a
wrapper that records one span per call: name, start, end, parent span, run id,
the namespace the call went through ("site") and an optional tag.  Nothing in
``src/`` is edited; ``Tracer.uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from typing import Callable, Optional

#: Layers whose public functions are wrapped.
LAYER_MODULES = (
    "core",
    "benchmark",
    "fixed_policy",
    "unknown_policy",
    "rounding",
    "harness",
    "generators",
    "cli",
)

#: Namespaces searched for lookup sites: the layers plus the package itself,
#: which re-exports most of them.
SITE_MODULES = ("divsel", "divsel.errors") + tuple(f"divsel.{m}" for m in LAYER_MODULES)

#: Sub-microsecond helpers called once per candidate.  A wrapper costs more
#: than they do and would inflate their callers' traced time several-fold.
EXCLUDED = frozenset({"core.is_core", "core.AttributeVector.has", "rounding.pos_selects"})

# Span record layout (a list, so the end time can be filled in place).
NAME, SITE, START, END, PARENT, RUN, TAG = range(7)


def _fluid_matrix_mb(args, kwargs) -> float:
    """Bytes of solve_fluid's dense A_ub: (d + 1) x (N + 1) doubles."""
    inst = args[0]
    return (1 + inst.d) * (inst.total_candidates + 1) * 8 / 2**20


def _int_matrix_mb(args, kwargs) -> float:
    """Bytes of solve_int's dense A_ub: (tau + d) x (tau * d + 1) doubles."""
    inst = args[0]
    tau = kwargs.get("prefix_rounds", args[1] if len(args) > 1 else None) or inst.n
    return (tau + inst.d) * (tau * inst.d + 1) * 8 / 2**20


#: Per-span tags: a small value computed from the call's arguments.
TAGS: dict[str, Callable] = {
    "harness.competitive_report": lambda args, kwargs: len(args[0]),
    "fixed_policy.FixedPolicy.process_round": lambda args, kwargs: len(args[0].agents),
    "benchmark.solve_fluid": _fluid_matrix_mb,
    "benchmark.solve_int": _int_matrix_mb,
}


def traced_targets() -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, original) for every wrapped definition.

    Owner is the defining module for functions and the class for methods.
    """
    targets = []
    for short in LAYER_MODULES:
        mod = importlib.import_module(f"divsel.{short}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                targets.append((f"{short}.{attr}", mod, attr, obj))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        targets.append((f"{short}.{attr}.{meth}", obj, meth, fn))
    bench = importlib.import_module("divsel.benchmark")
    targets.append(("benchmark.linprog", bench, "linprog", bench.linprog))
    return [t for t in targets if t[0] not in EXCLUDED]


class Tracer:
    """Span recorder.  Single-threaded: one stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id: Optional[str] = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, site: str, fn, tag: Optional[Callable] = None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, site, 0.0, 0.0, stack[-1] if stack else -1, self.run_id,
                   tag(args, kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    def install(self, run_id: str) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.run_id = run_id
        targets = traced_targets()
        by_obj = {id(orig): (name, orig) for name, _, _, orig in targets}
        for name, owner, attr, orig in targets:
            if inspect.isclass(owner):
                site = owner.__module__.rsplit(".", 1)[-1]
                self._patch(owner, attr, self.wrap(name, site, orig, TAGS.get(name)))
        for mod_name in SITE_MODULES:
            mod = importlib.import_module(mod_name)
            site = mod_name.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                hit = by_obj.get(id(obj))
                if hit is not None and hit[1] is obj:
                    self._patch(mod, attr, self.wrap(hit[0], site, obj, TAGS.get(hit[0])))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        self.run_id = None

    def spans_of(self, run_ids) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[RUN] in run_ids]

    def dump(self, path) -> None:
        """Write every span as one tab-separated line (gzip)."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("id\tparent\trun\tname\tsite\tstart_s\tend_s\ttag\n")
            for i, s in enumerate(self.spans):
                out.write(f"{i}\t{s[PARENT]}\t{s[RUN]}\t{s[NAME]}\t{s[SITE]}\t"
                          f"{s[START]:.9f}\t{s[END]:.9f}\t{'' if s[TAG] is None else s[TAG]}\n")


def covered(interval: tuple[float, float], pieces: list[tuple[float, float]]) -> float:
    """Length of the part of ``interval`` covered by the union of ``pieces``."""
    lo, hi = interval
    total, reach = 0.0, lo
    for a, b in sorted(pieces):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def children_of(spans: list[list], ids: list[int]) -> dict[int, list[int]]:
    chosen = set(ids)
    kids: dict[int, list[int]] = {i: [] for i in ids}
    for i in ids:
        parent = spans[i][PARENT]
        if parent in chosen:
            kids[parent].append(i)
    return kids


def self_times(spans: list[list], ids: list[int], only: Optional[str] = None) -> dict[int, float]:
    """Span duration minus the time its child spans cover.

    With ``only`` set, only children of that name are subtracted (for example
    the time a builder spends outside ``linprog``).
    """
    kids = children_of(spans, ids)
    out = {}
    for i in ids:
        s = spans[i]
        pieces = [(spans[k][START], spans[k][END]) for k in kids[i]
                  if only is None or spans[k][NAME] == only]
        out[i] = (s[END] - s[START]) - covered((s[START], s[END]), pieces)
    return out


def has_ancestor(spans: list[list], i: int, name: str) -> bool:
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
