"""The benchmark's three workloads: set-up, one measured pass, and the checks
of every output against the stored or independently computed reference.

A pass returns a ``PassResult``; the worker repeats passes for the run's
duration.  The program only ever receives generated instance files or
``Instance`` objects.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import struct
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import reference

#: Relative agreement required of OPT, LU, ratio and verdict numbers; the
#: package's own tolerance (divsel.core.EPS).
REL_TOL = 1e-9
POLICIES = ("fixed", "uc-hybrid", "uc-myopic", "uc-forward")


@dataclass
class PassResult:
    timings: dict[str, float] = field(default_factory=dict)  # named command times, s
    samples: dict[str, list[float]] = field(default_factory=dict)  # latencies, s
    outputs: list = field(default_factory=list)  # compared across passes
    raw: dict = field(default_factory=dict)  # what check_pass needs, then dropped
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def op(self, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(detail)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``divsel <argv>`` in this process; (exit code, stdout)."""
    from divsel import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - any crash is a failed operation
        return -1, buf.getvalue() + traceback.format_exc()
    return rc, buf.getvalue()


def timed_cli(res: PassResult, key: str, argv: list[str]) -> None:
    start = time.perf_counter()
    rc, out = run_cli(argv)
    res.timings[key] = res.timings.get(key, 0.0) + time.perf_counter() - start
    res.outputs.append(out)
    res.raw.setdefault(key, []).append((rc, out))


_VERDICT = re.compile(r"^(\S+) (\S+)((?: (?:lhs|rhs|slack)=\S+)*)(?: \((.*)\))?$")


def parse_verdicts(text: str) -> list[dict]:
    out = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _VERDICT.match(line)
        if m is None:
            out.append({"status": "UNPARSED", "name": line, "nums": {}, "detail": ""})
            continue
        nums = dict(kv.split("=", 1) for kv in m.group(3).split())
        out.append({
            "status": m.group(1),
            "name": m.group(2),
            "nums": {k: float(v) for k, v in nums.items()},
            "detail": m.group(4) or "",
        })
    return out


def compare_verdicts(got: list[dict], want: list[dict], numbers: bool) -> list[str]:
    """Names and statuses exactly; with ``numbers`` also lhs/rhs/slack and
    the detail text."""
    if [(v["status"], v["name"]) for v in got] != [(v["status"], v["name"]) for v in want]:
        return [f"verdicts {[(v['status'], v['name']) for v in got]} != reference"]
    errors = []
    if numbers:
        for g, w in zip(got, want):
            if g["detail"] != w["detail"] or g["nums"].keys() != w["nums"].keys():
                errors.append(f"{g['name']}: {g} != {w}")
            for key, value in w["nums"].items():
                if key in g["nums"] and not close(g["nums"][key], value):
                    errors.append(f"{g['name']} {key}={g['nums'][key]!r} != {value!r}")
    return errors


def type_share(instances) -> tuple[float, int, int]:
    """Distinct attribute types / candidates, each instance counting its own
    types: the share of LP columns left after merging identical types."""
    distinct = sum(len({cand.bits for cand in inst.all_candidates()}) for inst in instances)
    cands = sum(inst.total_candidates for inst in instances)
    return distinct / cands, distinct, cands


def input_record(instances, **params) -> dict:
    share, distinct, cands = type_share(instances)
    per_round = [len(r) for inst in instances for r in inst.rounds]
    return {
        **params,
        "instances": len(instances),
        "d": sorted({inst.d for inst in instances}),
        "n": sorted({inst.n for inst in instances}),
        "candidates": cands,
        "distinct_types": distinct,
        "type_share": share,
        "candidates_per_round": {
            "mean": cands / len(per_round),
            "min": min(per_round),
            "max": max(per_round),
        },
    }


class Families:
    """``verify --family fhc --d 64`` then ``verify --family fcs --d 64``."""

    name = "families"
    D = 64

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.want = reference.stored()["families"]

    def setup(self) -> None:
        """Nothing to generate: the command builds its members itself."""

    def run_pass(self) -> PassResult:
        res = PassResult()
        for family in ("fhc", "fcs"):
            timed_cli(res, "verify_s", ["verify", "--family", family, "--d", str(self.D),
                                        "--seed", str(self.seed), "--jobs", "1"])
        return res

    def check_pass(self, res: PassResult) -> None:
        for family, (rc, out) in zip(("fhc", "fcs"), res.raw["verify_s"]):
            errors = [] if rc == 0 else [f"exit code {rc}: {out[-400:]}"]
            if rc == 0:
                errors += compare_verdicts(parse_verdicts(out), self.want[family], numbers=True)
            res.op(not errors, f"verify --family {family}: {errors[:3]}")

    def check_reference(self, first: PassResult) -> list[str]:
        return []  # every pass is already checked against the stored lines

    def record(self) -> dict:
        from divsel import generators

        members = generators.gen_fhc(self.D) + generators.gen_fcs(self.D)
        return input_record(members, seed=self.seed, families=["fhc", "fcs"])


class RandomVerify:
    """One random instance: ``verify --instance``, ``report``, ``mc``."""

    name = "random-verify"
    GEN = {"d": 32, "n": 1000, "a": 4, "p": 0.2}
    TRIALS = 5000

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.want = reference.stored()["random-verify"]
        self.path = ""
        self.inst = None

    def setup(self) -> None:
        from divsel import core

        argv = ["gen", "--family", "random", "--out", str(self.workdir), "--seed", str(self.seed)]
        for key, value in self.GEN.items():
            argv += [f"--{key}", str(value)]
        rc, out = run_cli(argv)
        if rc != 0:
            raise RuntimeError(f"divsel gen failed ({rc}): {out[-400:]}")
        self.path = out.strip().splitlines()[-1]
        self.inst = core.parse_instance(Path(self.path).read_text(encoding="utf-8"))

    def run_pass(self) -> PassResult:
        res = PassResult()
        seed = ["--seed", str(self.seed), "--jobs", "1"]
        timed_cli(res, "verify_s", ["verify", "--instance", self.path, *seed])
        timed_cli(res, "report_s", ["report", "--instances", self.path, *seed])
        timed_cli(res, "mc_s", ["mc", "--instance", self.path, "--trials", str(self.TRIALS), *seed])
        return res

    def check_pass(self, res: PassResult) -> None:
        (rc, out), = res.raw["verify_s"]
        errors = [f"exit code {rc}: {out[-400:]}"] if rc != 0 else compare_verdicts(
            parse_verdicts(out), self.want["verify"], numbers=False)
        res.op(not errors, f"verify --instance: {errors[:3]}")

        (rc, out), = res.raw["report_s"]
        rows = list(csv.DictReader(io.StringIO(out))) if rc == 0 else []
        ok = rc == 0 and [r["policy"] for r in rows] == list(POLICIES) and all(
            r["satisfied"] == "true" for r in rows)
        res.op(ok, f"report: exit code {rc}, rows {rows}")

        (rc, out), = res.raw["mc_s"]
        try:
            mc = json.loads(out) if rc == 0 else {}
        except json.JSONDecodeError:
            mc = {}
        ok = bool(mc) and mc["capacity_respected"] and mc["max_selected"] <= self.inst.capacity
        res.op(ok, f"mc: exit code {rc}, {out[-400:]}")

    def check_reference(self, first: PassResult) -> list[str]:
        """OPT, LU and ratio of the first pass against values the benchmark
        computes itself: OPT from its own type-aggregated LP, LU from the
        emitted fractions with its own arithmetic."""
        from divsel import harness

        doc = json.loads(Path(self.path).read_text(encoding="utf-8"))
        opt = reference.fluid_opt(doc)
        errors = []
        lemma1 = [v for v in parse_verdicts(first.outputs[0]) if v["name"] == "Lemma1-under"]
        if not lemma1 or not close(lemma1[0]["nums"]["lhs"], opt):
            errors.append(f"verify OPT {lemma1} != reference {opt!r}")
        rows = {r["policy"]: r for r in csv.DictReader(io.StringIO(first.outputs[1]))}
        for policy in POLICIES:
            sol, _ = harness.run_policy(self.inst, policy, self.seed)
            mode = "total" if policy == "fixed" else "per_round_prefix"
            errors += [f"{policy}: {e}" for e in reference.infeasibility(doc, sol.x, mode)[:3]]
            lu = reference.least_utility(doc, sol.x)
            row = rows.get(policy, {})
            for key, value in (("OPT", opt), ("LU", lu), ("ratio", lu / opt)):
                if key not in row or not close(float(row[key]), value):
                    errors.append(f"report {policy} {key}={row.get(key)!r} != reference {value!r}")
        return errors

    def alloc_probe(self) -> float:
        """Peak traced allocation (MiB) of one solve_int call on the instance."""
        import tracemalloc

        from divsel import benchmark

        tracemalloc.start()
        try:
            benchmark.solve_int(self.inst)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def record(self) -> dict:
        return input_record([self.inst], seed=self.seed, gen=self.GEN, mc_trials=self.TRIALS)


class OnlineStream:
    """Round-by-round closed loop: each round goes through the fixed policy
    and the hybrid unknown-capacity policy with top-up, and each emitted row
    through that policy's rounder, before the next round is fed."""

    name = "online-stream"
    GEN = {"d": 64, "n": 2000, "a": 4, "density": 0.2, "min_arrivals": 1, "c_max": 2.0}
    EPS = 1e-9

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.inst = None
        self.phi = None

    def setup(self) -> None:
        from divsel import core, generators

        self.inst = generators.gen_random(seed=self.seed, **self.GEN)
        # The fixed-capacity scenario grants the marginal counts up front.
        self.phi = core.marginals(self.inst)

    def run_pass(self) -> PassResult:
        from divsel import fixed_policy, rounding, unknown_policy

        inst = self.inst
        policies = {
            "fixed": fixed_policy.new_fixed_policy(inst.d, inst.c, inst.capacity, self.phi, self.seed),
            "uc": unknown_policy.UnknownPolicy(d=inst.d, c=inst.c, a=inst.per_round_capacity,
                                               variant="hybrid", topup_enabled=True),
        }
        rounders = {"fixed": rounding.new_rounder(self.seed), "uc": rounding.new_rounder(self.seed + 1)}
        lat = {key: [] for key in policies}
        rows = {key: [] for key in policies}
        picks = {key: [] for key in policies}
        clock = time.perf_counter
        for rnd in inst.rounds:
            for key, pol in policies.items():
                start = clock()
                x = pol.process_round(rnd)
                chosen = rounding.process_round(rounders[key], x)
                lat[key].append(clock() - start)
                rows[key].append(x)
                picks[key].append(chosen)
        return PassResult(samples={f"{key}.round": v for key, v in lat.items()},
                          raw={key: (rows[key], picks[key]) for key in policies})

    def check_pass(self, res: PassResult) -> None:
        for key, (rows, picks) in res.raw.items():
            self._check_stream(res, key, rows, picks)
            digest = hashlib.sha256()
            for x, chosen in zip(rows, picks):
                digest.update(array("d", x).tobytes())
                digest.update(struct.pack(f"{len(chosen)}q", *chosen))
            res.outputs.append(digest.hexdigest())

    def _check_stream(self, res: PassResult, key: str, rows, picks) -> None:
        """Each row feasible in its scenario's mode; picks valid and never
        above the capacity released so far."""
        inst, eps = self.inst, self.EPS
        a = inst.per_round_capacity
        prefix, picked = 0.0, 0
        for i, (x, chosen) in enumerate(zip(rows, picks)):
            errors = []
            if len(x) != len(inst.rounds[i]):
                errors.append(f"{len(x)} fractions for {len(inst.rounds[i])} candidates")
            if any(not (-eps <= v <= 1.0 + eps) for v in x):
                errors.append("fraction outside [0, 1]")
            prefix = math.fsum([prefix, *x])
            limit = inst.capacity if key == "fixed" else (i + 1) * a
            if prefix > limit + eps:
                errors.append(f"emitted mass {prefix!r} > {limit}")
            picked += len(chosen)
            if any(not 0 <= j < len(x) for j in chosen) or len(set(chosen)) != len(chosen):
                errors.append(f"invalid picks {chosen}")
            if picked > inst.capacity or picked > math.ceil(prefix + eps):
                errors.append(f"{picked} picks > min(K, ceil(mass {prefix!r}))")
            res.op(not errors, f"{key} round {i}: {errors}")

    def check_reference(self, first: PassResult) -> list[str]:
        return []  # the stream's reference is the feasibility checks of every pass

    def record(self) -> dict:
        return input_record([self.inst], seed=self.seed, gen=self.GEN)


WORKLOADS = {w.name: w for w in (Families, RandomVerify, OnlineStream)}
