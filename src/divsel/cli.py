"""``divsel`` command line: generate instances, solve offline benchmarks, run
policies, Monte-Carlo the rounding, verify the proven inequalities, and emit
competitive-ratio reports.

Exit codes: 0 success / all checks pass, 2 some verification check failed,
3 contract or I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import core, harness
from .benchmark import opt_bounds, solve_fluid
from .errors import DivselError, DomainError, SchemaError
from .generators import gen_random
from .harness import fmt

POLICIES = list(harness.POLICY_NAMES)


_SHARED_FLAGS = {
    "seed": dict(type=int, default=0, help="base RNG seed"),
    "epsilon": dict(type=float, default=core.EPS, help="feasibility tolerance"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "jobs": dict(type=int, default=1, help="worker processes"),
}


def _common(parser: argparse.ArgumentParser, *names: str) -> None:
    """Register the named shared flags on a subcommand."""
    for name in names:
        parser.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def _read_json_text(path: str) -> str:
    """A JSON document's text; a file that is not UTF-8 is a SchemaError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _load_instance(path: str) -> core.Instance:
    return core.parse_instance(_read_json_text(path))


def _cmd_gen(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.family == "random":
        members = [
            gen_random(
                d=args.d,
                n=args.n,
                a=args.a,
                density=args.p,
                min_arrivals=args.min_arrivals,
                c_max=args.cmax,
                seed=args.seed,
            )
        ]
    else:
        members = harness.family_members(args.family, args.d)
    for m, inst in enumerate(members, start=1):
        path = out / f"{args.family}_d{args.d}_m{m}.json"
        path.write_text(core.serialize_instance(inst), encoding="utf-8")
        print(path)
    return 0


def _cmd_offline(args) -> int:
    inst = _load_instance(args.instance)
    lp = solve_fluid(inst)
    under, over = opt_bounds(inst)
    payload = {
        "OPT": float(fmt(lp.value)),
        "under": float(fmt(under)),
        "over": float(fmt(over)),
        "status": lp.status,
        "degenerate_zero": lp.degenerate_zero,
    }
    print(json.dumps(payload, indent=2))
    if args.emit_x and lp.solution is not None:
        # Every digit, so the file holds exactly the capacity-safe x*.
        Path(args.emit_x).write_text(core.serialize_solution(lp.solution, digits=17), encoding="utf-8")
    return 0


def _cmd_run(args) -> int:
    inst = _load_instance(args.instance)
    report, sol = harness.evaluate_policy(
        inst,
        args.policy,
        args.seed,
        instance_id=Path(args.instance).stem,
        topup=args.topup,
        continue_after_cap=args.continue_after_cap,
    )
    mode = harness.scenario_mode(args.policy)
    feasible = core.validate_feasibility(inst, sol, mode, args.epsilon)
    if args.emit_x:
        Path(args.emit_x).write_text(core.serialize_solution(sol), encoding="utf-8")
    payload = {
        "instance": report.instance_id,
        "policy": report.policy,
        "d": report.d,
        "n": report.n,
        "K": report.capacity,
        "a": report.per_round_capacity,
        "utilities": [float(fmt(u)) for u in report.utilities],
        "LU": float(fmt(report.lu)),
        "OPT": float(fmt(report.opt)),
        "ratio": float(fmt(report.ratio)),
        "degenerate": report.degenerate,
        "feasible_mode": mode,
        "feasible": feasible,
        "wall_time_s": round(report.wall_time_s, 6),
    }
    print(json.dumps(payload, indent=2))
    return 0 if feasible else 2


def _cmd_mc(args) -> int:
    inst = _load_instance(args.instance)
    if args.x:
        sol = core.parse_solution(_read_json_text(args.x), inst)
    else:
        lp = solve_fluid(inst)
        sol = lp.solution
    result = harness.monte_carlo(inst, sol, args.trials, args.seed)
    worst = harness.worst_marginal_excess(result["frequencies"], sol.values, args.trials)
    payload = {
        "trials": result["trials"],
        "max_selected": result["max_selected"],
        "max_selected_exact": result["max_selected_exact"],
        "K": inst.capacity,
        "capacity_respected": result["max_selected_exact"] <= inst.capacity,
        "worst_marginal_excess_over_5se": float(fmt(worst)),
        "dimension_utilities": [float(fmt(u)) for u in result["dimension_utilities"]],
    }
    print(json.dumps(payload, indent=2))
    return 0 if payload["capacity_respected"] and worst <= 0 else 2


def _cmd_verify(args) -> int:
    verdicts = []
    if args.family:
        verdicts += harness.verify_family(args.family, args.d, args.policy, args.seed, args.epsilon, args.per_instance)
    for path in args.instance or []:
        inst = _load_instance(path)
        verdicts.extend(
            harness.verify_instance(
                inst, args.policy, args.seed, args.epsilon, instance_id=Path(path).stem
            )
        )
    failed = any(v.status == "fail" for v in verdicts)
    if args.format == "json":
        print(json.dumps([dataclasses.asdict(v) for v in verdicts], indent=2))
        return 2 if failed else 0
    for verdict in verdicts:
        print(verdict.line())
    counts = {
        "pass": sum(v.status == "pass" for v in verdicts),
        "fail": sum(v.status == "fail" for v in verdicts),
        "precondition_unmet": sum(v.status == "precondition_unmet" for v in verdicts),
    }
    print(f"# {counts['pass']} pass, {counts['fail']} fail, {counts['precondition_unmet']} unmet")
    return 2 if failed else 0


def _cmd_report(args) -> int:
    instances = []
    for path in args.instances:
        instances.append((Path(path).stem, _load_instance(path)))
    text = harness.competitive_report(
        instances,
        args.policy,
        args.seed,
        fmt_name=args.format,
        jobs=args.jobs,
        topup=args.topup,
        family_min=args.family_min,
    )
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="divsel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write hard-instance families or random instances")
    p_gen.add_argument("--family", choices=("fhc", "fcs", "random"), required=True)
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--n", type=int, default=8)
    p_gen.add_argument("--a", type=int, default=2)
    p_gen.add_argument("--p", type=float, default=0.3, help="attribute density (random family)")
    p_gen.add_argument("--min-arrivals", type=int, default=1, dest="min_arrivals")
    p_gen.add_argument("--cmax", type=float, default=2.0)
    p_gen.add_argument("--out", required=True)
    _common(p_gen, "seed")
    p_gen.set_defaults(func=_cmd_gen)

    p_off = sub.add_parser("offline", help="solve the offline benchmark")
    p_off.add_argument("--instance", required=True)
    p_off.add_argument("--emit-x", dest="emit_x", default=None)
    p_off.set_defaults(func=_cmd_offline)

    p_run = sub.add_parser("run", help="run one policy on one instance")
    p_run.add_argument("--instance", required=True)
    p_run.add_argument("--policy", choices=POLICIES, required=True)
    p_run.add_argument("--topup", action="store_true")
    p_run.add_argument("--continue-after-cap", action="store_true", dest="continue_after_cap")
    p_run.add_argument("--emit-x", dest="emit_x", default=None)
    _common(p_run, "seed", "epsilon")
    p_run.set_defaults(func=_cmd_run)

    p_mc = sub.add_parser("mc", help="Monte-Carlo the dependent rounding")
    p_mc.add_argument("--instance", required=True)
    p_mc.add_argument("--x", default=None, help="fractional solution JSON (default: offline x*)")
    p_mc.add_argument("--trials", type=int, default=100_000)
    _common(p_mc, "seed", "jobs")
    p_mc.set_defaults(func=_cmd_mc)

    p_ver = sub.add_parser("verify", help="machine-check the proven inequalities")
    p_ver.add_argument("--instance", action="append", default=[])
    p_ver.add_argument("--family", choices=("fhc", "fcs"), default=None)
    p_ver.add_argument("--d", type=int, default=8)
    p_ver.add_argument("--per-instance", action="store_true", dest="per_instance")
    p_ver.add_argument(
        "--policy", action="append", default=None, choices=POLICIES
    )
    _common(p_ver, "seed", "epsilon", "format", "jobs")
    p_ver.set_defaults(func=_cmd_verify)

    p_rep = sub.add_parser("report", help="competitive-ratio CSV/JSON report")
    p_rep.add_argument("--instances", nargs="+", required=True)
    p_rep.add_argument("--policy", action="append", default=None, choices=POLICIES)
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--topup", action="store_true")
    p_rep.add_argument("--family-min", choices=("fhc", "fcs"), default=None, dest="family_min")
    _common(p_rep, "seed", "format", "jobs")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def _check_flags(args) -> None:
    """Shared flag values outside their range are a DomainError (exit 3);
    ``--trials`` is checked by ``harness.monte_carlo``."""
    eps = getattr(args, "epsilon", 0.0)
    if not (math.isfinite(eps) and eps >= 0.0):
        raise DomainError(f"--epsilon must be finite and >= 0, got {eps}")
    if getattr(args, "jobs", 1) < 1:
        raise DomainError(f"--jobs must be >= 1, got {args.jobs}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "policy", None) is None and args.command in ("verify", "report"):
        args.policy = POLICIES
    try:
        _check_flags(args)
        return args.func(args)
    except DivselError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
