"""Per-layer metrics of a traced run, each named with the end-to-end metric
and workload it should move.

Values cover the set-up phase plus one traced pass; a layer a workload never
enters reads 0.  Times are wall seconds inside the spans, so they include the
tracing cost of the spans nested in them (``trace.overhead_s`` sizes it).
"""

from __future__ import annotations

from collections import defaultdict

from tracing import END, NAME, PARENT, SITE, START, TAG, has_ancestor, self_times

# (metric, unit, end-to-end metric it should move, on which workload)
LAYER_METRICS = [
    ("core.parse_instance.s", "s", "setup_s", "random-verify"),
    ("core.Round.attribute_counts.calls", "count", "verify_s; *.round_p50_ms", "families, random-verify; online-stream"),
    ("core.least_utility.s", "s", "verify_s, report_s", "random-verify"),
    ("core.validate_feasibility.s", "s", "verify_s, report_s", "random-verify"),
    ("core.instance_stats.s", "s", "verify_s, report_s", "random-verify"),
    ("benchmark.solve_fluid.s", "s", "verify_s; report_s", "families; random-verify"),
    ("benchmark.solve_fluid.calls", "count", "verify_s; report_s", "families; random-verify"),
    ("benchmark.solve_fluid.build_s", "s", "verify_s; report_s", "families; random-verify"),
    ("benchmark.solve_fluid.matrix_mb", "MB-computed", "peak_rss_mb", "all"),
    ("benchmark.linprog.s", "s", "verify_s; report_s", "families; random-verify"),
    ("benchmark.linprog.calls", "count", "verify_s; report_s", "families; random-verify"),
    ("benchmark.solve_int.s", "s", "verify_s", "random-verify"),
    ("benchmark.solve_int.build_s", "s", "verify_s", "random-verify"),
    ("benchmark.solve_int.matrix_mb", "MB-computed", "peak_rss_mb", "random-verify"),
    ("benchmark.solve_int.alloc_peak_mb", "MB", "peak_rss_mb", "random-verify"),
    ("benchmark.solve_adjustment_lp.s", "s", "verify_s", "random-verify"),
    ("benchmark.solve_adjustment_lp.calls", "count", "verify_s", "random-verify"),
    ("benchmark.int_objective.s", "s", "verify_s", "random-verify"),
    ("fixed_policy.process_round.us_per_round", "us", "fixed.round_p50_ms, fixed.round_p99_ms", "online-stream"),
    ("fixed_policy.agents", "count", "fixed.round_p50_ms, fixed.round_p99_ms", "online-stream"),
    ("fixed_policy.controlled_greedy_round.s", "s", "fixed.round_p50_ms, fixed.round_p99_ms", "online-stream"),
    ("fixed_policy.continuous_minimalist_round.s", "s", "fixed.round_p50_ms, fixed.round_p99_ms", "online-stream"),
    ("fixed_policy.combine_agent_round.s", "s", "fixed.round_p50_ms, fixed.round_p99_ms", "online-stream"),
    ("unknown_policy.process_round.us_per_round", "us", "uc.round_p50_ms, uc.round_p99_ms; verify_s", "online-stream; families"),
    ("unknown_policy.myopic_round.s", "s", "uc.round_p50_ms, uc.round_p99_ms; verify_s", "online-stream; families"),
    ("unknown_policy.forward_round.s", "s", "uc.round_p50_ms, uc.round_p99_ms; verify_s", "online-stream; families"),
    ("unknown_policy.water_fill.s", "s", "uc.round_p50_ms, uc.round_p99_ms; verify_s", "online-stream; families"),
    ("unknown_policy.water_fill.calls", "count", "uc.round_p50_ms, uc.round_p99_ms; verify_s", "online-stream; families"),
    ("unknown_policy.leftover_topup.s", "s", "uc.round_p50_ms, uc.round_p99_ms", "online-stream"),
    ("rounding.process_round.us_per_round", "us", "fixed.round_p50_ms, uc.round_p50_ms", "online-stream"),
    ("rounding.interval_measures.s", "s", "verify_s", "random-verify"),
    ("harness.run_policy.calls_per_instance", "count", "verify_s", "random-verify"),
    ("harness.solve_fluid.calls_per_instance", "count", "report_s", "random-verify"),
    ("harness.grid_capacity_counts.s", "s", "verify_s", "random-verify"),
    ("harness.grid_capacity_counts.calls", "count", "verify_s", "random-verify"),
    ("harness.monte_carlo.s", "s", "mc_s", "random-verify"),
    ("harness.verify_instance.self_s", "s", "verify_s", "random-verify"),
    ("harness.verify_family.self_s", "s", "verify_s", "families"),
    ("harness.competitive_report.self_s", "s", "report_s", "random-verify"),
    ("generators.gen_fhc.s", "s", "verify_s", "families"),
    ("generators.gen_random.s", "s", "setup_s", "random-verify, online-stream"),
    ("generators.type_share", "share", "input property of every workload", "all"),
    ("cli.main.self_s", "s", "verify_s, report_s, mc_s", "families, random-verify"),
    ("trace.spans", "count", "trace.overhead_s", "all"),
    ("trace.overhead_s", "s", "none: traced minus untraced pass wall time", "all"),
]


def compute(spans: list[list], ids: list[int], extra: dict[str, float]) -> dict[str, float]:
    """Every LAYER_METRICS value from the spans ``ids`` (plus ``extra``,
    which holds the values not derived from spans)."""
    total = defaultdict(float)
    calls = defaultdict(int)
    tags = defaultdict(list)
    for i in ids:
        s = spans[i]
        total[s[NAME]] += s[END] - s[START]
        calls[s[NAME]] += 1
        if s[TAG] is not None:
            tags[s[NAME]].append(s[TAG])

    def per_call_us(name: str) -> float:
        return total[name] / calls[name] * 1e6 if calls[name] else 0.0

    def self_sum(name: str, only: str | None = None) -> float:
        mine = [i for i in ids if spans[i][NAME] == name]
        parents = set(mine)
        kids = [i for i in ids if spans[i][PARENT] in parents]
        return sum(self_times(spans, mine + kids, only)[i] for i in mine)

    def count_under(name: str, ancestor: str, site: str | None = None) -> int:
        return sum(1 for i in ids if spans[i][NAME] == name
                   and (site is None or spans[i][SITE] == site)
                   and has_ancestor(spans, i, ancestor))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "fixed_policy.process_round.us_per_round": per_call_us("fixed_policy.FixedPolicy.process_round"),
        "fixed_policy.agents": float(max(tags["fixed_policy.FixedPolicy.process_round"], default=0)),
        "unknown_policy.process_round.us_per_round": per_call_us("unknown_policy.UnknownPolicy.process_round"),
        "rounding.process_round.us_per_round": per_call_us("rounding.process_round"),
        "benchmark.solve_fluid.matrix_mb": max(tags["benchmark.solve_fluid"], default=0.0),
        "benchmark.solve_int.matrix_mb": max(tags["benchmark.solve_int"], default=0.0),
        "benchmark.solve_fluid.build_s": self_sum("benchmark.solve_fluid", only="benchmark.linprog"),
        "benchmark.solve_int.build_s": self_sum("benchmark.solve_int", only="benchmark.linprog"),
        "harness.run_policy.calls_per_instance": ratio(
            count_under("harness.run_policy", "harness.verify_instance"),
            calls["harness.verify_instance"]),
        "harness.solve_fluid.calls_per_instance": ratio(
            count_under("benchmark.solve_fluid", "harness.competitive_report", site="harness"),
            sum(tags["harness.competitive_report"])),
        "cli.main.self_s": self_sum("cli.main"),
        "harness.verify_instance.self_s": self_sum("harness.verify_instance"),
        "harness.verify_family.self_s": self_sum("harness.verify_family"),
        "harness.competitive_report.self_s": self_sum("harness.competitive_report"),
        "trace.spans": float(len(ids)),
        **extra,
    }
    for metric, *_ in LAYER_METRICS:
        if metric in out:
            continue
        name, kind = metric.rsplit(".", 1)
        out[metric] = total[name] if kind == "s" else float(calls[name])
    return {metric: float(out[metric]) for metric, *_ in LAYER_METRICS}
