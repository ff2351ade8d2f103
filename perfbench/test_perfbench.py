"""Self-tests: wrappers restore what they replace, tracing does not change
outputs, self-time arithmetic, and the independent reference computations."""

from __future__ import annotations

import importlib
import inspect
import json

import pytest

import layers
import reference
import tracing
import workloads
from tracing import Tracer, covered, self_times


def namespace_snapshot() -> dict:
    mods = {name: importlib.import_module(name) for name in tracing.SITE_MODULES}
    snap = {}
    for mod_name, mod in mods.items():
        snap[mod_name] = dict(vars(mod))
        for attr, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == mod_name:
                snap[f"{mod_name}.{attr}"] = dict(vars(obj))
    return snap


def test_uninstall_restores_every_attribute():
    from divsel import benchmark, core, harness, unknown_policy

    before = namespace_snapshot()
    tracer = Tracer()
    tracer.install("t")
    try:
        assert harness.solve_fluid is not before["divsel.harness"]["solve_fluid"]
        assert benchmark.linprog is not before["divsel.benchmark"]["linprog"]
        assert unknown_policy.water_fill is not before["divsel.unknown_policy"]["water_fill"]
        assert core.Round.attribute_counts is not before["divsel.core.Round"]["attribute_counts"]
        assert core.is_core is before["divsel.core"]["is_core"]  # excluded helper
    finally:
        tracer.uninstall()
    after = namespace_snapshot()
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        assert after[key].keys() == attrs.keys(), key
        for attr, obj in attrs.items():
            assert after[key][attr] is obj, f"{key}.{attr} not restored"


def test_spans_record_site_parent_and_run():
    from divsel import generators, harness

    inst = generators.gen_random(d=4, n=5, a=2, density=0.5, min_arrivals=1, c_max=2.0, seed=3)
    tracer = Tracer()
    tracer.install("r1")
    try:
        harness.evaluate_policy(inst, "uc-hybrid", seed=0)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    by_name = {s[tracing.NAME]: s for s in spans}
    fluid = by_name["benchmark.solve_fluid"]
    assert fluid[tracing.SITE] == "harness"
    assert spans[fluid[tracing.PARENT]][tracing.NAME] == "harness.evaluate_policy"
    assert all(s[tracing.RUN] == "r1" and s[tracing.END] >= s[tracing.START] for s in spans)
    assert sum(s[tracing.NAME] == "unknown_policy.water_fill" for s in spans) == inst.n


def span(name, start, end, parent=-1, tag=None):
    return [name, "site", start, end, parent, "r", tag]


def test_self_time_on_synthetic_tree():
    spans = [
        span("root", 0.0, 10.0),
        span("benchmark.linprog", 1.0, 4.0, parent=0),
        span("child", 3.0, 6.0, parent=0),  # overlaps the first child
        span("grandchild", 2.0, 3.0, parent=1),
        span("child", 8.0, 12.0, parent=0),  # runs past its parent's end
    ]
    ids = list(range(len(spans)))
    st = self_times(spans, ids)
    assert st[0] == pytest.approx(10.0 - (5.0 + 2.0))  # union [1,6] + [8,10]
    assert st[1] == pytest.approx(3.0 - 1.0)
    assert st[3] == pytest.approx(1.0)
    assert self_times(spans, ids, only="benchmark.linprog")[0] == pytest.approx(7.0)
    assert covered((0.0, 1.0), []) == 0.0
    assert covered((0.0, 1.0), [(0.5, 2.0), (-1.0, 0.25), (0.6, 0.7)]) == pytest.approx(0.75)


def test_layer_metrics_from_synthetic_spans():
    spans = [
        span("harness.verify_instance", 0.0, 10.0),
        span("harness.run_policy", 1.0, 2.0, parent=0),
        span("harness.run_policy", 2.0, 3.0, parent=0),
        span("harness.run_policy", 11.0, 12.0),  # not under verify_instance
        span("benchmark.solve_fluid", 3.0, 7.0, parent=0),
        span("benchmark.linprog", 4.0, 6.5, parent=4),
        span("fixed_policy.FixedPolicy.process_round", 12.0, 12.5, tag=6),
        span("fixed_policy.FixedPolicy.process_round", 12.5, 12.6, tag=6),
    ]
    out = layers.compute(spans, list(range(len(spans))), {
        "generators.type_share": 0.5, "trace.overhead_s": 0.1,
        "benchmark.solve_int.alloc_peak_mb": 0.0})
    assert set(out) == {m for m, *_ in layers.LAYER_METRICS}
    assert out["harness.run_policy.calls_per_instance"] == 2.0
    assert out["benchmark.solve_fluid.build_s"] == pytest.approx(1.5)
    assert out["benchmark.linprog.calls"] == 1.0
    assert out["harness.verify_instance.self_s"] == pytest.approx(10.0 - 1.0 - 1.0 - 4.0)
    assert out["fixed_policy.process_round.us_per_round"] == pytest.approx(0.3e6)
    assert out["fixed_policy.agents"] == 6.0
    assert out["unknown_policy.water_fill.calls"] == 0.0


class SmallFamilies(workloads.Families):
    D = 8


class SmallRandom(workloads.RandomVerify):
    GEN = {"d": 6, "n": 12, "a": 2, "p": 0.4}
    TRIALS = 200


class SmallStream(workloads.OnlineStream):
    GEN = {"d": 8, "n": 60, "a": 2, "density": 0.3, "min_arrivals": 1, "c_max": 2.0}


@pytest.mark.parametrize("cls", [SmallFamilies, SmallRandom, SmallStream])
def test_traced_and_untraced_passes_agree(cls, tmp_path):
    workload = cls(seed=4, workdir=tmp_path)
    workload.setup()
    plain = workload.run_pass()
    tracer = Tracer()
    tracer.install("pass0")
    try:
        traced = workload.run_pass()
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert traced.outputs == plain.outputs
    assert all(rc == 0 for runs in plain.raw.values() if cls is not SmallStream for rc, _ in runs)
    if cls is SmallRandom:
        assert workload.check_reference(plain) == []
    if cls is SmallStream:
        workload.check_pass(traced)
        assert traced.attempted == 2 * workload.inst.n and traced.failures == []


def test_stream_check_flags_infeasible_rows(tmp_path):
    workload = SmallStream(seed=1, workdir=tmp_path)
    workload.setup()
    res = workload.run_pass()
    rows, picks = res.raw["uc"]
    rows[0] = [1.0] * len(rows[0])  # far above a = 2 in round 0
    workload.check_pass(res)
    assert any(f.startswith("uc round 0") for f in res.failures)


def test_reference_opt_and_feasibility_match_the_package():
    from divsel import core, generators, harness

    for seed in range(3):
        inst = generators.gen_random(d=5, n=8, a=2, density=0.4, min_arrivals=1, c_max=3.0, seed=seed)
        doc = json.loads(core.serialize_instance(inst))
        assert workloads.close(reference.fluid_opt(doc), harness.solve_fluid(inst).value)
        sol, _ = harness.run_policy(inst, "uc-hybrid", seed)
        assert workloads.close(reference.least_utility(doc, sol.x), core.least_utility(inst, sol)[0])
        assert reference.infeasibility(doc, sol.x, "per_round_prefix") == []
        bad = [list(row) for row in sol.x]
        bad[0] = [1.0] * len(bad[0])
        assert reference.infeasibility(doc, bad, "per_round_prefix")


def test_verdict_lines_parse_and_compare():
    line = "PASS FCS-OPT lhs=9.41176470588 rhs=2 slack=7.41176470588 (fcs d=64 min over members)"
    (v,) = workloads.parse_verdicts(line + "\n# 1 pass, 0 fail, 0 unmet\n")
    assert (v["status"], v["name"], v["detail"]) == ("PASS", "FCS-OPT", "fcs d=64 min over members")
    assert v["nums"] == {"lhs": 9.41176470588, "rhs": 2.0, "slack": 7.41176470588}
    near = dict(v, nums=dict(v["nums"], lhs=160 / 17))
    assert workloads.compare_verdicts([near], [v], numbers=True) == []
    off = dict(v, nums=dict(v["nums"], lhs=9.4118))
    assert workloads.compare_verdicts([off], [v], numbers=True)
    assert workloads.compare_verdicts([dict(v, status="FAIL")], [v], numbers=False)
