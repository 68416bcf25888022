"""Tests of the benchmark's own machinery: generator, tracing and oracles.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import math
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _take(workload, seed, n):
    gen = workloads.rounds(workload, seed)
    return [next(gen) for _ in range(n)]


def test_same_seed_same_tasks_and_fixed_class_mix():
    for name in workloads.WORKLOADS:
        a, b = _take(name, 7, 3), _take(name, 7, 3)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        c = _take(name, 8, 3)
        assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)
        mixes = {tuple(sorted(Counter(t["cls"] for t in r).items())) for r in a + c}
        assert len(mixes) == 1, f"{name}: class counts change between rounds or seeds"


def test_strength_points_are_a_fixed_multiset_per_round():
    for tasks in _take("strength-scan", 3, 4):
        serial = [t for t in tasks if t["cls"].startswith("serial/")]
        points = sorted(int(t["argv"][t["argv"].index("--points") + 1]) for t in serial)
        assert points == sorted(workloads.STRENGTH_POINTS)


def test_windows_hold_exactly_the_designed_roots():
    for tasks in _take("critical-search", 5, 6):
        for t in tasks:
            inside = [q for q in workloads.QC[t["family"]] if t["q_min"] < q < t["q_max"]]
            assert len(inside) == t["roots"]


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, "t", attrs or {}]


def test_self_time_subtracts_child_coverage():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 3.0, 0),
        _span("c", 4.0, 8.0, 0),
        _span("d", 5.0, 6.0, 2),
        _span("e", 2.0, 4.0, -1),
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 2.0]


def test_layer_metrics_compute_steps_and_unit_costs():
    # one integrate_uv call: two sides of n = 100 steps, then one halving retry
    ev = "potentials.evaluate"
    spans = [_span("scatter.integrate_uv", 0.0, 1.0, -1)]
    t = 0.0
    for n in (100, 100, 200, 200):
        for samples in (n + 1, n):
            spans.append(_span(ev, t, t + 0.01, 0, {"samples": samples}))
            t += 0.01
    m = tracing.layer_metrics(spans)
    assert m["scatter.integrate_uv.steps"] == 600
    assert m["scatter.integrate_uv.halvings"] == 2
    assert m["potentials.evaluate.samples"] == 1204
    assert math.isclose(m["scatter.integrate_uv.self_s"], 0.92)
    assert math.isclose(m["scatter.integrate_uv.ns_per_step"], 0.92e9 / 600)


def test_layer_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = set(tracing.layer_metrics([])) | {
        "cli.interpreter_s", "cli.import_s", "cli.import.scipy_optimize_s", "cli.import.numpy_s",
        "trace.overhead_frac",
    }
    assert names == {m["name"] for m in spec["per_layer"]}
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in spec["end_to_end"]}


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 113))
    value, pct, beyond = run.tail_percentile(values)
    assert (pct, beyond) == (91, 10)
    assert value == 102
    assert run.tail_percentile(list(range(30)))[1:] == (66, 10)


def test_oracle_rejects_perturbed_R():
    desc = {"kind": "SquareWell", "params": {"V0": 4.0, "a": 1.0}}
    rows = [[E, oracles.reference_R(desc, E)] for E in (1e-4, 1e-2, 0.5)]
    assert oracles.check_rows_R(desc, rows, 3) is None
    rows[1][1] += 2e-6
    assert "oracle" in oracles.check_rows_R(desc, rows, 3)


def test_sturm_certificate_rejects_a_missing_root():
    from halfbound import critical, potentials

    task = {"family": "SquareWell", "kind": "SquareWell", "q_min": 1.3, "q_max": 3.4, "roots": 2}
    roots = critical.critical_spectrum(potentials.make_family("SquareWell", a=1.0), 3.4, 1.3)
    assert oracles.check_spectrum(task, roots) is None
    assert "Sturm" in oracles.check_spectrum(task, roots[:1])
