"""The benchmark's own checks, at smoke scale (8 mm phantoms, small cohorts).

    python3 -m pytest -q perfbench/tests

Each workload runs once untraced and twice traced, as separate processes,
the way the benchmark is driven.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))["per_layer"]
COUNT_UNITS = ("count", "B")


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def parsed(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def runs(request):
    workload = request.param
    untraced = parsed(run_bench(workload, 0))
    spans_file = ROOT / ".perfbench_out" / f"spans-{workload}-seed7.jsonl"
    first = parsed(run_bench(workload, 1))
    span_rows = [json.loads(line) for line in spans_file.read_text().splitlines()]
    second = parsed(run_bench(workload, 1))
    return workload, untraced, first, second, span_rows


def test_layer_table_matches_benchmark_json():
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in LAYERS] == SPEC["per_layer"]


def test_every_metric_is_emitted_with_its_unit(runs):
    _, (_, untraced), (_, traced), _, _ = runs
    assert untraced["correct"] and traced["correct"]
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(v["value"] > 0 for v in untraced["metrics"].values())


def test_traced_digest_equals_untraced(runs):
    _, (untraced, _), (first, _), (second, _), _ = runs
    assert untraced["digest"] is not None
    assert untraced["digest"] == first["digest"] == second["digest"]


def test_counts_repeat_exactly_across_traced_runs(runs):
    _, _, (_, first), (_, second), _ = runs
    for m in LAYERS:
        if m["unit"] in COUNT_UNITS:
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]], m["name"]


def test_bypassed_layers_read_zero(runs):
    workload, _, (_, traced), _, _ = runs
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    zero = {"trial": ["io."], "audit": ["io.", "phantom.generate.calls"],
            "cohort_files": ["forest."]}[workload]
    for name, value in values.items():
        if any(name.startswith(prefix) for prefix in zero):
            assert value == 0, name
    busy = {"trial": ["phantom.generate.calls", "forest.fit.calls", "trial.cohort.busy_s"],
            "audit": ["forest.fit.calls", "stats.bootstrap.calls"],
            "cohort_files": ["io.save.calls", "io.load.calls", "skeleton.height.calls",
                             "metrics.collect.calls"]}[workload]
    for name in busy:
        assert values[name] > 0, name


def test_self_times_are_not_negative(runs):
    _, _, (_, traced), _, span_rows = runs
    for name, metric in traced["metrics"].items():
        if name.endswith("self_s"):
            assert metric["value"] >= 0, name
    children = {}
    for i, row in enumerate(span_rows):
        children.setdefault(row["parent"], []).append(i)
    for i, row in enumerate(span_rows):
        covered = spans.union_length(
            [(span_rows[c]["start"], span_rows[c]["end"]) for c in children.get(i, [])])
        assert row["end"] - row["start"] - covered >= -1e-9, row["name"]


def test_trial_pass_is_covered_by_layer_spans(runs):
    workload, _, (_, traced), _, _ = runs
    if workload == "trial":
        assert traced["metrics"]["trace.coverage"]["value"] >= 0.9


def test_missing_wrapper_target_fails_loudly():
    tracer = spans.Tracer()
    module = types.ModuleType("renamed")
    with pytest.raises(spans.TraceError, match="renamed.generate_phantom"):
        tracer.wrap(module, "generate_phantom", "phantom.generate")


def test_self_time_subtracts_overlapping_children():
    tracer = spans.Tracer()
    tracer.pass_id = 0
    tracer.spans = [["pass", 0.0, 10.0, None, 0, 1],
                    ["trial.cohort", 1.0, 5.0, 0, 0, 1],
                    ["phantom.generate", 1.0, 4.0, 1, 0, 2],
                    ["phantom.generate", 2.0, 5.0, 1, 0, 3]]
    view = spans.PassView(tracer, 0, threads=2)
    assert view.metric("trace.coverage") == pytest.approx(0.4)
    assert view.metric("trial.cohort.self_s") == pytest.approx(0.0)
    assert view.metric("phantom.generate.busy_s") == pytest.approx(6.0)
    assert view.metric("trial.cohort.parallel_eff") == pytest.approx(6.0 / 8.0)


def test_tracer_keeps_every_span_and_count_under_thread_contention():
    tracer = spans.Tracer()
    tracer.pass_id = 0
    root = tracer.begin("pass")

    def work():
        for _ in range(2000):
            tracer.end(tracer.begin("phantom.generate"))
            tracer.count("rng.draws", 3)

    workers = [threading.Thread(target=work) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    tracer.end(root)
    assert not any(w.is_alive() for w in workers)
    view = spans.PassView(tracer, 0, threads=8)
    assert view.metric("phantom.generate.calls") == 8 * 2000
    assert view.metric("rng.draws") == 8 * 2000 * 3
    assert all(s[3] == root for s in tracer.spans[1:])


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("trial", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
