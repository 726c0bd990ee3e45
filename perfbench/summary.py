#!/usr/bin/env python3
"""Run every workload and print each end-to-end metric with its spread.

    python3 perfbench/summary.py                      # seed 7, 3 runs each
    python3 perfbench/summary.py --seeds 7 8 --runs 5 --record

For each workload and seed this makes ``--runs`` untraced runs and one
traced run of ``run.py``, one after another. It prints, per metric, the
unit, median, tail (highest percentile with ten samples beyond it; the
median when there are fewer than 20 samples) and sample count. Timings
are pooled over all timed passes; ``peak_rss_mb`` has one sample per run;
``fail_frac`` is failed over attempted operations. ``trace_overhead_s``
is the traced run's median pass time minus the untraced one. The
quartiles of each metric's per-run values go to ``baseline.json`` with
``--record``.

    python3 perfbench/summary.py --reference

instead records, in ``reference.json``, the output digest of one pass of
each workload on the default seed with one thread, at full and smoke
scale. ``run.py`` counts a pass on that seed whose digest differs from it
as failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import quantile, tail_percentile  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

UNITS = {"setup_s": "s", "wall_s": "s", "gen_s": "s", "measure_s": "s",
         "consistency_s": "s", "peak_rss_mb": "MB", "fail_frac": "ratio",
         "trace_overhead_s": "s"}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def describe(values) -> dict:
    pct = tail_percentile(len(values))
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "tail": quantile(values, pct), "tail_pct": pct, "n": len(values)}


def summarize(workload: str, seed: int, runs: int, seconds: float) -> dict:
    details, results = zip(*(run_once(workload, seed, seconds, 0) for _ in range(runs)))
    traced_detail, traced = run_once(workload, seed, seconds, 1)
    pooled = {"setup_s": [v for d in details for v in d["setup_s"]],
              "wall_s": [v for d in details for v in d["wall_s_values"]],
              "peak_rss_mb": [r["metrics"]["peak_rss_mb"]["value"] for r in results]}
    per_run = {name: [r["metrics"][name]["value"] for r in results]
               for name in ("setup_s", "wall_s", "peak_rss_mb")}
    for stage in details[0]["stages"]:
        pooled[stage] = [v for d in details for v in d["stages_values"][stage]]
        per_run[stage] = [d["stages"][stage]["median"] for d in details]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    overhead = traced_detail["wall_s"]["median"] - statistics.median(pooled["wall_s"])
    digests = {d["digest"] for d in details} | {traced_detail["digest"]}
    return {
        "pooled": {k: describe(v) for k, v in pooled.items()},
        "per_run": {k: describe(v) for k, v in per_run.items()},
        "fail_frac": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "trace_overhead_s": overhead,
        "digests_agree": len(digests) == 1,
        "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        "provenance": details[0]["provenance"],
    }


def record_reference() -> None:
    import tempfile

    from run import OUT, import_program

    import_program()
    table = {}
    for scale in ("full", "smoke"):
        for name, cls in WORKLOADS.items():
            workload = cls(DEFAULT_SEED, scale == "smoke")
            workload.threads = 1
            OUT.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=OUT) as work:
                workload.setup(Path(work))
                digest = workload.run_pass(Path(work)).digest
            table.setdefault(scale, {})[name] = {str(DEFAULT_SEED): digest}
            print(scale, name, digest)
    (HERE / "reference.json").write_text(json.dumps(table, indent=1) + "\n",
                                         encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[DEFAULT_SEED])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())
                        ["run_seconds"])
    parser.add_argument("--record", action="store_true",
                        help="write the results to perfbench/baseline.json")
    parser.add_argument("--reference", action="store_true",
                        help="record the default seed's output digests and exit")
    args = parser.parse_args(argv)
    if args.reference:
        record_reference()
        return 0

    out = {}
    for workload in args.workloads:
        for seed in args.seeds:
            s = summarize(workload, seed, args.runs, args.seconds)
            out.setdefault(workload, {})[str(seed)] = s
            print(f"\n{workload}  seed {seed}  digests agree: {s['digests_agree']}")
            print(f"  {'metric':<17}{'unit':<7}{'median':>11}{'tail':>11}{'pct':>7}{'n':>5}")
            for name, d in s["pooled"].items():
                print(f"  {name:<17}{UNITS[name]:<7}{d['median']:>11.4f}{d['tail']:>11.4f}"
                      f"{d['tail_pct']:>7.1f}{d['n']:>5}")
            ff = s["fail_frac"]
            print(f"  {'fail_frac':<17}{'ratio':<7}{ff['value']:>11.4f}{'':>11}{'':>7}"
                  f"{ff['attempted']:>5}")
            print(f"  {'trace_overhead_s':<17}{'s':<7}{s['trace_overhead_s']:>11.4f}")
    if args.record:
        (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n",
                                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
