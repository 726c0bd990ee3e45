#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload trial --seed 7 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
Set-up runs ``setup_repeats`` times and reports the median. Timed passes
then repeat until ``--seconds`` have gone by (at least one pass). With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
every layer boundary is wrapped and the metrics are the per-layer ones
listed in ``layers.json``, medians over the passes. The line before the
last holds the details: every pass time, the command stage times, the
output digest and provenance. ``--scale smoke`` shrinks the phantoms for
the benchmark's own tests. Scratch files go to ``.perfbench_out/`` and are
removed at exit, except the traced run's span file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def import_program():
    src = ROOT / "src"
    if not (src / "vctkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no vctkit sources under {src}")
    sys.path.insert(0, str(src))
    import vctkit

    if Path(vctkit.__file__).resolve().parent != (src / "vctkit").resolve():
        raise SystemExit(f"perfbench: imported vctkit from {vctkit.__file__}, not {src}")


def layer_specs() -> list[dict]:
    return json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["per_layer"]


def reference_digest(workload: str, seed: int, scale: str) -> str | None:
    table = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    return table.get(scale, {}).get(workload, {}).get(str(seed))


def tail(values) -> dict:
    """Median and the highest percentile with ten samples beyond it."""
    pct = spans.tail_percentile(len(values))
    return {"median": statistics.median(values), "tail": spans.quantile(values, pct),
            "tail_pct": pct, "n": len(values)}


def _cache_bytes(level: int) -> int | None:
    try:
        value = os.sysconf(f"SC_LEVEL{level}_CACHE_SIZE")
    except (ValueError, OSError):
        value = 0
    if value > 0:
        return value
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if int((index / "level").read_text()) != level:
                continue
            if (index / "type").read_text().strip() == "Instruction":
                continue
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text(encoding="utf-8").strip() if ref_path.is_file() else None
    return ref


def provenance(seed: int, bytes_per_subject: int) -> dict:
    import numpy
    import scipy

    l2, l3 = _cache_bytes(2), _cache_bytes(3)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_bytes": l2,
        "l3_bytes": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_sha256": _source_sha256(),
        "seed": seed,
        "bytes_per_subject": bytes_per_subject,
        "subject_over_l2": bytes_per_subject / l2 if l2 else None,
        "subject_over_l3": bytes_per_subject / l3 if l3 else None,
    }


def run(args, work: Path) -> tuple[dict, dict]:
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale == "smoke")
    bytes_per_subject = workloads.subject_bytes(workload, args.seed)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    setup_times, setup_error = [], None
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        try:
            workload.setup(work)
        except Exception as exc:  # the passes report it as failed
            setup_error = exc
        setup_times.append(time.perf_counter() - start)
        if setup_error is not None:
            break

    reference = reference_digest(args.workload, args.seed, args.scale)
    walls, stages, ok_passes, errors = [], {}, [], []
    attempted = failed = 0
    first_digest = None
    begin = time.perf_counter()
    while True:
        pass_id = len(walls)
        if tracer:
            tracer.pass_id = pass_id
            root = tracer.begin("pass")
        start = time.perf_counter()
        try:
            if setup_error is not None:
                raise setup_error
            result = workload.run_pass(work)
        except Exception:  # a failed pass is counted, not fatal
            errors.append(traceback.format_exc())
            result = workloads.PassResult(None, 1, 1)
        walls.append(time.perf_counter() - start)
        if pass_id == 0:  # later passes only add allocator growth, not pipeline memory
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.end(root)
            tracer.pass_id = spans.SETUP
        if result.failed == 0:
            first_digest = first_digest or result.digest
            if result.digest != first_digest or reference not in (None, result.digest):
                errors.append(f"pass {pass_id}: digest {result.digest} differs from "
                              f"{reference or first_digest}")
                result.failed += 1
        if result.failed == 0:
            ok_passes.append(pass_id)
        attempted += result.attempted
        failed += result.failed
        for key, value in result.stages.items():
            stages.setdefault(key, []).append(value)
        # a failure repeats on every pass of the same seed, so stop at the first
        if result.failed or time.perf_counter() - begin >= args.seconds:
            break

    if tracer:
        tracer.restore()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        units = {m["name"]: m["unit"] for m in layer_specs()}
        names = list(units)
        values = spans.per_layer(tracer, ok_passes or [0], names, workload.threads)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        calls = {name: values[name.removesuffix(".ms_tail") + ".calls"]
                 for name in names if name.endswith(".ms_tail")}
        tails = {name: {"pct": spans.tail_percentile(n), "n": n} for name, n in calls.items()}
    else:
        tails = None
        values = {"setup_s": statistics.median(setup_times),
                  "wall_s": statistics.median(walls),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    detail = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "threads": workload.threads,
        "setup_s": setup_times, "wall_s": tail(walls), "wall_s_values": walls,
        "stages": {k: tail(v) for k, v in stages.items()}, "stages_values": stages,
        "fail_frac": failed / attempted, "errors": errors,
        "digest": first_digest, "reference_digest": reference,
        "ms_tails": tails, "provenance": provenance(args.seed, bytes_per_subject),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    import_program()
    warnings.simplefilter("ignore")
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        detail, result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
