#!/usr/bin/env python3
"""Run the headline virtual clinical trial and print the audit table.

Generates the default 350-phantom cohort, splits it with the body_volume /
muscle_pct shortcut boundary, fits the biased linear predictor on the ID-side
training pool, and audits fat_pct error on real, synthetic, and re-biased
synthetic samples.  It runs `vct trial run` (same outputs in --out, run.log
and exit codes) and prints the whole audit table.

    python3 scripts/run_vct.py --out runs/default --threads 4

--config runs a trial config JSON instead.  --quick, which excludes it, shrinks
everything for a smoke run (~15 s); verdicts at that scale are not the headline
result and attribution is skipped below 30 subjects per sample type.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vctkit.cli import load_trial_config, run_command, trial_run
from vctkit.trial import TrialConfig, report_to_dict

QUICK = dict(n_subjects=60, spacing_mm=(6.0, 6.0, 6.0), n_train=6, n_id=10,
             n_ood=10, n_boot=400, z_boot=200)


def _fmt(v, width, prec=3):
    if v is None:
        return "-".rjust(width)
    return f"{v:.{prec}f}".rjust(width)


def print_report(payload: dict) -> None:
    acc = payload["classifier_accuracy"]
    print(f"task: {payload['task']}   "
          f"train |r(body_volume, {payload['task']})| = "
          f"{abs(payload['achieved_pearson']):.3f}   "
          f"ood classifier acc = {'-' if acc is None else f'{acc:.3f}'}")
    print(f"counts: {payload['counts']}")
    print()
    head = (f"{'pop':<4} {'attrs':<5} {'sample':<17} {'n':>4} {'mae':>7} "
            f"{'95% ci':>15} {'z':>7} {'p':>7}  verdict")
    print(head)
    print("-" * len(head))
    for r in payload["rows"]:
        lo, hi = r["mae_ci"]
        ci = f"[{lo:.2f}, {hi:.2f}]".rjust(15)
        print(f"{r['population']:<4} {r['attr_dist']:<5} {r['sample_type']:<17} "
              f"{r['n']:>4} {r['mae']:>7.3f} {ci} {_fmt(r['z_vs_real'], 7, 2)} "
              f"{_fmt(r['p_value'], 7, 3)}  {r['verdict']}")
    attribution = payload.get("attribution")
    if not attribution:
        print(f"\n(attribution skipped: {payload.get('attribution_skipped')})")
        return
    print("\nerror attribution (forest importances):")
    for sample_type, imps in attribution["importances"].items():
        top = sorted(imps.items(), key=lambda kv: -kv[1])[:3]
        ranked = ", ".join(f"{k}={v:.3f}" for k, v in top)
        print(f"  {sample_type:<10} {ranked}")
    for pair, r in attribution["importance_correlations"].items():
        print(f"  importance corr {pair}: {r:.3f}")


def run(args) -> int:
    config = (dataclasses.replace(TrialConfig(), **QUICK) if args.quick
              else load_trial_config(args.config))
    t0 = time.perf_counter()
    report, written = trial_run(config, Path(args.out), args.threads)
    print_report(report_to_dict(report, config))
    print(f"\n{time.perf_counter() - t0:.1f} s; wrote:")
    for path in written:
        print(f"  {path}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/vct_default", help="output directory")
    ap.add_argument("--threads", type=int, default=4)
    config = ap.add_mutually_exclusive_group()
    config.add_argument("--config", help="JSON overriding the default trial config")
    config.add_argument("--quick", action="store_true",
                        help="small fast run instead of the headline configuration")
    return run_command(run, ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
