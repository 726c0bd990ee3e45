#!/usr/bin/env python3
"""Run the headline virtual clinical trial and print the audit table.

Generates the default 350-phantom cohort, splits it with the body_volume /
muscle_pct shortcut boundary, fits the biased linear predictor on the ID-side
training pool, and audits fat_pct error on real, synthetic, and re-biased
synthetic samples.  It runs `vct trial run` (same outputs in --out, run.log
and exit codes) and prints the whole audit table.

    python3 scripts/run_vct.py --out runs/default --threads 4

--config runs a trial config JSON instead.  --quick, which excludes it, shrinks
everything for a smoke run (about 1 s); verdicts at that scale are not the headline
result and attribution is skipped below 30 subjects per sample type.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vctkit.cli import load_trial_config, positive_int, print_report, run_command, trial_run
from vctkit.trial import TrialConfig

QUICK = dict(n_subjects=60, spacing_mm=(6.0, 6.0, 6.0), n_train=6, n_id=10,
             n_ood=10, n_boot=400, z_boot=200)


def run(args) -> int:
    config = (dataclasses.replace(TrialConfig(), **QUICK) if args.quick
              else load_trial_config(args.config))
    t0 = time.perf_counter()
    report, written = trial_run(config, Path(args.out), args.threads)
    print_report(report, config.level)
    print(f"\n{time.perf_counter() - t0:.1f} s; wrote:")
    for path in written:
        print(f"  {path}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/vct_default", help="output directory")
    ap.add_argument("--threads", type=positive_int, default=4)
    config = ap.add_mutually_exclusive_group()
    config.add_argument("--config", help="JSON overriding the default trial config")
    config.add_argument("--quick", action="store_true",
                        help="small fast run instead of the headline configuration")
    return run_command(run, ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
