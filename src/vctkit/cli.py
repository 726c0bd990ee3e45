"""Command-line surface: phantom generation, measurement, trials, consistency.

Every command is deterministic given its config: data outputs are
byte-identical across reruns and thread counts.  Timestamps go only to a
``run.log`` in the output directory, never into data files: one JSON line
per finished command.

Exit codes: 0 success, 1 partial per-subject failure, 2 config/usage error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

from . import metrics  # per_class_dice looked up at call time, where perfbench wraps it
from .codec import encode, read_record, write_csv, write_json
from .composition import CompositionReport, measure_composition
from .io import load_labelmap, load_volume
from .metrics import cohort_consistency, collect_structure_measurements, write_consistency_csv
from .phantom import (AttributeDistribution, CohortManifest, check_spacing, generate_cohort,
                      map_ordered)
from .skeleton import measure_height
from .trial import MeasuredSubject, TrialConfig, TrialReport, run_full_vct, write_trial_outputs
from .volume import LabelIndex

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2
EXIT_IO = 3

MEASURE_CSV_HEADER = ["subject_id", "body_mass_kg", "fat_pct", "muscle_pct",
                      "bone_density_hu", "body_volume_l", "height_mm"]


def _log_stage(out: Path, stage: str, start: float, **fields) -> None:
    """Append to ``out``/run.log, creating ``out``, one JSON object for a
    finished command: its stage, the UTC time, the wall seconds since
    ``start`` and ``fields``, keys sorted."""
    out.mkdir(parents=True, exist_ok=True)
    record = {"stage": stage, "time": datetime.now(timezone.utc).isoformat(),
              "wall_s": round(time.perf_counter() - start, 6), **fields}
    with open(out / "run.log", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


# --- phantom gen ------------------------------------------------------------


@dataclass(frozen=True)
class PhantomConfig:
    """The ``phantom gen`` config JSON; each flag overrides its key."""

    n: int | None = None
    seed: int | None = None
    spacing_mm: tuple[float, float, float] = (2.0, 2.0, 2.0)
    distribution: AttributeDistribution = field(default_factory=AttributeDistribution)

    def __post_init__(self):
        if self.n is not None and self.n < 1:
            raise ValueError(f"cohort size must be positive, got {self.n}")
        check_spacing(self.spacing_mm)


def cmd_phantom_gen(args) -> int:
    start = time.perf_counter()
    cfg = read_record(PhantomConfig, args.config) if args.config else PhantomConfig()
    flags = {"n": args.n, "seed": args.seed, "spacing_mm": args.spacing}
    cfg = replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    if cfg.n is None or cfg.seed is None:
        raise ValueError("phantom gen needs --n and --seed (flag or config)")
    out = Path(args.out)
    manifest = generate_cohort(cfg.n, cfg.distribution, cfg.spacing_mm, cfg.seed, out,
                               threads=args.threads)
    _log_stage(out, "phantom gen", start, n=cfg.n, seed=cfg.seed, spacing_mm=cfg.spacing_mm,
               threads=args.threads, subjects=len(manifest.subjects))
    print(f"generated {len(manifest.subjects)} phantoms -> {out / 'manifest.json'}")
    return EXIT_OK


# --- measure ----------------------------------------------------------------


def _map_path(base: Path, record, key: str) -> Path:
    """The path of a subject's ``key`` map ("image", "tissue" or "structure")."""
    name = getattr(record, key)
    if name is None:
        raise ValueError(f"subject {record.id!r} has no {key!r} path in the manifest")
    return base / name


def _measure_one(base: Path, record):
    vol = load_volume(_map_path(base, record, "image"))
    tissue = load_labelmap(_map_path(base, record, "tissue"), kind="tissue")
    rep = measure_composition(vol, tissue)
    del vol  # measured: freed before the structure map is loaded beside the tissue map
    if record.structure:
        structures = load_labelmap(base / record.structure, kind="structure")
        rep = replace(rep, height=measure_height(tissue, structures))
    return rep


def cmd_measure(args) -> int:
    start = time.perf_counter()
    manifest_path = Path(args.manifest)
    manifest = read_record(CohortManifest, manifest_path)
    base = manifest_path.parent
    out = Path(args.out)
    reports_dir = out / "measurements"
    reports_dir.mkdir(parents=True, exist_ok=True)

    def build(record):
        try:
            return record.id, _measure_one(base, record), None
        except (ValueError, OSError) as exc:  # a bad file fails its subject, not the run
            return record.id, None, exc

    results = map_ordered(build, manifest.subjects, args.threads)
    errors, rows = {}, []
    for sid, rep, exc in results:
        if exc is not None:
            errors[sid] = str(exc)
            print(f"measure failed for subject {sid}: {exc}", file=sys.stderr)
            continue
        write_json(reports_dir / f"{sid}.json", encode(rep))
        rows.append([sid, rep.body_mass_kg, rep.fat_pct, rep.muscle_pct,
                     rep.bone_density_hu, rep.body_volume_l,
                     None if rep.height is None else rep.height.total_mm])
    # an earlier run's measurement of a failed or dropped subject would read
    # as current under --cohort
    written = {f"{row[0]}.json" for row in rows}
    for path in reports_dir.glob("*.json"):
        if path.name not in written:
            path.unlink()
    write_csv(out / "measurements.csv", MEASURE_CSV_HEADER, rows)
    _log_stage(out, "measure", start, subjects=len(results), failed=len(errors),
               errors=errors)
    print(f"measured {len(rows)}/{len(results)} subjects -> {out / 'measurements.csv'}")
    return EXIT_PARTIAL if errors else EXIT_OK


# --- trial ------------------------------------------------------------------


def _load_measured_cohort(cohort_dir: Path) -> list[MeasuredSubject]:
    manifest = read_record(CohortManifest, cohort_dir / "manifest.json")
    measurements = cohort_dir / "measurements"
    subjects = []
    for record in manifest.subjects:
        path = measurements / f"{record.id}.json"
        if not path.exists():
            raise FileNotFoundError(
                f"no measurement for subject {record.id!r} under {measurements}")
        subjects.append(MeasuredSubject(record.id, record.attributes,
                                        read_record(CompositionReport, path)))
    return subjects


def load_trial_config(path) -> TrialConfig:
    """The trial config JSON at ``path``, or the headline ``TrialConfig()`` for None."""
    return TrialConfig() if path is None else read_record(TrialConfig, path)


def trial_run(config: TrialConfig, out: Path, threads: int, cohort_dir=None):
    """Run a trial (on the measured cohort in ``cohort_dir``, if given) and
    write its outputs and run.log to ``out``, which a failed run leaves
    untouched; returns the report and the written paths."""
    start = time.perf_counter()
    if out.exists() and not out.is_dir():
        raise NotADirectoryError(f"output path {out} is not a directory")
    cohort = None if cohort_dir is None else _load_measured_cohort(Path(cohort_dir))
    n_subjects = config.n_subjects if cohort is None else len(cohort)
    report = run_full_vct(config, threads=threads, cohort=cohort)
    written = write_trial_outputs(report, out, config)
    _log_stage(out, "trial run", start, task=config.task, threads=threads,
               cohort=None if cohort_dir is None else str(cohort_dir),
               subjects=n_subjects, rows=len(report.rows), written=[str(p) for p in written])
    return report, written


def print_report(report: TrialReport, level: float) -> None:
    """The audit table, its CI column at ``level``, then the top attribution
    importances or why there are none."""
    print(f"task: {report.task}   "
          f"train |r(body_volume, {report.task})| = {abs(report.achieved_pearson):.3f}   "
          f"ood classifier acc = {report.classifier_accuracy:.3f}")
    print(f"counts: {report.counts}\n")
    # a column an entry: its header, the format of its header and cells
    # (alignment, width and the gap after it), and its cell of a TrialRow
    columns = [
        ("pop", "{:<4} ", lambda r: r.population),
        ("attrs", "{:<5} ", lambda r: r.attr_dist),
        ("sample", "{:<17} ", lambda r: r.sample_type),
        ("n", "{:>4} ", lambda r: r.n),
        ("mae", "{:>7} ", lambda r: f"{r.mae:.3f}"),
        (f"{100 * level:g}% ci", "{:>15} ", lambda r: "[{:.2f}, {:.2f}]".format(*r.mae_ci)),
        ("z", "{:>7} ", lambda r: "-" if r.z_vs_real is None else f"{r.z_vs_real:.2f}"),
        ("p", "{:>7}  ", lambda r: "-" if r.p_value is None else f"{r.p_value:.3f}"),
        ("verdict", "{}", lambda r: r.verdict),
    ]
    head = "".join(fmt.format(header) for header, fmt, _ in columns)
    print(head)
    print("-" * len(head))
    for r in report.rows:
        print("".join(fmt.format(cell(r)) for _, fmt, cell in columns))
    attribution = report.attribution
    if attribution is None:
        print(f"\n(attribution skipped: {report.attribution_skipped})")
        return
    print("\nerror attribution (forest importances):")
    for sample_type, imps in attribution.importances.items():
        top = sorted(imps.items(), key=lambda kv: -kv[1])[:3]
        ranked = ", ".join(f"{k}={v:.3f}" for k, v in top)
        print(f"  {sample_type:<10} {ranked}")
    for pair, r in attribution.importance_correlations.items():
        print(f"  importance corr {pair}: {r:.3f}")


def cmd_trial_run(args) -> int:
    config = load_trial_config(args.config)
    report, _ = trial_run(config, Path(args.out), args.threads, cohort_dir=args.cohort)
    print_report(report, config.level)
    return EXIT_OK


# --- consistency ------------------------------------------------------------


def _load_indexed(base: Path, record):
    """The index of a subject's structure map, and its tissue map."""
    tissue = load_labelmap(_map_path(base, record, "tissue"), kind="tissue")
    index = LabelIndex(load_labelmap(_map_path(base, record, "structure"), kind="structure"))
    return index, tissue


def cmd_consistency(args) -> int:
    start = time.perf_counter()
    out = Path(args.out)
    path_a, path_b = Path(args.a), Path(args.b)
    manifest_a, manifest_b = (read_record(CohortManifest, p) for p in (path_a, path_b))
    n_a, n_b = len(manifest_a.subjects), len(manifest_b.subjects)
    by_id_a = {s.id: s for s in manifest_a.subjects}
    by_id_b = {s.id: s for s in manifest_b.subjects}
    if args.mode == "paired" and set(by_id_a) != set(by_id_b):
        raise ValueError("paired mode requires identical subject ids "
                         f"(A has {len(by_id_a)}, B has {len(by_id_b)}, "
                         f"overlap {len(set(by_id_a) & set(by_id_b))})")

    if args.mode == "paired":
        # one task per subject loads its four maps once, indexes each
        # structure map once, and keeps only the measurements and the Dice
        # dict, so no pair of maps outlives its task
        def measure_pair(record):
            sid = record.id
            index_a, tissue_a = _load_indexed(path_a.parent, record)
            index_b, tissue_b = _load_indexed(path_b.parent, by_id_b[sid])
            if index_a.grid != index_b.grid:
                raise ValueError(f"subject {sid!r}: grids differ between cohorts")
            return (collect_structure_measurements(index_a, tissue_a),
                    collect_structure_measurements(index_b, tissue_b),
                    metrics.per_class_dice(index_a, index_b))

        cohort_a, cohort_b, dice = zip(*map_ordered(measure_pair, manifest_a.subjects,
                                                    args.threads))
    else:
        tasks = ([(path_a.parent, r) for r in manifest_a.subjects]
                 + [(path_b.parent, r) for r in manifest_b.subjects])
        measured = map_ordered(lambda task: collect_structure_measurements(
            *_load_indexed(*task)), tasks, args.threads)
        cohort_a, cohort_b, dice = measured[:n_a], measured[n_a:], []

    rows = cohort_consistency(cohort_a, cohort_b, dice)
    # each indexed subject loads a tissue and a structure map and indexes the
    # latter; paired mode indexes A's subjects in both cohorts
    indexes_built = 2 * n_a if args.mode == "paired" else n_a + n_b
    out.mkdir(parents=True, exist_ok=True)
    write_consistency_csv(out / "consistency.csv", rows)
    _log_stage(out, "consistency", start, mode=args.mode, subjects_a=n_a, subjects_b=n_b,
               maps_loaded=2 * indexes_built, indexes_built=indexes_built)
    print(f"consistency table ({args.mode}) -> {out / 'consistency.csv'}")
    return EXIT_OK


# --- entry ------------------------------------------------------------------


def positive_int(text: str) -> int:
    """An argparse type for counts such as ``--threads``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _spacing(text: str):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("spacing must be X,Y,Z in mm")
    return tuple(parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vct",
                                     description="virtual clinical trials on CT phantoms")
    sub = parser.add_subparsers(dest="command", required=True)

    phantom = sub.add_parser("phantom", help="phantom cohort commands")
    psub = phantom.add_subparsers(dest="subcommand", required=True)
    gen = psub.add_parser("gen", help="generate a phantom cohort")
    gen.add_argument("--n", type=int, default=None)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)
    gen.add_argument("--config", default=None)
    gen.add_argument("--spacing", type=_spacing, default=None, metavar="X,Y,Z")
    gen.add_argument("--threads", type=positive_int, default=1)
    gen.set_defaults(func=cmd_phantom_gen)

    measure = sub.add_parser("measure", help="measure body composition for a cohort")
    measure.add_argument("--manifest", required=True)
    measure.add_argument("--out", required=True)
    measure.add_argument("--threads", type=positive_int, default=1)
    measure.set_defaults(func=cmd_measure)

    trial = sub.add_parser("trial", help="trial commands")
    tsub = trial.add_subparsers(dest="subcommand", required=True)
    run = tsub.add_parser("run", help="run a full virtual clinical trial")
    run.add_argument("--config", help="trial config JSON (default: the headline trial)")
    run.add_argument("--out", required=True)
    run.add_argument("--cohort", default=None,
                     help="directory with manifest.json and measurements/ "
                          "(skips in-memory generation)")
    run.add_argument("--threads", type=positive_int, default=1)
    run.set_defaults(func=cmd_trial_run)

    consistency = sub.add_parser("consistency",
                                 help="anatomical consistency between two cohorts")
    consistency.add_argument("--a", required=True, metavar="MANIFEST_A")
    consistency.add_argument("--b", required=True, metavar="MANIFEST_B")
    consistency.add_argument("--out", required=True)
    mode = consistency.add_mutually_exclusive_group(required=True)
    mode.add_argument("--paired", dest="mode", action="store_const", const="paired")
    mode.add_argument("--cohort", dest="mode", action="store_const", const="cohort")
    consistency.add_argument("--threads", type=positive_int, default=1)
    consistency.set_defaults(func=cmd_consistency)
    return parser


def run_command(func, args) -> int:
    """``func(args)``'s exit code, or 2 if it raises on a bad config or input, 3 on I/O."""
    try:
        return func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run_command(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
