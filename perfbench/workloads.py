"""The benchmark's three workloads and the digests that check their outputs.

Every workload derives its inputs from one seed. The default seed, 7,
reproduces the headline seeds: cohort_seed=7, split_seed=11,
synth_seed=307, trial_seed=0, and ``phantom gen --seed 7``. Layer calls go
through module attributes (``trial.run_trial``, ``cli.main``, ...) so the
traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

DEFAULT_SEED = 7


def seeds(seed: int) -> dict:
    return {"cohort_seed": seed, "split_seed": seed + 4, "synth_seed": seed + 300,
            "trial_seed": seed ^ 7}


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# keys read from report.json; keys added later do not change the digest
ROW_KEYS = ("population", "attr_dist", "sample_type", "n", "mae", "mae_ci",
            "z_vs_real", "z_ci", "p_value", "verdict")


def report_digest(report_json: Path) -> str:
    payload = json.loads(report_json.read_text(encoding="utf-8"))
    rows = [{k: row[k] for k in ROW_KEYS} for row in payload["rows"]]
    attribution = payload.get("attribution")
    importances = attribution["importances"] if attribution else None
    return _digest({"rows": rows, "importances": importances})


MEASURE_COLUMNS = ("subject_id", "body_mass_kg", "fat_pct", "muscle_pct",
                   "bone_density_hu", "body_volume_l", "height_mm")
CONSISTENCY_COLUMNS = ("class", "dice_mean", "dice_std", "volume_corr",
                       "centroid_R", "centroid_A", "centroid_S")
TRUTH_KEYS = ("body_mass_g", "fat_pct", "muscle_pct", "bone_density_hu",
              "body_volume_mm3", "height_breakdown", "landmarks")


def _csv_columns(path: Path, columns) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [[row[c] for c in columns] for row in csv.DictReader(fh)]


def cohort_digest(manifest: Path, measurements: Path, consistency: Path) -> str:
    subjects = json.loads(manifest.read_text(encoding="utf-8"))["subjects"]
    truth = [{k: s["truth"][k] for k in TRUTH_KEYS} for s in subjects]
    return _digest({"truth": truth,
                    "measurements": _csv_columns(measurements, MEASURE_COLUMNS),
                    "consistency": _csv_columns(consistency, CONSISTENCY_COLUMNS)})


def subject_bytes(workload, seed: int) -> int:
    """Bytes of the image, tissue map and structure map of one subject."""
    from vctkit import phantom

    (_sid, _attrs, spec), = phantom.sample_cohort_specs(
        1, workload.attributes, workload.spacing, seed)
    vol, tissue, structure, _truth = phantom.generate_phantom(spec)
    return vol.data.nbytes + tissue.data.nbytes + structure.data.nbytes


@dataclass
class PassResult:
    digest: str | None
    attempted: int          # operations: a pass, or each command and subject
    failed: int
    stages: dict = field(default_factory=dict)  # command name -> seconds


# trial and audit at smoke scale: the smallest cohort that still reaches
# attribution's 30-subject floor on the default seed
SMOKE = {"n_subjects": 120, "n_train": 4, "n_id": 16, "n_ood": 16,
         "spacing_mm": (8.0,) * 3}


class TrialWorkload:
    """``run_full_vct`` plus ``write_trial_outputs``, threads = min(2, nproc)."""

    name = "trial"
    setup_repeats = 9

    def __init__(self, seed: int, smoke: bool):
        from vctkit import trial

        self.threads = min(2, os.cpu_count() or 1)
        # 120 real + 120 synthetic phantoms at 4 mm. n_ood > n_id puts the
        # forests' sample sizes (60 real, 120 synthetic) at the headline's
        # share of the pass, about 20%. The boundary's id side holds about
        # 31% of the cohort and at least 24 of 110 subjects on seeds 0-59 at
        # 8 mm, so n_train + n_id = 20 leaves room on every seed.
        cfg = trial.TrialConfig(n_subjects=120, n_train=6, n_id=14, n_ood=46,
                                **seeds(seed))
        self.config = replace(cfg, **SMOKE) if smoke else cfg
        self.spacing, self.attributes = self.config.spacing_mm, self.config.distribution

    def setup(self, work: Path) -> None:
        from vctkit import trial

        cfg = self.config
        trial.generate_measured_cohort(2 * self.threads, cfg.distribution,
                                       cfg.spacing_mm, cfg.cohort_seed,
                                       threads=self.threads)

    def run_pass(self, work: Path) -> PassResult:
        from vctkit import trial

        report = trial.run_full_vct(self.config, threads=self.threads)
        trial.write_trial_outputs(report, work / "trial", self.config)
        return PassResult(report_digest(work / "trial" / "report.json"), 1, 0)


class AuditWorkload:
    """The audit stage alone, on cohorts generated in set-up at 8 mm."""

    name = "audit"
    setup_repeats = 2
    threads = 1

    def __init__(self, seed: int, smoke: bool):
        from vctkit import trial

        # the headline's 75 + 75 test subjects and 300 synthetic ones, so the
        # forests see the headline's sample sizes; 400 real subjects and
        # n_train=8 keep the id side above n_train + n_id on every seed
        cfg = trial.TrialConfig(n_subjects=400, n_train=8, spacing_mm=(8.0,) * 3,
                                **seeds(seed))
        if smoke:
            cfg = replace(cfg, **SMOKE)
        self.config = cfg
        self.spacing, self.attributes = cfg.spacing_mm, cfg.distribution
        self.cohort = self.synth = None

    def setup(self, work: Path) -> None:
        from vctkit import trial

        cfg = self.config
        cohort = trial.generate_measured_cohort(cfg.n_subjects, cfg.distribution,
                                                cfg.spacing_mm, cfg.cohort_seed)
        real = {s.subject_id: s for s in cohort}
        split = trial.build_biased_split(cohort, cfg.boundary, cfg.n_train, cfg.n_id,
                                         cfg.n_ood, cfg.split_seed, target=cfg.task)
        synth = {}
        for population, ids, seed, prefix in (
                ("ID", split.id_test, cfg.synth_seed, "syn_id"),
                ("OOD", split.ood_test, cfg.synth_seed + 1, "syn_ood")):
            synth[population] = trial.synthesize_matched_cohort(
                [real[sid] for sid in ids], cfg.oversample_factor,
                cfg.distribution, cfg.spacing_mm, seed, id_prefix=prefix)
        self.cohort, self.synth = cohort, synth

    def run_pass(self, work: Path) -> PassResult:
        """The stages after generation, in the order ``run_full_vct`` runs them."""
        from vctkit import trial

        cfg = self.config
        real = {s.subject_id: s for s in self.cohort}
        split = trial.build_biased_split(self.cohort, cfg.boundary, cfg.n_train,
                                         cfg.n_id, cfg.n_ood, cfg.split_seed,
                                         target=cfg.task)
        predictor = trial.make_predictor(cfg.predictor, seed=cfg.trial_seed)
        predictor.fit([real[sid] for sid in split.train], cfg.task)
        options = trial.TrialOptions(n_boot=cfg.n_boot, z_boot=cfg.z_boot,
                                     level=cfg.level, seed=cfg.trial_seed)
        report = trial.run_trial(real, split, predictor, cfg.task, self.synth, options)
        try:
            report.attribution = trial.attribute_errors(report, seed=cfg.trial_seed)
        except ValueError as exc:
            warnings.warn(f"attribution skipped: {exc}")
        trial.write_trial_outputs(report, work / "audit", cfg)
        return PassResult(report_digest(work / "audit" / "report.json"), 1, 0)


class CohortFilesWorkload:
    """``vct phantom gen``, ``measure`` and ``consistency --paired`` in-process."""

    name = "cohort_files"
    setup_repeats = 9
    threads = 1
    n_subjects = 6
    # one stature for both sexes (170 cm, 78 kg, sd 1): with the default
    # priors, height, weight and the sex mix move a 6-subject cohort's voxel
    # count, and with it time and memory, by 13% (quartile spread) between
    # seeds; sex, age, composition and organ jitter still vary
    distribution = {"height_mean": {"M": 170.0, "F": 170.0},
                    "height_sd": {"M": 1.0, "F": 1.0},
                    "weight_mean": {"M": 78.0, "F": 78.0},
                    "weight_sd": {"M": 1.0, "F": 1.0}}

    def __init__(self, seed: int, smoke: bool):
        from vctkit.phantom import AttributeDistribution

        self.seed = seed
        self.spacing = (8.0,) * 3 if smoke else (3.0,) * 3
        self.attributes = AttributeDistribution(**self.distribution)

    def setup(self, work: Path) -> None:
        (work / "phantom.json").write_text(
            json.dumps({"distribution": self.distribution}), encoding="utf-8")
        subject_bytes(self, self.seed)

    def _command(self, argv, stages: dict, key: str) -> int:
        from vctkit import cli

        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        stages[key] = time.perf_counter() - start
        return code

    def run_pass(self, work: Path) -> PassResult:
        root = work / "cohort_files"
        cohort, measured, checked = root / "cohort", root / "measure", root / "consistency"
        manifest = cohort / "manifest.json"
        spacing = ",".join(f"{s:g}" for s in self.spacing)
        stages: dict = {}
        codes = [
            self._command(["phantom", "gen", "--n", str(self.n_subjects),
                           "--seed", str(self.seed), "--spacing", spacing,
                           "--config", str(work / "phantom.json"),
                           "--out", str(cohort), "--threads", "1"], stages, "gen_s"),
            self._command(["measure", "--manifest", str(manifest), "--out",
                           str(measured), "--threads", "1"], stages, "measure_s"),
            self._command(["consistency", "--a", str(manifest), "--b", str(manifest),
                           "--paired", "--out", str(checked), "--threads", "1"],
                          stages, "consistency_s"),
        ]
        failed = sum(code != 0 for code in codes)
        measurements = measured / "measurements.csv"
        rows = len(_csv_columns(measurements, ("subject_id",))) if measurements.exists() else 0
        failed += self.n_subjects - rows
        digest = None
        if failed == 0:
            digest = cohort_digest(manifest, measurements, checked / "consistency.csv")
        shutil.rmtree(root, ignore_errors=True)
        return PassResult(digest, len(codes) + self.n_subjects, failed, stages)


WORKLOADS = {w.name: w for w in (TrialWorkload, AuditWorkload, CohortFilesWorkload)}
