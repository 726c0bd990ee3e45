"""Virtual-clinical-trial orchestration.

A trial takes a measured phantom cohort, splits it along a linear decision
boundary in (body volume, muscle %) space into a biased train/ID
population and an OOD population, fits a (deliberately shortcut-prone)
predictor on the train split, and then audits the predictor:

* per-population MAE with bootstrap CIs for real, synthetic,
  re-biased-synthetic, and importance-weighted sample types;
* Z-scores and p-values of each sample type against the real errors of the
  same population;
* a bias-attribution block: per-attribute error correlations with a
  Fisher-z cross-type p-value, and random-forest error regressions with
  normalized feature importances compared across sample types.

Each audited subject is carried as one ``(MeasuredSubject, abs_error)``
pair, from the audit rows through to the attribution's feature matrix.

Synthetic cohorts are regenerated from binned subject attributes with fresh
seeds, so they carry only the attribute-explained part of body composition
-- which is exactly what makes re-biasing by culling necessary, mirroring
the audit this package exists to reproduce.
"""

from __future__ import annotations

import csv
import math
import threading
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .codec import encode, write_csv, write_json, write_records
from .composition import CompositionReport, measure_composition
from .forest import Forest, ForestParams, REGRESSOR_PARAMS, fit_forest, predict, predict_proba
from .phantom import (
    BIN_WIDTH,
    AttributeDistribution,
    Attributes,
    BinnedAttributes,
    bin_attributes,
    check_spacing,
    generate_matched_spec,
    generate_phantom,
    map_ordered,
    sample_cohort_specs,
)
from .rng import Stream, fnv1a64, subject_seed
from .stats import (
    bootstrap_ci,
    importance_weights,
    pearson,
    percentile_ci,
    weighted_mae,
    z_score,
    z_test_p,
)

TASKS = ("fat_pct", "muscle_pct")
SAMPLE_TYPES = ("real", "synthetic", "synthetic_rebias")
FEATURE_NAMES = ("sex", "age", "height", "weight", "fat_pct", "bone_density",
                 "muscle_pct", "body_volume")

ATTRIBUTION_MIN_SUBJECTS = 30

VERDICT_ACCEPTABLE_BELOW = 2.0
VERDICT_DEGRADED_ABOVE = 3.0


def verdict_for(mae_value: float) -> str:
    """acceptable below 2, degraded above 3, indeterminate between."""
    if mae_value < VERDICT_ACCEPTABLE_BELOW:
        return "acceptable"
    if mae_value > VERDICT_DEGRADED_ABOVE:
        return "degraded"
    return "indeterminate"


@dataclass(frozen=True)
class BiasBoundary:
    """The line muscle % = slope * body volume (l) + intercept; a subject
    above it is on the ID side, one on or below it on the OOD side."""

    slope: float = -0.2
    intercept: float = 58.3

    def __post_init__(self):
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise ValueError("boundary slope/intercept must be finite")

    def side(self, report: CompositionReport) -> str:
        above = report.muscle_pct > self.slope * report.body_volume_l + self.intercept
        return "id" if above else "ood"


@dataclass
class MeasuredSubject:
    """One subject: recorded attributes plus its measured composition."""

    subject_id: str
    attributes: Attributes
    report: CompositionReport


@dataclass(frozen=True)
class BiasedSplit:
    train: tuple[str, ...]
    id_test: tuple[str, ...]
    ood_test: tuple[str, ...]
    achieved_pearson: float
    boundary: BiasBoundary


def build_biased_split(subjects: list[MeasuredSubject], boundary: BiasBoundary,
                       n_train: int, n_id: int, n_ood: int, seed: int,
                       target: str = "fat_pct") -> BiasedSplit:
    """Seeded draw of train/ID from the boundary's ID side, OOD from the other.

    Also reports the achieved Pearson correlation between body volume and
    the task target over the train split -- the number that
    tells you how exploitable the shortcut is.
    """
    if target not in TASKS:
        raise ValueError(f"target must be one of {TASKS}")
    id_pool = [s.subject_id for s in subjects if boundary.side(s.report) == "id"]
    ood_pool = [s.subject_id for s in subjects if boundary.side(s.report) == "ood"]
    for side, pool, knob, need in (("id", id_pool, "n_train + n_id", n_train + n_id),
                                   ("ood", ood_pool, "n_ood", n_ood)):
        if len(pool) < need:
            raise ValueError(
                f"insufficient subjects on the {side} side: need {knob} = {need}, "
                f"have {len(pool)} of n_subjects = {len(subjects)}; boundary "
                f"slope={boundary.slope!r}, intercept={boundary.intercept!r}")

    stream = Stream(seed)
    id_order = [id_pool[i] for i in stream.permutation(len(id_pool))]
    ood_order = [ood_pool[i] for i in stream.permutation(len(ood_pool))]
    train = tuple(id_order[:n_train])
    id_test = tuple(id_order[n_train:n_train + n_id])
    ood_test = tuple(ood_order[:n_ood])

    by_id = {s.subject_id: s for s in subjects}
    xs = [by_id[i].report.body_volume_l for i in train]
    ys = [getattr(by_id[i].report, target) for i in train]
    r = pearson(xs, ys)
    return BiasedSplit(train=train, id_test=id_test, ood_test=ood_test,
                       achieved_pearson=r, boundary=boundary)


def rebias(subjects: list[MeasuredSubject], boundary: BiasBoundary,
           side: str) -> list[MeasuredSubject]:
    """Cull to the subjects on the requested boundary side (idempotent)."""
    if side not in ("id", "ood"):
        raise ValueError("side must be 'id' or 'ood'")
    kept = [s for s in subjects if boundary.side(s.report) == side]
    if not kept:
        warnings.warn(f"rebias kept no subjects on side {side!r}")
    return kept


# --- predictors -----------------------------------------------------------

PREDICTOR_KINDS = ("shortcut_linear", "oracle_noise", "external")


@dataclass(frozen=True)
class PredictorSpec:
    """Which predictor a trial audits.

    ``sigma`` applies to ``oracle_noise``, whose noise the trial seed draws;
    ``path`` (a subject_id,prediction CSV) to ``external``.
    """

    kind: str = "shortcut_linear"
    sigma: float = 0.5
    path: str | None = None

    def __post_init__(self):
        if self.kind not in PREDICTOR_KINDS:
            raise ValueError(f"unknown predictor kind {self.kind!r}: "
                             f"predictor.kind must be one of {PREDICTOR_KINDS}")
        if self.sigma < 0:
            raise ValueError(f"predictor.sigma must be nonnegative, got {self.sigma}")
        if self.kind == "external" and self.path is None:
            raise ValueError("predictor.path is required for kind 'external'")


class ShortcutLinear:
    """Least-squares line from body volume to the target.

    This is the deliberate shortcut: on a biased train split, body volume
    alone predicts the target well, and the fit inherits the bias.
    """

    def __init__(self):
        self.slope: float | None = None
        self.intercept: float | None = None

    def fit(self, subjects: list[MeasuredSubject], target: str) -> None:
        x = np.array([s.report.body_volume_l for s in subjects], dtype=np.float64)
        y = np.array([getattr(s.report, target) for s in subjects], dtype=np.float64)
        sx = x - x.mean()
        denom = float(sx @ sx)
        if denom == 0.0:
            raise ValueError("cannot fit shortcut on constant body volume")
        self.slope = float(sx @ (y - y.mean())) / denom
        self.intercept = float(y.mean() - self.slope * x.mean())

    def predict(self, subject: MeasuredSubject, target: str) -> float:
        if self.slope is None:
            raise ValueError("predictor not fitted")
        return self.slope * subject.report.body_volume_l + self.intercept


class OracleNoise:
    """Ground truth plus seeded Gaussian noise; per-subject deterministic."""

    def __init__(self, sigma: float, seed: int):
        self.sigma = sigma
        self.seed = seed

    def fit(self, subjects, target) -> None:
        pass

    def predict(self, subject: MeasuredSubject, target: str) -> float:
        y = getattr(subject.report, target)
        stream = Stream(self.seed ^ fnv1a64(subject.subject_id.encode("utf-8")))
        return y + stream.normal1(0.0, self.sigma)


class ExternalPredictions:
    """Predictions ingested from a CSV with header subject_id,prediction."""

    def __init__(self, predictions: dict[str, float]):
        self.predictions = dict(predictions)

    @staticmethod
    def from_csv(path) -> "ExternalPredictions":
        """Read the CSV; a bad row raises ValueError naming the file, the line
        and the subject.  Each subject appears once, with one finite number."""
        preds = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != ["subject_id", "prediction"]:
                raise ValueError(f"{path}: must have header subject_id,prediction")
            for row in reader:
                if not row:
                    continue
                where = f"{path}: line {reader.line_num}: subject {row[0]!r}"
                if len(row) != 2:
                    raise ValueError(f"{where} has {len(row)} cells, expected 2")
                try:
                    value = float(row[1])
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ValueError(f"{where}: prediction must be a finite number, "
                                     f"got {row[1]!r}")
                if row[0] in preds:
                    raise ValueError(f"{where} is listed twice")
                preds[row[0]] = value
        return ExternalPredictions(preds)

    def fit(self, subjects, target) -> None:
        pass

    def predict(self, subject: MeasuredSubject, target: str) -> float:
        if subject.subject_id not in self.predictions:
            raise ValueError(f"no external prediction for {subject.subject_id!r}")
        return self.predictions[subject.subject_id]


def make_predictor(spec: PredictorSpec, seed: int = 0):
    """The predictor ``spec`` names; ``seed`` seeds oracle noise."""
    if spec.kind == "oracle_noise":
        return OracleNoise(sigma=spec.sigma, seed=seed)
    if spec.kind == "external":
        return ExternalPredictions.from_csv(spec.path)
    return ShortcutLinear()


# --- attribute encoding and the OOD classifier ----------------------------

def encode_binned(binned: BinnedAttributes) -> list[float]:
    """Sex one-hot, bin midpoints as ordinals (0 if missing), missing indicators."""
    row = [1.0 if binned.sex == "M" else 0.0, 1.0 if binned.sex == "F" else 0.0]
    for lo in (binned.age, binned.height, binned.weight):
        row += [0.0, 1.0] if lo is None else [lo + BIN_WIDTH / 2, 0.0]
    return row


def encode_attributes(attrs_list) -> np.ndarray:
    return np.array([encode_binned(bin_attributes(a)) for a in attrs_list],
                    dtype=np.float64)


def _holdout(stream: Stream, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded 80/20 split of ``range(n)``: (test, train), at least one test row."""
    order = stream.permutation(n)
    n_test = max(1, int(round(0.2 * n)))
    return order[:n_test], order[n_test:]


def fit_ood_classifier(id_attrs, ood_attrs, seed: int = 0) -> tuple[Forest, float]:
    """Forest over {ID=0, OOD=1} from encoded attributes.

    Returns the classifier (refit on all rows) and its stratified 80/20
    holdout accuracy.
    """
    if len(id_attrs) == 0 or len(ood_attrs) == 0:
        raise ValueError("both attribute sets must be nonempty")
    Xi = encode_attributes(id_attrs)
    Xo = encode_attributes(ood_attrs)
    X = np.vstack([Xi, Xo])
    y = np.concatenate([np.zeros(len(Xi)), np.ones(len(Xo))])

    stream = Stream(seed)
    id_test, id_train = _holdout(stream, len(Xi))
    ood_test, ood_train = _holdout(stream, len(Xo))
    train_rows = np.sort(np.concatenate([id_train, len(Xi) + ood_train]))
    test_rows = np.sort(np.concatenate([id_test, len(Xi) + ood_test]))

    params = ForestParams(seed=seed)
    held = fit_forest(X[train_rows], y[train_rows], "classifier", params)
    accuracy = float((predict(held, X[test_rows]) == y[test_rows]).mean())
    full = fit_forest(X, y, "classifier", params)
    return full, accuracy


def weighted_degradation_estimate(id_errors, id_attrs, classifier: Forest,
                                  priors: tuple[float, float],
                                  n_boot: int = 10000, level: float = 0.95,
                                  seed: int = 0) -> tuple[float, tuple[float, float]]:
    """Importance-weighted MAE of ID errors and its pair-resampling CI."""
    errors = np.asarray(id_errors, dtype=np.float64)
    p_ood = predict_proba(classifier, encode_attributes(id_attrs))
    w = importance_weights(p_ood, priors[0], priors[1])
    return weighted_mae(errors, w), percentile_ci(
        lambda i: (errors[i] * w[i]).sum(axis=1) / w[i].sum(axis=1),
        (len(errors),), n_boot, level, seed)


# --- trial rows -----------------------------------------------------------


@dataclass
class TrialRow:
    population: str             # ID | OOD
    attr_dist: str              # ID | OOD
    sample_type: str
    n: int
    mae: float
    mae_ci: tuple[float, float]
    z_vs_real: float | None
    z_ci: tuple[float, float] | None
    p_value: float | None
    verdict: str


@dataclass
class AttributionBlock:
    correlations: dict          # feature -> {real, synthetic, p_value}
    importances: dict           # sample_type -> {feature: importance}
    importance_correlations: dict   # "a_vs_b" -> r
    regression_mae: dict        # sample_type -> {mae, std}
    warnings: list


@dataclass
class TrialReport:
    task: str
    boundary: BiasBoundary
    achieved_pearson: float
    counts: dict
    classifier_accuracy: float
    rows: list[TrialRow]
    samples: dict               # sample_type -> [(MeasuredSubject, abs_error)]
    attribution: AttributionBlock | None = None
    attribution_skipped: str | None = None  # why attribution is None


def _row_seed(seed: int, population: str, sample_type: str) -> int:
    return seed ^ fnv1a64(f"{population}:{sample_type}".encode("utf-8"))


def _z_ci(x, y, n_boot: int, level: float, seed: int) -> tuple[float, float]:
    """Percentile CI of the z statistic, resampling both arrays independently."""
    def z(ix, iy):
        xs, ys = x[ix], y[iy]
        denom = np.sqrt(xs.var(axis=1, ddof=1) / len(x) + ys.var(axis=1, ddof=1) / len(y))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(denom > 0, (xs.mean(axis=1) - ys.mean(axis=1))
                            / np.where(denom > 0, denom, 1.0), 0.0)

    return percentile_ci(z, (len(x), len(y)), n_boot, level, seed)


@dataclass(frozen=True)
class TrialOptions:
    n_boot: int = 10000
    z_boot: int = 2000
    level: float = 0.95
    seed: int = 0


def run_trial(real: dict, split: BiasedSplit, predictor, target: str,
              synth: dict, options: TrialOptions = TrialOptions()) -> TrialReport:
    """Assemble the per-population audit table.

    ``real`` maps subject_id -> MeasuredSubject for the whole cohort;
    ``synth`` maps population ("ID"/"OOD") -> list[MeasuredSubject] of
    regenerated subjects.  The predictor must already be fitted on the train
    split.  Rows come in report order, per population: real, the
    importance-weighted estimate of OOD MAE from ID errors (OOD only),
    synthetic, re-biased synthetic.  Each row draws from its own seed.
    """
    if target not in TASKS:
        raise ValueError(f"target must be one of {TASKS}")
    for sid in (*split.train, *split.id_test, *split.ood_test):
        if sid not in real:
            raise ValueError(f"missing measured report for subject {sid!r}")

    def with_errors(subjects) -> list:
        return [(s, abs(getattr(s.report, target) - predictor.predict(s, target)))
                for s in subjects]

    def errors(pairs) -> np.ndarray:
        return np.array([e for _, e in pairs], dtype=np.float64)

    tested = {"ID": with_errors(real[sid] for sid in split.id_test),
              "OOD": with_errors(real[sid] for sid in split.ood_test)}
    real_errors = {population: errors(pairs) for population, pairs in tested.items()}
    samples = {"real": tested["ID"] + tested["OOD"], "synthetic": [], "synthetic_rebias": []}

    id_attrs = [s.attributes for s, _ in tested["ID"]]
    clf, classifier_accuracy = fit_ood_classifier(
        id_attrs, [s.attributes for s, _ in tested["OOD"]], seed=options.seed)
    n_id, n_ood = len(tested["ID"]), len(tested["OOD"])
    priors = (n_id / (n_id + n_ood), n_ood / (n_id + n_ood))

    def row(population, sample_type, errs) -> TrialRow:
        seed = _row_seed(options.seed, population, sample_type)
        z = z_ci = p = None
        if sample_type == "real_weighted":
            mae, ci = weighted_degradation_estimate(
                errs, id_attrs, clf, priors, n_boot=options.n_boot, level=options.level,
                seed=seed)
        else:
            ci = bootstrap_ci(errs, n_boot=options.n_boot, level=options.level, seed=seed)
            mae = float(errs.mean())
            if sample_type == "real":
                z, p = 0.0, 1.0
            else:
                ref = real_errors[population]
                z = z_score(errs, ref)
                p = z_test_p(z)
                z_ci = _z_ci(errs, ref, options.z_boot, options.level, seed ^ 0x5A)
        return TrialRow(population=population,
                        attr_dist="ID" if sample_type == "real_weighted" else population,
                        sample_type=sample_type, n=len(errs), mae=mae, mae_ci=ci,
                        z_vs_real=z, z_ci=z_ci, p_value=p, verdict=verdict_for(mae))

    rows: list[TrialRow] = []
    for population in ("ID", "OOD"):
        rows.append(row(population, "real", real_errors[population]))
        if population == "OOD":
            rows.append(row(population, "real_weighted", real_errors["ID"]))
        cohort = synth.get(population, [])
        if not cohort:
            continue
        pairs = with_errors(cohort)
        samples["synthetic"].extend(pairs)
        rows.append(row(population, "synthetic", errors(pairs)))
        kept = with_errors(rebias(cohort, split.boundary, population.lower()))
        if kept:
            samples["synthetic_rebias"].extend(kept)
            rows.append(row(population, "synthetic_rebias", errors(kept)))

    counts = {"train": len(split.train), "id_test": len(split.id_test),
              "ood_test": len(split.ood_test),
              "synthetic": sum(len(v) for v in synth.values())}
    return TrialReport(task=target, boundary=split.boundary,
                       achieved_pearson=split.achieved_pearson, counts=counts,
                       classifier_accuracy=classifier_accuracy, rows=rows,
                       samples=samples)


# --- attribution ----------------------------------------------------------


def feature_matrix(subjects: list[MeasuredSubject]) -> np.ndarray:
    """(n, 8) matrix in FEATURE_NAMES order; sex M is 0 and F is 1, and a
    missing record (None, or another sex) becomes NaN."""
    sex_code = {"M": 0.0, "F": 1.0}.get
    rows = []
    for s in subjects:
        a, r = s.attributes, s.report
        rows.append([sex_code(a.sex), a.age_years, a.height_cm, a.weight_kg,
                     r.fat_pct, r.bone_density_hu, r.muscle_pct, r.body_volume_l])
    return np.array(rows, dtype=np.float64)


def _fisher_z_p(r1: float, n1: int, r2: float, n2: int) -> float | None:
    """Two-sided Fisher-z p for equal correlations; None below 4 subjects a sample."""
    r1 = min(max(r1, -0.999999), 0.999999)
    r2 = min(max(r2, -0.999999), 0.999999)
    if n1 <= 3 or n2 <= 3:
        return None
    z = (math.atanh(r1) - math.atanh(r2)) / math.sqrt(1.0 / (n1 - 3) + 1.0 / (n2 - 3))
    return z_test_p(z)


def _prepare_features(pairs: list):
    subjects, errors = zip(*pairs)
    X = feature_matrix(subjects)
    y = np.array(errors, dtype=np.float64)
    # impute column means for missing records so the forest sees full rows
    col_mean = np.nanmean(np.where(np.isfinite(X), X, np.nan), axis=0)
    col_mean = np.where(np.isfinite(col_mean), col_mean, 0.0)
    X = np.where(np.isfinite(X), X, col_mean)
    return X, y


def attribute_errors(report: TrialReport, seed: int = 0) -> AttributionBlock:
    """Bias attribution over the 8 attributes for each sample type of ``report``.

    Per attribute: Pearson correlation with |error| on real and synthetic
    subjects plus a Fisher-z p-value for their difference.  Per sample type:
    a random-forest regression of |error| on the attributes (holdout MAE,
    then a refit on all rows for normalized importances), and pairwise
    correlations between the importance vectors.
    """
    present = {t: report.samples[t] for t in SAMPLE_TYPES if report.samples.get(t)}
    for t, v in present.items():
        if len(v) < ATTRIBUTION_MIN_SUBJECTS:
            raise ValueError(f"sample type {t!r} has {len(v)} subjects; "
                             f"need at least {ATTRIBUTION_MIN_SUBJECTS}")
    if "real" not in present:
        raise ValueError("attribution requires real samples")

    notes: list[str] = []
    prepared = {}
    for t, pairs in present.items():
        X, y = _prepare_features(pairs)
        keep = []
        for j in range(X.shape[1]):
            if np.ptp(X[:, j]) == 0.0:
                msg = f"{t}: constant attribute column {FEATURE_NAMES[j]!r} dropped"
                warnings.warn(msg)
                notes.append(msg)
            else:
                keep.append(j)
        prepared[t] = (X, y, keep)

    # per-attribute correlation with |error|; None for an absent type or dropped column
    def error_correlations(t):
        if t not in prepared:
            return [None] * len(FEATURE_NAMES), 0
        X, y, keep = prepared[t]
        return [pearson(X[:, j], y) if j in keep else None
                for j in range(len(FEATURE_NAMES))], len(y)

    r_real, n_real = error_correlations("real")
    r_syn, n_syn = error_correlations("synthetic")
    correlations = {
        name: {"real": a, "synthetic": b,
               "p_value": None if a is None or b is None
               else _fisher_z_p(a, n_real, b, n_syn)}
        for name, a, b in zip(FEATURE_NAMES, r_real, r_syn)}

    importances = {}
    regression_mae = {}
    params = replace(REGRESSOR_PARAMS, seed=seed)
    for t, (X, y, keep) in prepared.items():
        Xk = X[:, keep]
        test, train = _holdout(Stream(seed ^ fnv1a64(t.encode("utf-8"))), len(y))
        held = fit_forest(Xk[train], y[train], "regressor", params)
        resid = np.abs(predict(held, Xk[test]) - y[test])
        regression_mae[t] = {"mae": float(resid.mean()),
                             "std": float(resid.std(ddof=1)) if len(resid) > 1 else 0.0}
        full = fit_forest(Xk, y, "regressor", params)
        imp = np.zeros(len(FEATURE_NAMES))
        imp[np.array(keep, dtype=int)] = full.importances
        importances[t] = {name: float(v) for name, v in zip(FEATURE_NAMES, imp)}

    importance_correlations = {}
    types = list(importances)
    for i in range(len(types)):
        for j in range(i + 1, len(types)):
            a = np.array([importances[types[i]][f] for f in FEATURE_NAMES])
            b = np.array([importances[types[j]][f] for f in FEATURE_NAMES])
            importance_correlations[f"{types[i]}_vs_{types[j]}"] = pearson(a, b)

    return AttributionBlock(correlations=correlations, importances=importances,
                            importance_correlations=importance_correlations,
                            regression_mae=regression_mae, warnings=notes)


# --- full-pipeline orchestration -------------------------------------------


@dataclass(frozen=True)
class TrialConfig:
    """Everything a full trial run needs; every seed is explicit."""

    task: str = "fat_pct"
    n_subjects: int = 350
    spacing_mm: tuple[float, float, float] = (4.0, 4.0, 4.0)
    cohort_seed: int = 7
    split_seed: int = 11
    synth_seed: int = 307
    trial_seed: int = 0
    n_train: int = 35
    n_id: int = 75
    n_ood: int = 75
    oversample_factor: int = 2
    boundary: BiasBoundary = BiasBoundary()
    predictor: PredictorSpec = PredictorSpec()
    distribution: AttributeDistribution = AttributeDistribution()
    n_boot: int = 10000
    z_boot: int = 2000
    level: float = 0.95

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}")
        if self.n_subjects < 1:
            raise ValueError("n_subjects must be positive")
        check_spacing(self.spacing_mm)
        if min(self.n_train, self.n_id, self.n_ood) < 2:
            raise ValueError("train/id/ood splits need at least 2 subjects each")
        if self.oversample_factor < 1:
            raise ValueError("oversample factor must be >= 1")
        for knob, value in (("n_boot", self.n_boot), ("z_boot", self.z_boot)):
            if value < 1:
                raise ValueError(f"{knob} must be at least 1, got {value}")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")


def _measured(subject_id: str, attrs: Attributes, spec, pool) -> MeasuredSubject:
    """One subject's phantom, built without its structure map on a pooled
    canvas, and measured; only the measurements leave this function."""
    vol, tissue, _, _ = generate_phantom(spec, pool=pool)
    return MeasuredSubject(subject_id, attrs, measure_composition(vol, tissue))


def _measure_each(task, items, threads: int) -> list[MeasuredSubject]:
    """``_measured(*task(item))`` for each item, in order.

    Each worker thread paints every phantom of the call on one canvas of its
    own (a ``threading.local`` pool), so its pages are mapped once per call
    rather than once per phantom; the pool is released when the call returns.
    """
    pool = threading.local()
    return map_ordered(lambda item: _measured(*task(item), pool), items, threads)


def generate_measured_cohort(n: int, dist: AttributeDistribution, spacing,
                             seed: int, threads: int = 1) -> list[MeasuredSubject]:
    """Generate n phantoms in memory and measure their composition."""
    return _measure_each(lambda item: item, sample_cohort_specs(n, dist, spacing, seed),
                         threads)


def synthesize_matched_cohort(subjects: list[MeasuredSubject], factor: int,
                              dist: AttributeDistribution, spacing, seed: int,
                              id_prefix: str = "syn", threads: int = 1,
                              ) -> list[MeasuredSubject]:
    """Regenerate a cohort from binned attributes via fresh phantoms.

    Synthetic subject k takes source subject ``k // factor``'s attribute
    bins and the seed ``subject_seed(seed, k)``.  Only the bins survive the
    round trip; composition is redrawn from the conditional model, so
    residual (non-attribute) structure in the source cohort is deliberately
    not reproduced.
    """
    if factor < 1:
        raise ValueError("oversample factor must be >= 1")
    binned = [bin_attributes(s.attributes) for s in subjects]

    def task(k):
        spec = generate_matched_spec(binned[k // factor], dist, spacing,
                                     subject_seed(seed, k))
        attrs = Attributes(spec.sex, spec.age_years, spec.height_cm, spec.weight_kg)
        return f"{id_prefix}_{k:04d}", attrs, spec

    return _measure_each(task, range(factor * len(subjects)), threads)


def run_full_vct(config: TrialConfig = TrialConfig(), threads: int = 1,
                 cohort: list[MeasuredSubject] | None = None) -> TrialReport:
    """Cohort -> biased split -> predictor fit -> audit -> attribution.

    ``cohort`` short-circuits generation when a measured cohort is already
    in hand (e.g. loaded from a manifest); otherwise one is generated from
    the config's distribution and seeds.
    """
    predictor = make_predictor(config.predictor, seed=config.trial_seed)
    if cohort is None:
        cohort = generate_measured_cohort(config.n_subjects, config.distribution,
                                          config.spacing_mm, config.cohort_seed,
                                          threads=threads)
    real = {s.subject_id: s for s in cohort}
    split = build_biased_split(cohort, config.boundary, config.n_train,
                               config.n_id, config.n_ood, config.split_seed,
                               target=config.task)
    predictor.fit([real[sid] for sid in split.train], config.task)

    synth = {
        "ID": synthesize_matched_cohort(
            [real[sid] for sid in split.id_test], config.oversample_factor,
            config.distribution, config.spacing_mm, config.synth_seed,
            id_prefix="syn_id", threads=threads),
        "OOD": synthesize_matched_cohort(
            [real[sid] for sid in split.ood_test], config.oversample_factor,
            config.distribution, config.spacing_mm, config.synth_seed + 1,
            id_prefix="syn_ood", threads=threads),
    }
    options = TrialOptions(n_boot=config.n_boot, z_boot=config.z_boot,
                           level=config.level, seed=config.trial_seed)
    report = run_trial(real, split, predictor, config.task, synth, options)
    try:
        report.attribution = attribute_errors(report, seed=config.trial_seed)
    except ValueError as exc:
        report.attribution_skipped = str(exc)
        warnings.warn(f"attribution skipped: {exc}")
    return report


# --- report serialization ---------------------------------------------------

def report_to_dict(report: TrialReport, config: TrialConfig) -> dict:
    out = {
        "task": report.task,
        "boundary": encode(report.boundary),
        "achieved_pearson": report.achieved_pearson,
        "counts": dict(report.counts),
        "classifier_accuracy": report.classifier_accuracy,
        "verdicts": {r.population: r.verdict
                     for r in report.rows if r.sample_type == "real"},
        "rows": [encode(r) for r in report.rows],
        "attribution": None if report.attribution is None else encode(report.attribution),
        "config": encode(config),
    }
    if report.attribution_skipped is not None:
        out["attribution_skipped"] = report.attribution_skipped
    return out


def write_trial_outputs(report: TrialReport, out_dir, config: TrialConfig) -> list[Path]:
    """report.json plus the three audit CSVs; returns written paths. Without
    attribution, an earlier run's attribution CSVs in ``out_dir`` are removed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [write_json(out / "report.json", report_to_dict(report, config)),
               write_records(out / "zscores.csv", TrialRow, report.rows)]
    attribution = report.attribution
    if attribution is None:
        for name in ("bias_corr.csv", "feat_import.csv"):
            (out / name).unlink(missing_ok=True)
    else:
        rows = [[name] + [attribution.correlations[name][k]
                          for k in ("real", "synthetic", "p_value")]
                for name in FEATURE_NAMES]
        written.append(write_csv(out / "bias_corr.csv",
                                 ["attribute", "r_real", "r_synthetic", "p_value"], rows))
        types = [t for t in SAMPLE_TYPES if t in attribution.importances]
        rows = [[name] + [attribution.importances[t][name] for t in types]
                for name in FEATURE_NAMES]
        rows.append(["correlation_vs_real"] + [
            None if t == "real" else attribution.importance_correlations.get(f"real_vs_{t}")
            for t in types])
        written.append(write_csv(out / "feat_import.csv", ["attribute"] + types, rows))
    return written
