"""Acceptance suite: the end-to-end guarantees this package is built around.

Each test pins one headline property: measurement closure on seeded phantoms,
oracle agreement for the z statistic, bootstrap coverage, forest sanity,
importance-weighting identities, the full shortcut-audit trial, bias
attribution on constructed errors, consistency-table oracles, and byte-level
CLI determinism.
"""

import json
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from vctkit.cli import main
from vctkit.composition import CompositionReport, measure_composition
from vctkit.forest import ForestParams, fit_forest, predict
from vctkit.metrics import (
    cohort_consistency,
    collect_structure_measurements,
    per_class_dice,
    qq_pearson,
)
from vctkit.phantom import (
    AttributeDistribution,
    Attributes,
    generate_phantom,
    sample_cohort_specs,
)
from vctkit.rng import Stream, subject_seed
from vctkit.skeleton import measure_height
from vctkit.stats import bootstrap_ci, importance_weights, weighted_mae, z_score
from vctkit.trial import (
    MeasuredSubject,
    TrialConfig,
    attribute_errors,
    report_to_dict,
    run_full_vct,
)
from vctkit.volume import Grid, LabelIndex, LabelMap


# --- 1. measurement closure over a seeded 50-phantom cohort ------------------


def test_measurement_closure_50_phantoms():
    rows = sample_cohort_specs(50, AttributeDistribution(), (2.0, 2.0, 2.0),
                               seed=404)
    diag2 = 2.0 * float(np.linalg.norm((2.0, 2.0, 2.0)))

    def build(item):
        _sid, _attrs, spec = item
        vol, tissue, structure, truth = generate_phantom(spec)
        rep = measure_composition(vol, tissue)
        height = measure_height(tissue, structure)
        return spec, truth, rep, height

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=4) as ex:
        results = list(ex.map(build, rows))
    elapsed = time.perf_counter() - start

    for spec, truth, rep, height in results:
        # against the requested subject
        assert abs(rep.body_mass_kg - spec.weight_kg) <= 0.01 * spec.weight_kg
        assert abs(rep.fat_pct - 100.0 * spec.fat_fraction) <= 0.5
        assert abs(rep.muscle_pct - 100.0 * spec.muscle_fraction) <= 0.5
        assert abs(height.total_mm - 10.0 * spec.height_cm) <= diag2
        # and against the voxel-counted truth, which must agree tighter still
        assert rep.body_mass_kg == pytest.approx(truth.body_mass_g / 1000.0, rel=1e-9)
        assert rep.fat_pct == pytest.approx(truth.fat_pct, rel=1e-9)
        assert abs(height.total_mm - truth.height_breakdown["total_mm"]) <= diag2
    assert elapsed < 60.0, f"closure run took {elapsed:.1f}s"


# --- 2. z statistic vs an independent computation -----------------------------

# expected values computed with the stdlib statistics module only
Z_ORACLE = [
    ([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], -3.6742346141747673),
    ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0, 5.0], -0.5222329678670935),
    ([0.5, 0.75, 1.25, 1.5], [0.4, 0.6, 0.8], 1.5639245098825791),
    ([10.0, 12.0, 9.0, 11.0, 13.0], [8.0, 7.5, 9.5, 8.5], 3.1779296155235053),
    ([-1.0, 0.0, 1.0, 2.0], [5.0, 4.0, 6.0], -5.196152422706632),
    ([2.5, 2.7, 2.4, 2.6, 2.8, 2.5], [2.9, 3.1, 3.0, 2.8], -4.157609203101497),
    ([100.0, 101.0, 99.0], [100.5, 100.7, 99.8, 100.1], -0.4496981345928349),
    ([0.1, 0.2, 0.15, 0.25, 0.3], [0.12, 0.18, 0.22], 0.5826856325833839),
    ([7.0, 7.0, 8.0, 9.0], [6.0, 5.0, 5.5, 6.5, 7.5], 2.56387219725617),
    ([3.14, 2.71, 1.61, 4.67], [2.0, 2.5, 3.0, 3.5, 4.0, 4.5],
     -0.2939351342867808),
]


def test_z_score_matches_independent_oracle():
    for x, y, expected in Z_ORACLE:
        assert z_score(x, y) == pytest.approx(expected, abs=1e-9)


def test_z_score_of_identical_samples_is_exactly_zero():
    for x, _y, _e in Z_ORACLE:
        assert z_score(x, x) == 0.0


# --- 3. bootstrap coverage ----------------------------------------------------


def test_bootstrap_coverage_of_normal_mean():
    start = time.perf_counter()
    covered = 0
    for rep in range(200):
        x = Stream(subject_seed(515, rep)).normal(50, 0.0, 1.0)
        lo, hi = bootstrap_ci(x, n_boot=1000, level=0.95, seed=rep)
        covered += lo <= 0.0 <= hi
    elapsed = time.perf_counter() - start
    assert 180 <= covered <= 196, f"covered {covered}/200"
    assert elapsed < 30.0, f"coverage run took {elapsed:.1f}s"
    # deterministic per seed
    x = Stream(subject_seed(515, 0)).normal(50, 0.0, 1.0)
    assert bootstrap_ci(x, n_boot=1000, seed=0) == \
        bootstrap_ci(x, n_boot=1000, seed=0)


# --- 4. forest sanity ---------------------------------------------------------


def test_forest_separable_classification_holdout():
    stream = Stream(606)
    n = 500
    y = np.array([i % 2 for i in range(n)], dtype=np.float64)
    X = np.column_stack([
        np.where(y == 1, 2.0, -2.0) + stream.normal(n, 0.0, 0.5),
        stream.normal(n, 0.0, 1.0),
    ])
    order = stream.permutation(n)
    train, test = order[:400], order[400:]
    params = ForestParams(n_trees=100, min_samples_leaf=10)
    forest = fit_forest(X[train], y[train], "classifier", params)
    acc = float((predict(forest, X[test]) == y[test]).mean())
    assert acc >= 0.95


def test_forest_single_informative_feature_importance():
    stream = Stream(707)
    n = 400
    X = np.column_stack([stream.normal(n) for _ in range(3)])
    y = 3.0 * X[:, 1]
    params = ForestParams(n_trees=100, min_samples_leaf=10, max_features="all")
    forest = fit_forest(X, y, "regressor", params)
    assert forest.importances[1] >= 0.8
    assert float(np.sum(forest.importances)) == pytest.approx(1.0, abs=1e-9)


# --- 5. importance-weighting identities ---------------------------------------


def test_weighting_constant_probability_identity():
    errors = Stream(808).uniform(40) * 5.0
    for prior_ood in (0.2, 0.5, 0.75):
        p = np.full(40, prior_ood)
        w = importance_weights(p, 1.0 - prior_ood, prior_ood)
        assert weighted_mae(errors, w) == pytest.approx(np.abs(errors).mean(), abs=1e-12)


def test_weighting_hand_case_three():
    w = importance_weights(np.array([0.75]), 0.5, 0.5)
    assert w[0] == 3.0


# --- 6. the full shortcut-audit trial -----------------------------------------


def _row(report, population, sample_type):
    """The report's row of ``population`` and ``sample_type``, or None."""
    return next((r for r in report.rows
                 if (r.population, r.sample_type) == (population, sample_type)), None)


def test_full_trial_shortcut_audit():
    config = TrialConfig()
    assert config.n_subjects == 350
    start = time.perf_counter()
    report = run_full_vct(config, threads=4)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"full trial took {elapsed:.1f}s"

    assert report.counts == {"train": 35, "id_test": 75, "ood_test": 75,
                             "synthetic": 300}
    assert abs(report.achieved_pearson) >= 0.8

    id_real = _row(report, "ID", "real")
    ood_real = _row(report, "OOD", "real")
    assert id_real.mae < 2.0
    assert ood_real.mae > 3.0

    # the matched-attribute synthetic cohort reaches the same verdicts
    assert _row(report, "ID", "synthetic").verdict == id_real.verdict
    syn_ood = _row(report, "OOD", "synthetic")
    assert syn_ood.verdict == ood_real.verdict
    assert syn_ood.mae_ci[0] <= ood_real.mae <= syn_ood.mae_ci[1]

    # importance weighting of ID errors does not reach the true OOD MAE
    weighted = _row(report, "OOD", "real_weighted")
    assert weighted.mae < ood_real.mae

    # re-biased synthetic errors are statistically indistinguishable from real
    for population in ("ID", "OOD"):
        rebias_row = _row(report, population, "synthetic_rebias")
        assert rebias_row is not None
        assert rebias_row.p_value > 0.05

    assert report.attribution is not None
    assert report.classifier_accuracy > 0.5


def test_small_trial_rerun_is_identical():
    config = TrialConfig(n_subjects=60, spacing_mm=(6.0, 6.0, 6.0), n_train=6,
                         n_id=10, n_ood=10, n_boot=400, z_boot=200)
    with pytest.warns(UserWarning, match="attribution skipped"):
        a = run_full_vct(config, threads=1)
    with pytest.warns(UserWarning, match="attribution skipped"):
        b = run_full_vct(config, threads=3)
    assert report_to_dict(a, config) == report_to_dict(b, config)


# --- 7. bias attribution on constructed errors --------------------------------


def _volume_driven_errors(n, seed, prefix):
    stream = Stream(seed)
    out = []
    for i in range(n):
        vol = float(stream.uniform1() * 50.0 + 40.0)
        report = CompositionReport(
            body_mass_kg=float(stream.uniform1() * 50.0 + 50.0),
            fat_pct=float(stream.uniform1() * 25.0 + 15.0),
            muscle_pct=float(stream.uniform1() * 25.0 + 30.0),
            bone_density_hu=float(stream.uniform1() * 400.0 + 600.0),
            body_volume_l=vol)
        attrs = Attributes("M" if stream.uniform1() < 0.5 else "F",
                           float(stream.uniform1() * 70.0 + 20.0),
                           float(stream.uniform1() * 50.0 + 150.0),
                           float(stream.uniform1() * 70.0 + 50.0))
        out.append((MeasuredSubject(f"{prefix}{i:03d}", attrs, report), 0.25 * vol))
    return out


def test_attribution_ranks_constructed_driver(samples_report):
    samples = {
        "real": _volume_driven_errors(80, 909, "r"),
        "synthetic": _volume_driven_errors(80, 910, "s"),
    }
    block = attribute_errors(samples_report(samples), seed=0)
    assert block.importances["real"]["body_volume"] >= 0.5
    assert block.importances["synthetic"]["body_volume"] >= 0.5
    imp_r = np.array([block.importances["real"][f]
                      for f in block.importances["real"]])
    imp_s = np.array([block.importances["synthetic"][f]
                      for f in block.importances["synthetic"]])
    from vctkit.stats import pearson
    assert pearson(imp_r, imp_s) >= 0.8
    assert block.importance_correlations["real_vs_synthetic"] >= 0.8


# --- 8. consistency oracles ----------------------------------------------------


def test_dice_hand_case_exact():
    grid = Grid((4, 4, 4), (1.0, 1.0, 1.0))
    a = np.zeros((4, 4, 4), dtype=np.uint8)
    b = np.zeros((4, 4, 4), dtype=np.uint8)
    a[0, 0, :2] = 1
    b[0, 0, 1:3] = 1
    la = LabelMap(grid, a, "tissue", {1: "c1"})
    lb = LabelMap(grid, b, "tissue", {1: "c1"})
    assert per_class_dice(LabelIndex(la), LabelIndex(lb)) == {1: 0.5}


def test_self_comparison_table_all_ones():
    rows = sample_cohort_specs(4, AttributeDistribution(), (5.0, 5.0, 5.0),
                               seed=111)
    measurements = []
    pairs = []
    for _sid, _attrs, spec in rows:
        _vol, tissue, structure, _truth = generate_phantom(spec)
        index = LabelIndex(structure)
        measurements.append(collect_structure_measurements(index, tissue))
        pairs.append(per_class_dice(index, index))
    rows = cohort_consistency(measurements, measurements, pairs)
    assert rows
    for row in rows.values():
        # Dice mean and std, then volume and centroid R, A, S Q-Q correlations
        assert row == [1.0, 0.0, 1.0, 1.0, 1.0, 1.0]


def test_qq_scale_invariance():
    stream = Stream(212)
    a = stream.normal(300, 5.0, 2.0)
    b = stream.normal(250, 5.0, 2.0)
    base = qq_pearson(a, b)
    for scale, shift in ((3.0, 2.0), (0.01, -40.0), (250.0, 0.0)):
        assert qq_pearson(scale * a + shift, scale * b + shift) == \
            pytest.approx(base, abs=1e-9)


# --- 9. CLI determinism ---------------------------------------------------------


def _tree_bytes(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "run.log":
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_cli_byte_identical_across_reruns_and_threads(tmp_path):
    spacing = "5,5,5"

    g1, g2 = tmp_path / "g1", tmp_path / "g2"
    for out, threads in ((g1, "1"), (g2, "3")):
        assert main(["phantom", "gen", "--n", "20", "--seed", "21",
                     "--out", str(out), "--spacing", spacing,
                     "--threads", threads]) == 0
    assert _tree_bytes(g1) == _tree_bytes(g2)

    m1, m2 = tmp_path / "m1", tmp_path / "m2"
    for out, threads in ((m1, "1"), (m2, "4")):
        assert main(["measure", "--manifest", str(g1 / "manifest.json"),
                     "--out", str(out), "--threads", threads]) == 0
    assert _tree_bytes(m1) == _tree_bytes(m2)

    # make g1 loadable as a measured cohort, then audit it twice
    assert main(["measure", "--manifest", str(g1 / "manifest.json"),
                 "--out", str(g1)]) == 0
    cfg = tmp_path / "trial.json"
    cfg.write_text(json.dumps({
        "spacing_mm": [5.0, 5.0, 5.0], "n_train": 2, "n_id": 3, "n_ood": 3,
        "n_boot": 400, "z_boot": 200,
        "predictor": {"kind": "oracle_noise", "sigma": 0.3},
    }))
    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    for out, threads in ((t1, "1"), (t2, "2")):
        assert main(["trial", "run", "--config", str(cfg), "--out", str(out),
                     "--cohort", str(g1), "--threads", threads]) == 0
    assert _tree_bytes(t1) == _tree_bytes(t2)

    c1, c2 = tmp_path / "c1", tmp_path / "c2"
    for out, threads in ((c1, "1"), (c2, "3")):
        assert main(["consistency", "--a", str(g1 / "manifest.json"),
                     "--b", str(g2 / "manifest.json"), "--out", str(out),
                     "--paired", "--threads", threads]) == 0
    assert _tree_bytes(c1) == _tree_bytes(c2)
