"""Trial machinery on fabricated cohorts: splits, predictors, audit rows."""

import dataclasses
import json
import mmap
import os
import re
import subprocess
import sys
import threading
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vctkit import phantom, trial
from vctkit.codec import decode, encode
from vctkit.composition import CompositionReport, measure_composition
from vctkit.phantom import AttributeDistribution, Attributes, generate_matched_spec
from vctkit.rng import Stream, subject_seed
from vctkit.stats import pearson
from vctkit.trial import (
    BiasBoundary,
    MeasuredSubject,
    PredictorSpec,
    TrialConfig,
    TrialOptions,
    attribute_errors,
    build_biased_split,
    encode_binned,
    fit_ood_classifier,
    make_predictor,
    rebias,
    report_to_dict,
    run_full_vct,
    run_trial,
    verdict_for,
    write_trial_outputs,
)
from vctkit.phantom import bin_attributes


def _row(report, population, sample_type):
    """The report's row of ``population`` and ``sample_type``, or None."""
    return next((r for r in report.rows
                 if (r.population, r.sample_type) == (population, sample_type)), None)


def _report(vol_l, muscle=40.0, fat=25.0, bone=800.0):
    return CompositionReport(body_mass_kg=vol_l * 1.02, fat_pct=fat,
                             muscle_pct=muscle, bone_density_hu=bone,
                             body_volume_l=vol_l)


def _subject(sid, vol_l, muscle=40.0, fat=25.0, sex="M", age=50.0,
             height=175.0, weight=80.0, bone=800.0):
    return MeasuredSubject(sid, Attributes(sex, age, height, weight),
                           _report(vol_l, muscle, fat, bone))


def test_verdict_bands():
    assert verdict_for(1.99) == "acceptable"
    assert verdict_for(2.0) == "indeterminate"
    assert verdict_for(2.5) == "indeterminate"
    assert verdict_for(3.0) == "indeterminate"
    assert verdict_for(3.01) == "degraded"


def test_boundary_side_hand_case():
    b = BiasBoundary()  # muscle_pct vs body_volume, slope -0.2, intercept 58.3
    assert b.side(_report(50.0, muscle=50.0)) == "id"   # 50 > 48.3
    assert b.side(_report(50.0, muscle=48.0)) == "ood"  # 48 < 48.3
    # a subject on the line is on the OOD side
    flat = BiasBoundary(slope=0.0, intercept=40.0)
    assert flat.side(_report(50.0, muscle=40.0)) == "ood"
    assert flat.side(_report(50.0, muscle=40.5)) == "id"


def test_boundary_validation():
    with pytest.raises(ValueError):
        BiasBoundary(slope=float("inf"))
    # the boundary is one line in (body volume, muscle %): its axes and its ID
    # side are not keys
    for key, value in (("x_feature", "body_volume"), ("y_feature", "muscle_pct"),
                       ("id_side", "above")):
        with pytest.raises(ValueError, match=re.escape(f"unknown boundary keys: ['{key}']")):
            decode(TrialConfig, {"boundary": {key: value}})


def _mixed_cohort(n=40, seed=0):
    """Half the subjects on each side of the default boundary."""
    rng = np.random.default_rng(seed)
    subjects = []
    for i in range(n):
        vol = float(rng.uniform(40.0, 90.0))
        margin = float(rng.uniform(1.0, 6.0))
        muscle = -0.2 * vol + 58.3 + (margin if i % 2 == 0 else -margin)
        fat = float(0.3 * vol + rng.normal(0.0, 0.5))
        subjects.append(_subject(f"s{i:03d}", vol, muscle=muscle, fat=fat,
                                 sex="M" if i % 3 else "F",
                                 age=float(rng.uniform(20, 90)),
                                 height=float(rng.uniform(150, 200)),
                                 weight=float(rng.uniform(50, 120))))
    return subjects


def test_split_membership_and_determinism():
    subjects = _mixed_cohort()
    b = BiasBoundary()
    split = build_biased_split(subjects, b, n_train=6, n_id=6, n_ood=8, seed=3)
    by_id = {s.subject_id: s for s in subjects}
    for sid in split.train + split.id_test:
        assert b.side(by_id[sid].report) == "id"
    for sid in split.ood_test:
        assert b.side(by_id[sid].report) == "ood"
    all_ids = split.train + split.id_test + split.ood_test
    assert len(set(all_ids)) == len(all_ids)
    again = build_biased_split(subjects, b, n_train=6, n_id=6, n_ood=8, seed=3)
    assert again.train == split.train and again.ood_test == split.ood_test
    other = build_biased_split(subjects, b, n_train=6, n_id=6, n_ood=8, seed=4)
    assert other.train != split.train


def test_split_pearson_is_train_correlation():
    subjects = _mixed_cohort()
    split = build_biased_split(subjects, BiasBoundary(), 6, 6, 8, seed=3)
    by_id = {s.subject_id: s for s in subjects}
    xs = [by_id[sid].report.body_volume_l for sid in split.train]
    ys = [by_id[sid].report.fat_pct for sid in split.train]
    assert split.achieved_pearson == pytest.approx(pearson(xs, ys))


def test_split_insufficient_subjects():
    # the message names the knobs that set the need, the cohort size and the boundary
    subjects = _mixed_cohort(n=10)
    boundary = "boundary slope=-0.2, intercept=58.3"
    with pytest.raises(ValueError) as exc:
        build_biased_split(subjects, BiasBoundary(), 10, 10, 2, seed=0)
    assert re.fullmatch(r"insufficient subjects on the id side: need n_train \+ n_id = 20, "
                        r"have 5 of n_subjects = 10; " + re.escape(boundary),
                        str(exc.value))
    with pytest.raises(ValueError) as exc:
        build_biased_split(subjects, BiasBoundary(), 2, 2, 40, seed=0)
    assert re.fullmatch(r"insufficient subjects on the ood side: need n_ood = 40, "
                        r"have 5 of n_subjects = 10; " + re.escape(boundary),
                        str(exc.value))


def test_rebias_culls_and_is_idempotent():
    subjects = _mixed_cohort()
    b = BiasBoundary()
    kept = rebias(subjects, b, "id")
    assert all(b.side(s.report) == "id" for s in kept)
    assert 0 < len(kept) < len(subjects)
    assert rebias(kept, b, "id") == kept
    with pytest.raises(ValueError):
        rebias(subjects, b, "train")


def test_rebias_empty_warns():
    subjects = [_subject("a", 50.0, muscle=50.0), _subject("b", 60.0, muscle=50.0)]
    with pytest.warns(UserWarning):
        kept = rebias(subjects, BiasBoundary(), "ood")
    assert kept == []


def test_synthesize_matched_cohort_plan():
    subjects = _mixed_cohort(n=3)
    dist, spacing = AttributeDistribution(), (8.0, 8.0, 8.0)
    syn = trial.synthesize_matched_cohort(subjects, 2, dist, spacing, seed=5,
                                          id_prefix="m")
    assert [s.subject_id for s in syn] == [f"m_{k:04d}" for k in range(6)]
    # synthetic subject k: source k // factor's bins, seed subject_seed(seed, k)
    for k, s in enumerate(syn):
        binned = bin_attributes(subjects[k // 2].attributes)
        assert bin_attributes(s.attributes) == binned
        spec = generate_matched_spec(binned, dist, spacing, subject_seed(5, k))
        assert s.attributes == Attributes(spec.sex, spec.age_years, spec.height_cm,
                                          spec.weight_kg)
    for k in range(0, 6, 2):  # the two copies of one source differ
        assert syn[k].attributes != syn[k + 1].attributes
        assert syn[k].report != syn[k + 1].report
    with pytest.raises(ValueError, match="oversample factor must be >= 1"):
        trial.synthesize_matched_cohort(subjects, 0, dist, spacing, seed=5)


def test_encode_binned_layout():
    row = encode_binned(bin_attributes(Attributes("M", 52.0, 176.0, 81.0)))
    assert row == [1.0, 0.0, 55.0, 0.0, 175.0, 0.0, 85.0, 0.0]
    row = encode_binned(bin_attributes(Attributes(None, None, 163.0, None)))
    assert row == [0.0, 0.0, 0.0, 1.0, 165.0, 0.0, 0.0, 1.0]


# --- predictors ---------------------------------------------------------------


def test_shortcut_linear_exact_on_line():
    subjects = [_subject(f"t{i}", vol, fat=2.0 * vol + 1.0)
                for i, vol in enumerate([40.0, 55.0, 63.0, 78.0])]
    p = make_predictor(PredictorSpec())
    p.fit(subjects, "fat_pct")
    assert p.slope == pytest.approx(2.0)
    assert p.intercept == pytest.approx(1.0)
    probe = _subject("probe", 50.0, fat=0.0)
    assert p.predict(probe, "fat_pct") == pytest.approx(101.0)


def test_shortcut_constant_volume_raises():
    subjects = [_subject(f"t{i}", 60.0) for i in range(4)]
    p = make_predictor(PredictorSpec())
    with pytest.raises(ValueError, match="constant body volume"):
        p.fit(subjects, "fat_pct")


def test_shortcut_unfitted_raises():
    p = make_predictor(PredictorSpec())
    with pytest.raises(ValueError, match="not fitted"):
        p.predict(_subject("x", 50.0), "fat_pct")


def test_oracle_noise_deterministic_per_subject():
    p = make_predictor(PredictorSpec("oracle_noise", sigma=0.5), seed=3)
    s = _subject("s000", 50.0, fat=30.0)
    assert p.predict(s, "fat_pct") == p.predict(s, "fat_pct")
    other = _subject("s001", 50.0, fat=30.0)
    assert p.predict(s, "fat_pct") != p.predict(other, "fat_pct")
    # the noise draws from the seed make_predictor is given: the trial seed
    reseeded = make_predictor(PredictorSpec("oracle_noise", sigma=0.5), seed=4)
    assert reseeded.predict(s, "fat_pct") != p.predict(s, "fat_pct")
    with pytest.raises(ValueError, match=re.escape("unknown predictor keys: ['seed']")):
        decode(TrialConfig, {"predictor": {"kind": "oracle_noise", "seed": 5}})
    exact = make_predictor(PredictorSpec("oracle_noise", sigma=0.0))
    assert exact.predict(s, "fat_pct") == 30.0
    with pytest.raises(ValueError, match="predictor.sigma"):
        PredictorSpec("oracle_noise", sigma=-1.0)


def test_external_predictions_csv(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("subject_id,prediction\ns000,24.5\ns001,31.0\n")
    p = make_predictor(PredictorSpec("external", path=str(path)))
    assert p.predict(_subject("s000", 50.0), "fat_pct") == 24.5
    with pytest.raises(ValueError, match="no external prediction"):
        p.predict(_subject("s999", 50.0), "fat_pct")
    bad = tmp_path / "bad.csv"
    bad.write_text("id,pred\ns000,24.5\n")
    with pytest.raises(ValueError) as info:
        make_predictor(PredictorSpec("external", path=str(bad)))
    assert str(info.value) == f"{bad}: must have header subject_id,prediction"


@pytest.mark.parametrize("rows, line, message", [
    ("s000,24.5\ns001\n", 3, "subject 's001' has 1 cells, expected 2"),
    ("s000,abc\n", 2, "subject 's000': prediction must be a finite number, got 'abc'"),
    ("s000,24.5\ns001,nan\n", 3,
     "subject 's001': prediction must be a finite number, got 'nan'"),
    ("s000,-inf\n", 2, "subject 's000': prediction must be a finite number, got '-inf'"),
    ("s000,24.5,1\n", 2, "subject 's000' has 3 cells, expected 2"),
    ("s000,24.5\ns001,3\ns000,25.0\n", 4, "subject 's000' is listed twice"),
])
def test_bad_external_predictions_row_names_file_line_and_subject(
        monkeypatch, tmp_path, rows, line, message):
    def no_phantoms(spec, **kwargs):
        raise AssertionError("a phantom was built before the predictions were checked")

    monkeypatch.setattr(trial, "generate_phantom", no_phantoms)
    path = tmp_path / "preds.csv"
    path.write_text("subject_id,prediction\n" + rows)
    config = TrialConfig(predictor=PredictorSpec("external", path=str(path)))
    with pytest.raises(ValueError) as info:
        run_full_vct(config)
    assert str(info.value) == f"{path}: line {line}: {message}"


def test_unknown_predictor_kind():
    with pytest.raises(ValueError, match="unknown predictor"):
        PredictorSpec("mlp")
    with pytest.raises(ValueError, match="predictor.path"):
        PredictorSpec("external")


def test_run_full_vct_checks_predictor_before_generation(monkeypatch, tmp_path):
    def no_phantoms(spec):
        raise AssertionError("a phantom was built before the predictor was checked")

    monkeypatch.setattr(trial, "generate_phantom", no_phantoms)
    bad = tmp_path / "bad.csv"
    bad.write_text("id,pred\ns000,24.5\n")
    with pytest.raises(ValueError, match="header"):
        run_full_vct(TrialConfig(predictor=PredictorSpec("external", path=str(bad))))


def test_trial_path_builds_image_only_and_no_labelmap(monkeypatch, tmp_path):
    calls, labelmaps = [], []
    check = phantom.LabelMap.__post_init__
    monkeypatch.setattr(phantom.LabelMap, "__post_init__",
                        lambda self: labelmaps.append(self.kind) or check(self))

    def spy(owner):
        real = owner.generate_phantom

        def generate(spec, **kwargs):
            calls.append((owner.__name__, kwargs))
            return real(spec, **kwargs)
        monkeypatch.setattr(owner, "generate_phantom", generate)

    spy(trial)
    spy(phantom)
    dist, spacing = AttributeDistribution(), (8.0, 8.0, 8.0)
    cohort = trial.generate_measured_cohort(2, dist, spacing, seed=4)
    trial.synthesize_matched_cohort(cohort, 1, dist, spacing, seed=5)
    pools = [kwargs.pop("pool") for _, kwargs in calls]
    assert calls == [("vctkit.trial", {})] * 4
    # each cohort call paints on one canvas pool of its own, HU alone: no
    # tissue or structure map is built, so no label map is checked
    assert all(isinstance(pool, threading.local) for pool in pools)
    assert pools[0] is pools[1] and pools[2] is pools[3] and pools[0] is not pools[2]
    assert all(vars(pool).keys() == {"hu"} for pool in (pools[0], pools[2]))
    assert labelmaps == []
    calls.clear()
    phantom.generate_cohort(1, dist, spacing, 6, tmp_path)
    assert calls == [("vctkit.phantom", {})]
    assert labelmaps == ["tissue", "structure"]


def _arrays(obj):
    """Every numpy array reachable through dataclass fields and containers."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _arrays(value)


def _drawn_subject(seed):
    attrs, spec = phantom.sample_subject_spec(Stream(seed), AttributeDistribution(),
                                              (8.0, 8.0, 8.0), seed)
    return f"s{seed}", attrs, spec


@settings(max_examples=10)  # each example builds about 30 phantoms at 8 mm
@given(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=3))
def test_pooled_canvas_matches_fresh(seeds):
    # forward then back, so a larger grid follows a smaller one and the reverse
    subjects = [_drawn_subject(seed) for seed in seeds + seeds[::-1]]
    fresh = []
    for _, _, spec in subjects:
        vol, tissue, _, _ = phantom.generate_phantom(spec)
        fresh.append((vol.data.tobytes(), encode(measure_composition(vol, tissue))))
    for threads in (1, 2):
        pool = threading.local()

        def pooled(item):
            vol, _ = phantom.generate_phantom(item[2], pool=pool)
            image = vol.data.tobytes()
            subject = trial._measured(*item, pool)
            for array in _arrays(subject):
                assert not np.may_share_memory(array, pool.hu)
            return image, encode(subject.report)

        assert phantom.map_ordered(pooled, subjects, threads) == fresh


def test_cohort_call_unmaps_its_canvases(monkeypatch):
    maps = []

    def mapped(*args):
        buffer = mmap.mmap(*args)
        maps.append(weakref.ref(buffer))
        return buffer

    monkeypatch.setattr(phantom, "mmap", types.SimpleNamespace(mmap=mapped))
    dist, spacing = AttributeDistribution(), (8.0, 8.0, 8.0)
    for threads in (1, 2):
        maps.clear()
        cohort = trial.generate_measured_cohort(4, dist, spacing, 3, threads=threads)
        trial.synthesize_matched_cohort(cohort, 1, dist, spacing, 4, threads=threads)
        assert maps and all(ref() is None for ref in maps)


_FAULT_PROBE = """
import resource
from vctkit.phantom import AttributeDistribution
from vctkit.trial import generate_measured_cohort

dist, spacing = AttributeDistribution(), (8.0, 8.0, 8.0)
generate_measured_cohort(2, dist, spacing, 1, threads=1)  # first-call costs
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
generate_measured_cohort(50, dist, spacing, 0, threads=1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_trial_cohort_minor_faults_are_bounded():
    # A fresh interpreter: a multi-MB temporary freed by an earlier test
    # raises glibc's mmap threshold for the rest of the process, which hides
    # the faults of a canvas allocated per phantom. Even so the count pins
    # one allocation history, not a phantom's own faults: glibc's dynamic
    # mmap threshold moves with the sizes freed before, and a 300-phantom
    # cohort took 56 or 5 faults a phantom depending only on a timing
    # wrapper around measure_composition. Measured on one 2-core x86-64
    # machine (glibc 2.36, numpy 2.4.6) and nowhere else: while
    # measure_composition built body-sized float temporaries the pooled
    # path faulted 42-272 times per phantom (126 in 6 runs of this probe).
    # With one body-sized HU array per call and a 256 KB leaf buffer, the
    # count hung on the checkout's path: 1,091-8,132 over the 50 phantoms
    # in six directories of one tree; with the 128 KB leaf buffer it read
    # 986-1,126 (20-23 per phantom) in the same six. Painting HU alone and
    # measuring from it (no tissue canvas, no tissue gathers), it read
    # 640-810 (13-16 per phantom) in five directories, against 936-1,142
    # for the tissue canvas in the same five. The bound fails a return of
    # the float temporaries; a failure short of their count may be the
    # allocator's.
    src = str(Path(trial.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    faults = int(subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env, check=True,
                                capture_output=True, text=True, timeout=300).stdout)
    assert faults <= 100 * 50, f"{faults} minor faults over 50 phantoms"


# --- OOD classifier -----------------------------------------------------------


def test_ood_classifier_separable():
    id_attrs = [Attributes("M", 30.0 + i % 10, 170.0, 70.0) for i in range(30)]
    ood_attrs = [Attributes("M", 70.0 + i % 10, 170.0, 70.0) for i in range(30)]
    _, acc = fit_ood_classifier(id_attrs, ood_attrs, seed=1)
    assert acc == 1.0


def test_ood_classifier_identical_distributions():
    attrs = [Attributes("M" if i % 2 else "F", 30.0 + i, 160.0 + i % 20,
                        60.0 + i % 30) for i in range(40)]
    _, acc = fit_ood_classifier(attrs, list(attrs), seed=1)
    assert 0.2 <= acc <= 0.8
    with pytest.raises(ValueError):
        fit_ood_classifier([], attrs)


# --- the audit table ------------------------------------------------------


def _small_trial():
    subjects = _mixed_cohort(n=40)
    b = BiasBoundary()
    split = build_biased_split(subjects, b, n_train=6, n_id=8, n_ood=8, seed=3)
    real = {s.subject_id: s for s in subjects}
    predictor = make_predictor(PredictorSpec())
    predictor.fit([real[sid] for sid in split.train], "fat_pct")
    rng = np.random.default_rng(99)
    synth = {
        "ID": [_subject(f"syn_id_{k:04d}", float(rng.uniform(40, 90)),
                        muscle=float(rng.uniform(40, 58)),
                        fat=float(rng.uniform(15, 35))) for k in range(12)],
        "OOD": [_subject(f"syn_ood_{k:04d}", float(rng.uniform(40, 90)),
                         muscle=float(rng.uniform(30, 50)),
                         fat=float(rng.uniform(15, 35))) for k in range(12)],
    }
    options = TrialOptions(n_boot=400, z_boot=200, seed=0)
    return run_trial(real, split, predictor, "fat_pct", synth, options), real, split, predictor


def test_run_trial_rows_and_real_reference():
    report, real, split, predictor = _small_trial()
    got = {(r.population, r.sample_type) for r in report.rows}
    assert ("ID", "real") in got and ("OOD", "real") in got
    assert ("ID", "synthetic") in got and ("OOD", "synthetic") in got
    assert ("OOD", "real_weighted") in got

    id_real = _row(report, "ID", "real")
    errs = [abs(real[sid].report.fat_pct - predictor.predict(real[sid], "fat_pct"))
            for sid in split.id_test]
    assert id_real.mae == pytest.approx(float(np.mean(errs)))
    assert id_real.z_vs_real == 0.0
    assert id_real.p_value == 1.0
    assert id_real.n == 8
    assert id_real.mae_ci[0] <= id_real.mae <= id_real.mae_ci[1]

    weighted = _row(report, "OOD", "real_weighted")
    assert weighted.attr_dist == "ID"
    assert weighted.z_vs_real is None and weighted.p_value is None
    assert _row(report, "ID", "real_weighted") is None

    assert report.counts == {"train": 6, "id_test": 8, "ood_test": 8,
                             "synthetic": 24}
    assert 0.0 <= report.classifier_accuracy <= 1.0
    assert len(report.samples["real"]) == 16


def test_run_trial_deterministic():
    r1 = _small_trial()[0]
    r2 = _small_trial()[0]
    assert report_to_dict(r1, TrialConfig()) == report_to_dict(r2, TrialConfig())


def test_run_trial_missing_subject():
    subjects = _mixed_cohort(n=40)
    split = build_biased_split(subjects, BiasBoundary(), 6, 8, 8, seed=3)
    real = {s.subject_id: s for s in subjects}
    real.pop(split.ood_test[0])
    predictor = make_predictor(PredictorSpec())
    with pytest.raises(ValueError, match="missing measured report"):
        run_trial(real, split, predictor, "fat_pct", {})


def test_report_row_order_and_verdicts(tmp_path):
    report = _small_trial()[0]
    d = report_to_dict(report, TrialConfig())
    keys = [(r["population"], r["sample_type"]) for r in d["rows"]]
    assert keys == sorted(keys, key=lambda k: (
        {"ID": 0, "OOD": 1}[k[0]],
        {"real": 0, "real_weighted": 1, "synthetic": 2, "synthetic_rebias": 3}[k[1]]))
    assert set(d["verdicts"]) == {"ID", "OOD"}
    assert d["attribution"] is None
    assert "attribution_skipped" not in d  # run_trial does not attempt attribution


def test_run_trial_appends_rows_in_report_order():
    report = _small_trial()[0]
    keys = [(r.population, r.sample_type) for r in report.rows]
    assert keys == sorted(keys, key=lambda k: (
        {"ID": 0, "OOD": 1}[k[0]],
        {"real": 0, "real_weighted": 1, "synthetic": 2, "synthetic_rebias": 3}[k[1]]))
    assert report_to_dict(report, TrialConfig())["rows"] == [encode(r) for r in report.rows]


def test_write_trial_outputs(tmp_path):
    report = _small_trial()[0]
    # an earlier run's attribution CSVs do not outlive a run without one
    for name in ("bias_corr.csv", "feat_import.csv"):
        (tmp_path / name).write_text("stale\n")
    paths = write_trial_outputs(report, tmp_path, TrialConfig())
    names = {p.name for p in paths}
    assert names == {"report.json", "zscores.csv"}  # no attribution block
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "zscores.csv"]
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["config"]["n_subjects"] == 350
    lines = (tmp_path / "zscores.csv").read_text().strip().split("\n")
    assert lines[0] == ("population,attr_dist,sample_type,n,mae,mae_ci_low,"
                        "mae_ci_high,z_vs_real,z_ci_low,z_ci_high,p_value,verdict")
    assert len(lines) == 1 + len(report.rows)
    id_real = lines[1].split(",")
    assert id_real[0] == "ID" and id_real[2] == "real"
    assert float(id_real[4]) == _row(report, "ID", "real").mae


# --- attribution on constructed errors ------------------------------------


def _constructed_errors(n, seed, prefix):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        age = float(rng.uniform(20, 90))
        s = _subject(f"{prefix}{i:03d}", float(rng.uniform(40, 90)),
                     muscle=float(rng.uniform(30, 55)),
                     fat=float(rng.uniform(15, 40)),
                     sex="M" if i % 2 else "F", age=age,
                     height=float(rng.uniform(150, 200)),
                     weight=float(rng.uniform(50, 120)),
                     bone=float(rng.uniform(600, 1000)))
        out.append((s, 0.1 * age))
    return out


def test_attribution_finds_driving_attribute(samples_report):
    samples = {
        "real": _constructed_errors(60, 1, "r"),
        "synthetic": _constructed_errors(60, 2, "s"),
    }
    block = attribute_errors(samples_report(samples), seed=0)
    assert block.importances["real"]["age"] > 0.6
    assert block.importances["synthetic"]["age"] > 0.6
    assert block.importance_correlations["real_vs_synthetic"] > 0.9
    assert block.correlations["age"]["real"] > 0.9
    assert np.isfinite(block.correlations["age"]["p_value"])
    assert block.regression_mae["real"]["mae"] < 1.0


def test_attribution_min_subjects(samples_report):
    samples = {"real": _constructed_errors(10, 1, "r")}
    with pytest.raises(ValueError, match="at least 30"):
        attribute_errors(samples_report(samples))


def test_attribution_requires_real(samples_report):
    samples = {"synthetic": _constructed_errors(40, 1, "s")}
    with pytest.raises(ValueError, match="requires real"):
        attribute_errors(samples_report(samples))


def test_attribution_constant_column_warns(samples_report):
    real = _constructed_errors(40, 1, "r")
    for s, _ in real:
        s.attributes = Attributes("M", s.attributes.age_years,
                                  s.attributes.height_cm, s.attributes.weight_kg)
    with pytest.warns(UserWarning, match="constant attribute column"):
        block = attribute_errors(samples_report({"real": real}), seed=0)
    assert block.importances["real"]["sex"] == 0.0
    assert block.warnings
    # an undefined correlation or p-value is None, the missing value, not NaN
    assert block.correlations["sex"] == {"real": None, "synthetic": None, "p_value": None}
    assert block.correlations["age"]["synthetic"] is None  # no synthetic samples
    assert trial._fisher_z_p(0.5, 3, 0.2, 40) is None


# --- config -------------------------------------------------------------------


def test_config_round_trip():
    cfg = TrialConfig(n_subjects=120, n_train=12, n_id=30, n_ood=30,
                      boundary=BiasBoundary(slope=-0.1, intercept=50.0))
    again = decode(TrialConfig, encode(cfg))
    assert again == cfg
    shifted = TrialConfig(distribution=AttributeDistribution(
        p_female=0.3, height_mean={"M": 181.0, "F": 166.0},
        weight_range=(50.0, 140.0), missing_rate=0.1))
    assert decode(TrialConfig, json.loads(json.dumps(encode(shifted)))) == shifted


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown trial config keys"):
        decode(TrialConfig, {"n_subjectz": 10})
    with pytest.raises(ValueError, match="unknown boundary keys"):
        decode(TrialConfig, {"boundary": {"slop": -0.2}})
    with pytest.raises(ValueError, match="unknown distribution keys"):
        decode(TrialConfig, {"distribution": {"p_male": 0.5}})
    with pytest.raises(ValueError, match=r"unknown predictor keys: \['sigmaa'\]"):
        decode(TrialConfig, {"predictor": {"kind": "oracle_noise", "sigmaa": 3.0}})
    with pytest.raises(ValueError, match="predictor.path is required"):
        decode(TrialConfig, {"predictor": {"kind": "external"}})
    cfg = decode(TrialConfig, {"task": "muscle_pct", "n_subjects": 99})
    assert cfg.task == "muscle_pct"
    assert cfg.n_subjects == 99


@pytest.mark.parametrize("d, key", [
    ({"distribution": {"height_mean": 5}}, "distribution.height_mean"),
    ({"distribution": {"weight_sd": {"M": "wide"}}}, "distribution.weight_sd.M"),
    ({"distribution": {"age_range": [18.0]}}, "distribution.age_range"),
    ({"predictor": "shortcut_linear"}, "predictor"),
    ({"boundary": {"slope": "steep"}}, "boundary.slope"),
    ({"boundary": []}, "boundary"),
    ({"spacing_mm": [4.0, 4.0]}, "spacing_mm"),
    ({"n_subjects": "120"}, "n_subjects"),
    ({"n_boot": 2.5}, "n_boot"),
    ({"level": True}, "level"),
    ({"predictor": {"kind": "oracle_noise", "sigma": "wide"}}, "predictor.sigma"),
    ({"predictor": {"kind": "external", "path": 3}}, "predictor.path"),
])
def test_config_bad_values_name_the_key(d, key):
    with pytest.raises(ValueError, match=f"^{re.escape(key)} must be"):
        decode(TrialConfig, d)


def test_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(task="bone_density")
    with pytest.raises(ValueError):
        TrialConfig(n_subjects=0)
    with pytest.raises(ValueError):
        TrialConfig(n_id=1)
    with pytest.raises(ValueError):
        TrialConfig(level=1.0)
