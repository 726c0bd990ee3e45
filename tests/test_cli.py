"""End-to-end command-line runs on small cohorts, including failure paths."""

import csv
import hashlib
import importlib.util
import json
import os
import re
import shutil
from dataclasses import replace
from datetime import datetime, timedelta

import numpy as np
import pytest

from vctkit import cli, phantom, trial
from vctkit.cli import main
from vctkit.io import load_labelmap, load_volume, save_labelmap, save_volume
from vctkit.codec import read_record
from vctkit.phantom import CohortManifest
from vctkit.volume import LabelIndex, Volume

SPACING = "5,5,5"
# consistency.csv of test_consistency_paired_shifted_cohort_pins_bytes, as
# written when each label's counts came from ndimage.find_objects boxes
SHIFTED_PAIRED_SHA256 = "688954308202f62b08b2597a4595fb6dce617685a35a0e2cc3d207f427412ad8"
# `vct measure`'s files on A of that test, recorded when LabelIndex still
# precomputed every label's index box
MEASURED_SHA256 = {
    "measurements.csv": "5a88a5f08b31f2ef5e993c9bad1c2a2837a271c0934475781f7fd580e84f703c",
    "measurements/subj_0000.json":
        "a8cd8905a4f45f98829478e2450658b98b2a04b4c67d110d7e3362f1f0488c36",
    "measurements/subj_0001.json":
        "3d1612b372cc0d3523d9340c23bdf701f5f9b6732628d6862021ae894ef50e0a",
    "measurements/subj_0002.json":
        "6d4c3cf2bcd0cdb16d1ba249ee8c00bfb0283d9250b75eb894038e8be1347740",
    "measurements/subj_0003.json":
        "c9ff805a734e0bdb22e36a568d5dd70484e58e5ac774092fe721e6a0a05a13cc",
}


@pytest.fixture(scope="session")
def cohort_dir(tmp_path_factory):
    """A measured 20-subject cohort shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli_cohort")
    assert main(["phantom", "gen", "--n", "20", "--seed", "21",
                 "--out", str(root), "--spacing", SPACING]) == 0
    # measuring into the cohort directory makes it loadable via --cohort
    assert main(["measure", "--manifest", str(root / "manifest.json"),
                 "--out", str(root)]) == 0
    return root


def _manifest(path) -> CohortManifest:
    return read_record(CohortManifest, path)


def test_gen_outputs_and_manifest(cohort_dir):
    manifest = _manifest(cohort_dir / "manifest.json")
    assert len(manifest.subjects) == 20
    assert [r["stage"] for r in _run_log_records(cohort_dir)] == ["phantom gen", "measure"]
    rec = manifest.subjects[0]
    assert rec.id == "subj_0000"
    for name in (rec.image, rec.tissue, rec.structure):
        assert (cohort_dir / name).exists()
        raw = name.replace(".ctv.json", ".raw")
        assert (cohort_dir / raw).exists()


def test_gen_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["phantom", "gen", "--n", "3", "--seed", "9", "--out", str(a),
                 "--spacing", SPACING, "--threads", "1"]) == 0
    assert main(["phantom", "gen", "--n", "3", "--seed", "9", "--out", str(b),
                 "--spacing", SPACING, "--threads", "3"]) == 0
    names = sorted(p.name for p in a.iterdir() if p.name != "run.log")
    assert names == sorted(p.name for p in b.iterdir() if p.name != "run.log")
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_gen_bad_inputs(tmp_path):
    assert main(["phantom", "gen", "--n", "0", "--seed", "1",
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["phantom", "gen", "--n", "2", "--out", str(tmp_path / "y")]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "seed": 1, "spacingmm": [2, 2, 2]}))
    assert main(["phantom", "gen", "--config", str(cfg),
                 "--out", str(tmp_path / "z")]) == 2
    for bad in ({"n": "2", "seed": 1}, {"n": 2, "seed": 1, "spacing_mm": "abc"}, []):
        cfg.write_text(json.dumps(bad))
        assert main(["phantom", "gen", "--config", str(cfg),
                     "--out", str(tmp_path / "z")]) == 2, bad


def test_gen_bad_distribution_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "seed": 1, "distribution": {"age_meen": 50.0}}))
    assert main(["phantom", "gen", "--config", str(cfg), "--out", str(tmp_path / "z")]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: unknown distribution keys: ['age_meen']\n"
    assert not (tmp_path / "z").exists()


def test_per_sex_prior_without_both_sexes_exits_2_naming_the_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    distribution = {"height_mean": {"M": 170.0}}
    message = "height_mean must have exactly the keys 'M' and 'F', got ['M']"
    cfg.write_text(json.dumps({"n": 2, "seed": 1, "distribution": distribution}))
    assert main(["phantom", "gen", "--config", str(cfg), "--out", str(tmp_path / "z")]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    cfg.write_text(json.dumps(_trial_config(distribution=distribution)))
    assert main(["trial", "run", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not (tmp_path / "z").exists() and not (tmp_path / "t").exists()


@pytest.mark.parametrize("flags, config", [
    (["--spacing", "10,10,10"], None),
    (["--spacing", "0.2,4,4"], None),
    (["--spacing", "nan,4,4"], None),
    ([], {"spacing_mm": [4, 4, 9]}),
])
def test_gen_bad_spacing_exits_2_before_any_output(tmp_path, capsys, flags, config):
    args = ["phantom", "gen", "--n", "2", "--seed", "1", "--out", str(tmp_path / "z")]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args += ["--config", str(cfg)]
    assert main(args + flags) == 2
    assert "spacing_mm components must lie in [0.4, 8]" in capsys.readouterr().err
    assert not (tmp_path / "z").exists()


def test_gen_flags_override_config_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "seed": 2, "spacing_mm": [4, 4, 4],
                               "distribution": {"missing_rate": 0.5}}))
    assert main(["phantom", "gen", "--config", str(cfg), "--n", "2", "--spacing", "6,6,6",
                 "--out", str(tmp_path / "z")]) == 0
    manifest = _manifest(tmp_path / "z" / "manifest.json")
    assert (len(manifest.subjects), manifest.seed, manifest.spacing_mm) == (2, 2, (6.0, 6.0, 6.0))


def test_measure_matches_manifest_truth(cohort_dir):
    manifest = _manifest(cohort_dir / "manifest.json")
    truth = {s.id: s.truth for s in manifest.subjects}
    with open(cohort_dir / "measurements.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    diag2 = 2.0 * (3 * 5.0**2) ** 0.5
    for row in rows:
        t = truth[row["subject_id"]]
        assert float(row["fat_pct"]) == pytest.approx(t.fat_pct, abs=1e-6)
        assert float(row["muscle_pct"]) == pytest.approx(t.muscle_pct, abs=1e-6)
        assert float(row["body_mass_kg"]) == pytest.approx(t.body_mass_g / 1000.0,
                                                           rel=1e-9)
        assert float(row["height_mm"]) == pytest.approx(
            t.height_breakdown["total_mm"], abs=diag2)
    per_subject = json.loads(
        (cohort_dir / "measurements" / "subj_0000.json").read_text())
    assert per_subject["fat_pct"] == pytest.approx(truth["subj_0000"].fat_pct,
                                                   abs=1e-6)
    assert per_subject["height"]["total_mm"] == float(rows[0]["height_mm"])


def test_measure_empty_manifest(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"seed": 0, "spacing_mm": [2, 2, 2],
                                "subjects": []}))
    assert main(["measure", "--manifest", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}: manifest lists no subjects\n"


def test_measure_partial_failure(tmp_path, capsys):
    payload = {
        "seed": 0, "spacing_mm": [2.0, 2.0, 2.0],
        "subjects": [{
            "id": "subj_0000", "image": "missing.ctv.json",
            "tissue": "missing_tissue.ctv.json", "structure": None,
            "population": "unsplit",
            "attributes": {"sex": "M", "age_years": 50.0, "height_cm": 175.0,
                           "weight_kg": 80.0},
            "truth": None,
        }],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload))
    code = main(["measure", "--manifest", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "subj_0000" in err
    with open(tmp_path / "out" / "measurements.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 0  # header only


# --- trial ----------------------------------------------------------------


def _trial_config(**overrides):
    cfg = {
        "n_subjects": 60, "spacing_mm": [6.0, 6.0, 6.0],
        "cohort_seed": 7, "split_seed": 11, "synth_seed": 307, "trial_seed": 0,
        "n_train": 6, "n_id": 10, "n_ood": 10, "oversample_factor": 2,
        "n_boot": 400, "z_boot": 200,
    }
    cfg.update(overrides)
    return cfg


def _table_verdicts(stdout):
    """(population, sample type) -> verdict, read from the printed audit table."""
    rows = re.findall(r"^(ID|OOD) +(?:ID|OOD) +(\w+) .* (\w+)$", stdout, re.M)
    return {(population, sample): verdict for population, sample, verdict in rows}


# print_report's stdout for _PRINTED_REPORT at level 0.95, pinned byte for
# byte: the column list must reproduce the table, not only a parsable one
PRINTED_TABLE = """\
task: fat_pct   train |r(body_volume, fat_pct)| = 0.612   ood classifier acc = 0.875
counts: {'train': 6, 'id_test': 10, 'ood_test': 10, 'synthetic': 40}

pop  attrs sample               n     mae          95% ci       z       p  verdict
----------------------------------------------------------------------------------
ID   ID    real                10   1.182    [1.02, 1.35]    0.00   1.000  acceptable
OOD  ID    real_weighted       10   2.500    [1.12, 3.88]       -       -  indeterminate
OOD  OOD   synthetic_rebias   126   3.250    [2.50, 4.00]   -1.23   0.217  degraded

(attribution skipped: fewer than 30 subjects per sample type)
"""

_PRINTED_REPORT = trial.TrialReport(
    task="fat_pct", boundary=trial.BiasBoundary(), achieved_pearson=-0.61234,
    counts={"train": 6, "id_test": 10, "ood_test": 10, "synthetic": 40},
    classifier_accuracy=0.875,
    rows=[trial.TrialRow("ID", "ID", "real", 10, 1.1824, (1.016, 1.354), 0.0, None, 1.0,
                         "acceptable"),
          trial.TrialRow("OOD", "ID", "real_weighted", 10, 2.5, (1.125, 3.875), None, None,
                         None, "indeterminate"),
          trial.TrialRow("OOD", "OOD", "synthetic_rebias", 126, 3.25, (2.5, 4.0), -1.234,
                         (-2.5, 0.125), 0.2171, "degraded")],
    samples={}, attribution=None,
    attribution_skipped="fewer than 30 subjects per sample type")


def test_print_report_prints_the_table_byte_for_byte(capsys):
    cli.print_report(_PRINTED_REPORT, 0.95)
    assert capsys.readouterr().out == PRINTED_TABLE


def test_ci_header_shows_the_configured_level_in_both_entry_points(tmp_path, capsys,
                                                                   request):
    cfg = tmp_path / "trial.json"
    cfg.write_text(json.dumps(_trial_config(level=0.9)))
    run_vct = _run_vct_script(request)
    for entry, argv in ((main, ["trial", "run", "--config", str(cfg),
                                "--out", str(tmp_path / "cli")]),
                        (run_vct.main, ["--config", str(cfg), "--threads", "1",
                                        "--out", str(tmp_path / "script")])):
        assert entry(argv) == 0
        table = capsys.readouterr().out
        assert "          90% ci " in table and "95% ci" not in table


def test_trial_run_shortcut(tmp_path, capsys):
    cfg = tmp_path / "trial.json"
    cfg.write_text(json.dumps(_trial_config()))
    out = tmp_path / "out"
    assert main(["trial", "run", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert re.search(r"train \|r\(body_volume, fat_pct\)\| = 0\.\d+", stdout)
    report = json.loads((out / "report.json").read_text())
    # the audit table prints one line per report row
    assert _table_verdicts(stdout) == {(r["population"], r["sample_type"]): r["verdict"]
                                       for r in report["rows"]}
    assert len(report["rows"]) == 7
    assert report["counts"] == {"train": 6, "id_test": 10, "ood_test": 10,
                                "synthetic": 40}
    assert abs(report["achieved_pearson"]) > 0.5  # the shortcut is real
    assert (out / "zscores.csv").exists()
    [record] = _run_log_records(out)
    assert sorted(record.pop("written")) == sorted(
        str(p) for p in out.iterdir() if p.name != "run.log")
    assert record == {"stage": "trial run", "task": "fat_pct", "threads": 1, "cohort": None,
                      "subjects": 60, "rows": len(report["rows"])}


def test_trial_run_from_measured_cohort(cohort_dir, tmp_path, capsys):
    # the config of the cohort the files hold, so that an in-memory run of
    # it builds the same subjects and records the same config
    cfg = tmp_path / "trial.json"
    cfg.write_text(json.dumps(_trial_config(
        n_subjects=20, cohort_seed=21, spacing_mm=[5.0, 5.0, 5.0], n_train=2, n_id=3,
        n_ood=3, predictor={"kind": "oracle_noise", "sigma": 0.3})))
    out = tmp_path / "out"
    assert main(["trial", "run", "--config", str(cfg), "--out", str(out),
                 "--cohort", str(cohort_dir)]) == 0
    verdicts = _table_verdicts(capsys.readouterr().out)
    # near-oracle predictions: both populations well under the 2.0 band
    assert (verdicts[("ID", "real")], verdicts[("OOD", "real")]) == ("acceptable",) * 2
    report = json.loads((out / "report.json").read_text())
    assert report["counts"]["train"] == 2
    assert report["verdicts"] == {"ID": "acceptable", "OOD": "acceptable"}
    # subjects counts the measured cohort, not the config's n_subjects
    [record] = _run_log_records(out)
    assert record["cohort"] == str(cohort_dir)
    assert (record["subjects"], record["rows"]) == (20, len(report["rows"]))
    # measured records read back from the files audit as the in-memory ones
    in_memory = tmp_path / "in_memory"
    assert main(["trial", "run", "--config", str(cfg), "--out", str(in_memory)]) == 0
    for name in ("report.json", "zscores.csv"):
        assert (out / name).read_bytes() == (in_memory / name).read_bytes(), name


def test_trial_bad_configs(tmp_path, capsys):
    malformed = tmp_path / "broken.json"
    malformed.write_text("{not json")
    assert main(["trial", "run", "--config", str(malformed),
                 "--out", str(tmp_path / "o1")]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"n_subjectz": 10}))
    assert main(["trial", "run", "--config", str(unknown),
                 "--out", str(tmp_path / "o2")]) == 2
    for bad in ({"distribution": {"height_mean": 5}}, {"predictor": "shortcut_linear"}):
        unknown.write_text(json.dumps(bad))
        assert main(["trial", "run", "--config", str(unknown),
                     "--out", str(tmp_path / "o3")]) == 2, bad
    capsys.readouterr()
    for bad, message in (
            ({"predictor": {"kind": "external"}},
             "predictor.path is required for kind 'external'"),
            ({"predictor": {"kind": "oracle_noise", "sigmaa": 3.0}},
             "unknown predictor keys: ['sigmaa']"),
            ({"predictor": {"kind": "oracle_noise", "sigma": float("inf")}},
             "predictor.sigma must be a finite number, got inf")):
        unknown.write_text(json.dumps(bad))
        assert main(["trial", "run", "--config", str(unknown),
                     "--out", str(tmp_path / "o4")]) == 2, bad
        assert capsys.readouterr().err == f"error: {unknown}: {message}\n"
    assert not (tmp_path / "o4" / "report.json").exists()


def test_trial_bad_spacing_exits_2_naming_the_config_before_any_output(tmp_path, capsys):
    # refused as the config is read, not by the first phantom it would build
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(_trial_config(spacing_mm=[10, 10, 10])))
    assert main(["trial", "run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}: spacing_mm components must lie in [0.4, 8], got (10.0, 10.0, 10.0)\n")
    assert not (tmp_path / "o").exists()


def _run_vct_script(request):
    script = request.config.rootpath / "scripts" / "run_vct.py"
    spec = importlib.util.spec_from_file_location("run_vct", script)
    run_vct = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_vct)
    return run_vct


def test_run_vct_script_bad_config(tmp_path, capsys, request):
    run_vct = _run_vct_script(request)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_subjectz": 1}))
    assert run_vct.main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {bad}: unknown trial config keys: ['n_subjectz']\n"
    assert not (tmp_path / "o").exists()
    bad.write_text(json.dumps({"predictor": {"kind": "mlp"}}))
    assert run_vct.main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "unknown predictor kind 'mlp'" in err
    # decodes, but fails once the trial starts: still exit 2, not a traceback
    preds = tmp_path / "preds.csv"
    preds.write_text("id,pred\ns000,24.5\n")
    bad.write_text(json.dumps({"predictor": {"kind": "external", "path": str(preds)}}))
    assert run_vct.main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {preds}: must have header subject_id,prediction\n"
    assert not (tmp_path / "o").exists()
    # a boundary side too small for the split names the knobs and the boundary
    bad.write_text(json.dumps({"n_subjects": 8, "spacing_mm": [8.0, 8.0, 8.0],
                               "n_train": 10, "n_id": 10}))
    assert run_vct.main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: insufficient subjects on the id side: need n_train \+ n_id"
                        r" = 20, have \d of n_subjects = 8; boundary slope=-0\.2,"
                        r" intercept=58\.3\n", err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config, key", [
    ({"boundary": {"y_feature": "fat_pct"}}, "unknown boundary keys: ['y_feature']"),
    ({"boundary": {"id_side": "below"}}, "unknown boundary keys: ['id_side']"),
    ({"predictor": {"kind": "oracle_noise", "seed": 5}}, "unknown predictor keys: ['seed']"),
])
def test_removed_trial_keys_exit_2_in_both_entry_points(tmp_path, capsys, request,
                                                        config, key):
    # the boundary is one line with the ID side above it, and oracle noise
    # draws from trial_seed: none of these is a key any more
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    run_vct = _run_vct_script(request)
    for entry, argv in ((main, ["trial", "run", "--config", str(bad),
                                "--out", str(tmp_path / "o")]),
                        (run_vct.main, ["--config", str(bad), "--out", str(tmp_path / "s")])):
        assert entry(argv) == 2
        assert capsys.readouterr().err == f"error: {bad}: {key}\n"
    assert not (tmp_path / "o").exists() and not (tmp_path / "s").exists()


# one sex only: the sex column is constant, so its correlations are undefined
ONE_SEX_TRIAL = {"n_subjects": 120, "spacing_mm": [8, 8, 8], "n_train": 4, "n_id": 16,
                 "n_ood": 16, "n_boot": 200, "z_boot": 100,
                 "distribution": {"p_female": 0.0}}


def _strict_json(path):
    def refuse(token):
        raise AssertionError(f"{path} holds the non-JSON token {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_trial_entry_points_print_one_table_and_write_strict_json(tmp_path, capsys, request):
    cfg = tmp_path / "trial.json"
    cfg.write_text(json.dumps(ONE_SEX_TRIAL))
    with pytest.warns(UserWarning, match="constant attribute column 'sex'"):
        assert main(["trial", "run", "--config", str(cfg), "--out", str(tmp_path / "cli")]) == 0
    table = capsys.readouterr().out
    run_vct = _run_vct_script(request)
    with pytest.warns(UserWarning, match="constant attribute column 'sex'"):
        assert run_vct.main(["--config", str(cfg), "--threads", "1",
                             "--out", str(tmp_path / "script")]) == 0
    # the script prints the same table, then its elapsed time and the written paths
    script = capsys.readouterr().out
    assert script.startswith(table)
    assert re.fullmatch(r"\n\d+\.\d s; wrote:\n(  \S+\n){4}", script[len(table):])
    assert "error attribution (forest importances):" in table
    for out in ("cli", "script"):
        report = _strict_json(tmp_path / out / "report.json")
        assert report["attribution"]["correlations"]["sex"] == {
            "real": None, "synthetic": None, "p_value": None}
        with open(tmp_path / out / "bias_corr.csv", newline="") as fh:
            sex = next(row for row in csv.DictReader(fh) if row["attribute"] == "sex")
        assert sex == {"attribute": "sex", "r_real": "", "r_synthetic": "", "p_value": ""}
    assert ((tmp_path / "cli" / "report.json").read_bytes()
            == (tmp_path / "script" / "report.json").read_bytes())


@pytest.mark.parametrize("knob", ["n_boot", "z_boot"])
def test_zero_resamples_exit_2_before_any_phantom(tmp_path, capsys, request, monkeypatch,
                                                  knob):
    def no_phantom(*args, **kwargs):
        raise AssertionError("a phantom was built")

    monkeypatch.setattr(trial, "generate_phantom", no_phantom)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_subjects": 60, "spacing_mm": [6.0, 6.0, 6.0], knob: 0}))
    assert main(["trial", "run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert f"{knob} must be at least 1, got 0" in capsys.readouterr().err
    run_vct = _run_vct_script(request)
    assert run_vct.main(["--config", str(config), "--out", str(tmp_path / "s")]) == 2
    assert f"{knob} must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists() and not (tmp_path / "s").exists()


def _open_paths() -> set[str]:
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd")
    paths = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            paths.add(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:  # the listing's own descriptor, closed by now
            pass
    return paths


def test_main_closes_run_log_when_it_returns(tmp_path):
    cohort = tmp_path / "c"
    for _ in range(3):
        assert main(["phantom", "gen", "--n", "1", "--seed", "3", "--out", str(cohort),
                     "--spacing", SPACING]) == 0
        assert os.path.realpath(cohort / "run.log") not in _open_paths()
    assert [r["stage"] for r in _run_log_records(cohort)] == ["phantom gen"] * 3
    # no measurements/ under the cohort: exit 3 once the trial starts loading
    # it, and the failed trial leaves no directory, not even a run.log
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_subjects": 2}))
    failed = tmp_path / "t"
    assert main(["trial", "run", "--config", str(config), "--out", str(failed),
                 "--cohort", str(cohort)]) == 3
    assert not failed.exists()


def test_run_vct_quick_records_why_attribution_is_skipped(tmp_path, capsys, request):
    run_vct = _run_vct_script(request)
    out = tmp_path / "quick"
    with pytest.warns(UserWarning, match="attribution skipped"):
        assert run_vct.main(["--quick", "--threads", "1", "--out", str(out)]) == 0
    reason = "sample type 'real' has 20 subjects; need at least 30"
    report = json.loads((out / "report.json").read_text())
    assert report["attribution"] is None
    assert report["attribution_skipped"] == reason
    assert not (out / "bias_corr.csv").exists()
    assert f"(attribution skipped: {reason})" in capsys.readouterr().out
    assert os.path.realpath(out / "run.log") not in _open_paths()
    [record] = _run_log_records(out)
    assert record.pop("written") == [str(out / "report.json"), str(out / "zscores.csv")]
    assert record == {"stage": "trial run", "task": "fat_pct", "threads": 1, "cohort": None,
                      "subjects": 60, "rows": len(report["rows"])}


def test_trial_run_without_config_runs_the_headline_config(tmp_path, capsys, monkeypatch):
    seen = []

    def record(config, **kwargs):
        seen.append(config)
        raise ValueError("stop before any phantom")

    monkeypatch.setattr(cli, "run_full_vct", record)
    assert main(["trial", "run", "--out", str(tmp_path / "o")]) == 2
    assert seen == [trial.TrialConfig()]
    assert capsys.readouterr().err == "error: stop before any phantom\n"
    assert not (tmp_path / "o").exists()


def test_missing_trial_config_exits_3_in_both_entry_points(tmp_path, capsys, request):
    missing = str(tmp_path / "nonexistent.json")
    assert main(["trial", "run", "--config", missing, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("i/o error: ")
    run_vct = _run_vct_script(request)
    assert run_vct.main(["--config", missing, "--out", str(tmp_path / "s")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "nonexistent.json" in err
    assert not (tmp_path / "o").exists() and not (tmp_path / "s").exists()


def test_out_that_is_a_file_exits_3_before_any_phantom(tmp_path, capsys, request,
                                                        monkeypatch):
    def no_phantom(*args, **kwargs):
        raise AssertionError("a phantom was built")

    monkeypatch.setattr(trial, "generate_phantom", no_phantom)
    cfg = tmp_path / "trial.json"
    cfg.write_text(json.dumps(_trial_config()))
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    run_vct = _run_vct_script(request)
    for entry, argv in ((main, ["trial", "run", "--config", str(cfg), "--out", str(taken)]),
                        (run_vct.main, ["--config", str(cfg), "--out", str(taken)])):
        assert entry(argv) == 3
        assert capsys.readouterr().err == f"i/o error: output path {taken} is not a directory\n"
        assert taken.read_text() == "not a directory\n"


def test_run_vct_quick_and_config_exclude_each_other(tmp_path, capsys, request):
    run_vct = _run_vct_script(request)
    cfg = tmp_path / "trial.json"
    cfg.write_text(json.dumps(_trial_config()))
    with pytest.raises(SystemExit) as exc:
        run_vct.main(["--quick", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _corrupt_cohort(cohort_dir, dest, subject, field, value):
    """Copy of a measured cohort with one key of one subject's record changed.

    ``field`` is "<record>.<key>" with record "truth", "attributes" or
    "subject" (the subject's manifest entry), "manifest" (its top level; no
    subject) or "measurement"; ``value`` None deletes the key.  A bare
    "manifest" or "measurement" replaces that whole file with the text ``value``.
    """
    shutil.copytree(cohort_dir / "measurements", dest / "measurements")
    shutil.copy(cohort_dir / "manifest.json", dest / "manifest.json")
    record, _, key = field.partition(".")
    if record == "measurement":
        path = dest / "measurements" / f"{subject}.json"
    else:
        path = dest / "manifest.json"
    if not key:
        path.write_text(value)
        return dest
    payload = json.loads(path.read_text())
    if record in ("measurement", "manifest"):
        target = payload
    else:
        target = next(s for s in payload["subjects"] if s["id"] == subject)
        target = target if record == "subject" else target[record]
    if value is None:
        del target[key]
    else:
        target[key] = value
    path.write_text(json.dumps(payload))
    return dest


@pytest.mark.parametrize("subject, field, value, message", [
    ("subj_0000", "truth.fat_pct", None,
     "error: {manifest}: subjects[0].truth is missing keys: ['fat_pct']"),
    ("subj_0003", "attributes.age_years", "old",
     "error: {manifest}: subjects[3].attributes.age_years must be float, got 'old'"),
    ("subj_0005", "truth.landmarks", {"c7": [1.0, 2.0]},
     "error: {manifest}: subjects[5].truth.landmarks.c7 must be a list of 3 numbers"),
    ("subj_0003", "subject.id", None,
     "error: {manifest}: subjects[3] is missing keys: ['id']"),
    (None, "manifest.seed", None,
     "error: {manifest}: cohort manifest is missing keys: ['seed']"),
    (None, "manifest.spacing_mm", [4.0, 4.0],
     "error: {manifest}: spacing_mm must be a list of 3 numbers"),
    (None, "manifest.subjects", None,
     "error: {manifest}: cohort manifest is missing keys: ['subjects']"),
    (None, "manifest.subjects", {"subj_0000": {}},
     "error: {manifest}: subjects must be a list, got dict"),
    (None, "manifest", '{"seed": ',
     "error: {manifest}: malformed JSON: Expecting value: line 1 column 10"),
    ("subj_0003", "attributes.age_years", float("inf"),
     "error: {manifest}: subjects[3].attributes.age_years must be a finite number, "
     "got inf"),
    ("subj_0001", "subject.colour", "red",
     "error: {manifest}: unknown subjects[1] keys: ['colour']"),
    ("subj_0002", "subject.truth", {},
     "error: {manifest}: subjects[2].truth is missing keys: ['body_mass_g', "),
    # json reads a 400-digit literal as an int, which no float can hold
    pytest.param("subj_0000", "attributes.age_years", 10 ** 400,
                 "error: {manifest}: subjects[0].attributes.age_years must be a "
                 f"finite number, got {10 ** 400}", id="age-beyond-float-range"),
])
def test_bad_manifest_exits_2_naming_subject_and_key(cohort_dir, tmp_path, capsys,
                                                     subject, field, value, message):
    cohort = _corrupt_cohort(cohort_dir, tmp_path / "cohort", subject, field, value)
    message = message.format(manifest=cohort / "manifest.json")
    assert main(["measure", "--manifest", str(cohort / "manifest.json"),
                 "--out", str(tmp_path / "measured")]) == 2
    assert message in capsys.readouterr().err
    cfg = tmp_path / "trial.json"
    cfg.write_text(json.dumps(_trial_config()))
    assert main(["trial", "run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--cohort", str(cohort)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("measurement.fat_pct", None, "composition report is missing keys: ['fat_pct']"),
    ("measurement.bone_density_hu", "dense", "bone_density_hu must be float"),
    ("measurement.height", {"per_leg": {}}, "height is missing keys: ['head_mm', "),
    ("measurement", "{not json", "{path}: malformed JSON: Expecting property name"),
])
def test_bad_measurement_exits_2_naming_subject_and_key(cohort_dir, tmp_path, capsys,
                                                        field, value, message):
    cohort = _corrupt_cohort(cohort_dir, tmp_path / "cohort", "subj_0002", field, value)
    path = cohort / "measurements" / "subj_0002.json"
    message = message.format(path=path)
    cfg = tmp_path / "trial.json"
    cfg.write_text(json.dumps(_trial_config()))
    assert main(["trial", "run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--cohort", str(cohort)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err


def test_trial_missing_cohort_measurements(tmp_path):
    cohort = tmp_path / "cohort"
    assert main(["phantom", "gen", "--n", "2", "--seed", "3",
                 "--out", str(cohort), "--spacing", SPACING]) == 0
    cfg = tmp_path / "trial.json"
    cfg.write_text(json.dumps(_trial_config()))
    # manifest present but measurements/ never created -> i/o error
    assert main(["trial", "run", "--config", str(cfg),
                 "--out", str(tmp_path / "out"),
                 "--cohort", str(cohort)]) == 3


def test_failed_remeasure_removes_the_subjects_earlier_measurement(tmp_path, capsys):
    cohort = tmp_path / "cohort"
    assert main(["phantom", "gen", "--n", "3", "--seed", "3",
                 "--out", str(cohort), "--spacing", "8,8,8"]) == 0
    measure = ["measure", "--manifest", str(cohort / "manifest.json"), "--out", str(cohort)]
    assert main(measure) == 0
    raw = cohort / "subj_0001_tissue.raw"
    raw.write_bytes(raw.read_bytes()[:100])
    assert main(measure) == 1
    with open(cohort / "measurements.csv", newline="") as fh:
        assert [row["subject_id"] for row in csv.DictReader(fh)] == ["subj_0000", "subj_0002"]
    # the measurement of the old map is gone, so a trial on the cohort
    # refuses the subject instead of reading it as current
    assert not (cohort / "measurements" / "subj_0001.json").exists()
    cfg = tmp_path / "trial.json"
    cfg.write_text(json.dumps(_trial_config()))
    capsys.readouterr()
    assert main(["trial", "run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--cohort", str(cohort)]) == 3
    assert "no measurement for subject 'subj_0001'" in capsys.readouterr().err


def test_remeasure_without_a_subject_removes_its_earlier_measurement(tmp_path):
    cohort = tmp_path / "cohort"
    assert main(["phantom", "gen", "--n", "3", "--seed", "3",
                 "--out", str(cohort), "--spacing", "8,8,8"]) == 0
    assert main(["measure", "--manifest", str(cohort / "manifest.json"),
                 "--out", str(cohort)]) == 0
    payload = json.loads((cohort / "manifest.json").read_text())
    payload["subjects"] = payload["subjects"][:2]
    (cohort / "first_two.json").write_text(json.dumps(payload))
    assert main(["measure", "--manifest", str(cohort / "first_two.json"),
                 "--out", str(cohort)]) == 0
    assert sorted(p.name for p in (cohort / "measurements").iterdir()) == [
        "subj_0000.json", "subj_0001.json"]


# --- consistency ------------------------------------------------------------


def test_consistency_self_paired(cohort_dir, tmp_path):
    out = tmp_path / "cons"
    assert main(["consistency", "--a", str(cohort_dir / "manifest.json"),
                 "--b", str(cohort_dir / "manifest.json"),
                 "--out", str(out), "--paired"]) == 0
    with open(out / "consistency.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[-1]["class"] == "Average"
    assert len(rows) > 3
    for row in rows:
        for col in ("dice_mean", "volume_corr", "centroid_R", "centroid_A",
                    "centroid_S"):
            if row[col]:
                assert float(row[col]) == pytest.approx(1.0), (row["class"], col)
        if row["dice_std"]:
            assert float(row["dice_std"]) == pytest.approx(0.0)


def test_consistency_b_in_reversed_order_is_byte_identical(cohort_dir, tmp_path):
    # B lists the same subjects backwards: pairs still match by id, and B's
    # measurements go in B's order, so the table's bytes do not move
    payload = json.loads((cohort_dir / "manifest.json").read_text())
    payload["subjects"].reverse()
    reversed_b = cohort_dir / "manifest_reversed.json"
    reversed_b.write_text(json.dumps(payload))
    try:
        for mode in ("--paired", "--cohort"):
            texts = []
            for b in (cohort_dir / "manifest.json", reversed_b):
                out = tmp_path / f"{mode[2:]}_{b.stem}"
                assert main(["consistency", "--a", str(cohort_dir / "manifest.json"),
                             "--b", str(b), "--out", str(out), mode]) == 0
                texts.append((out / "consistency.csv").read_bytes())
            assert texts[0] == texts[1], mode
    finally:
        reversed_b.unlink()


def _run_log_records(out) -> list[dict]:
    """run.log's records, one a line.  Each must be a JSON object with sorted
    keys, a stage, a UTC ISO-8601 time and a positive wall_s; it is returned
    without the time and wall_s."""
    records = []
    for line in (out / "run.log").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        assert list(record) == sorted(record)
        assert isinstance(record["stage"], str)
        assert datetime.fromisoformat(record.pop("time")).utcoffset() == timedelta(0)
        assert record.pop("wall_s") > 0
        records.append(record)
    return records


def test_gen_and_measure_log_stage_lines(tmp_path, capsys):
    cohort = tmp_path / "c"
    assert main(["phantom", "gen", "--n", "2", "--seed", "3", "--out", str(cohort),
                 "--spacing", SPACING, "--threads", "2"]) == 0
    assert _run_log_records(cohort) == [{"stage": "phantom gen", "n": 2, "seed": 3,
                                         "spacing_mm": [5.0, 5.0, 5.0], "threads": 2,
                                         "subjects": 2}]
    # a missing image fails its subject only; the record names it and its
    # error, which stderr shows too
    missing = _manifest(cohort / "manifest.json").subjects[1]
    (cohort / missing.image).unlink()
    capsys.readouterr()
    out = tmp_path / "m"
    assert main(["measure", "--manifest", str(cohort / "manifest.json"),
                 "--out", str(out)]) == 1
    [record] = _run_log_records(out)
    message = record["errors"][missing.id]
    assert str(cohort / missing.image) in message
    assert record == {"stage": "measure", "subjects": 2, "failed": 1,
                      "errors": {missing.id: message}}
    assert f"measure failed for subject {missing.id}: {message}\n" in capsys.readouterr().err
    # a command that fails as a whole appends nothing
    assert main(["measure", "--manifest", str(tmp_path / "none.json"),
                 "--out", str(out)]) == 3
    assert len(_run_log_records(out)) == 1


def test_gen_failing_part_way_appends_nothing(tmp_path, monkeypatch):
    cohort = tmp_path / "c"
    argv = ["phantom", "gen", "--n", "3", "--seed", "3", "--out", str(cohort),
            "--spacing", SPACING]
    assert main(argv) == 0
    real = phantom.generate_phantom
    built = []

    def fail_second(spec):
        built.append(spec)
        if len(built) == 2:
            raise OSError("disk full")
        return real(spec)

    monkeypatch.setattr(phantom, "generate_phantom", fail_second)
    assert main(argv) == 3
    assert len(built) == 2
    assert len(_run_log_records(cohort)) == 1


@pytest.mark.parametrize("value", ["0", "-1"])
def test_threads_below_one_exits_2_naming_the_flag(tmp_path, capsys, request, value):
    manifest = str(tmp_path / "manifest.json")
    out = str(tmp_path / "o")
    run_vct = _run_vct_script(request)
    for entry, argv in (
            (main, ["phantom", "gen", "--n", "1", "--seed", "1", "--out", out]),
            (main, ["measure", "--manifest", manifest, "--out", out]),
            (main, ["trial", "run", "--out", out]),
            (main, ["consistency", "--a", manifest, "--b", manifest, "--out", out,
                    "--paired"]),
            (run_vct.main, ["--quick", "--out", out])):
        with pytest.raises(SystemExit) as info:
            entry([*argv, "--threads", value])
        assert info.value.code == 2
        assert f"argument --threads: must be at least 1, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_consistency_paired_loads_each_map_once(tmp_path, monkeypatch):
    cohort = tmp_path / "c"
    assert main(["phantom", "gen", "--n", "2", "--seed", "3", "--out", str(cohort),
                 "--spacing", SPACING]) == 0
    loaded, indexed = [], []
    real_load = cli.load_labelmap
    monkeypatch.setattr(cli, "load_labelmap",
                        lambda path, kind=None: loaded.append(kind) or real_load(path, kind))
    real_index = LabelIndex.__init__
    monkeypatch.setattr(LabelIndex, "__init__",
                        lambda self, labelmap: indexed.append(labelmap.kind)
                        or real_index(self, labelmap))
    manifest = str(cohort / "manifest.json")
    out = tmp_path / "o"
    with pytest.warns(UserWarning, match="fewer than 3 samples"):
        assert main(["consistency", "--a", manifest, "--b", manifest,
                     "--out", str(out), "--paired"]) == 0
    # tissue and structure map of each subject, once for A and once for B
    assert sorted(loaded) == ["structure"] * 4 + ["tissue"] * 4
    # one index per structure map, shared by the measurements and Dice
    assert indexed == ["structure"] * 4
    assert _run_log_records(out) == [{
        "stage": "consistency", "mode": "paired", "subjects_a": 2, "subjects_b": 2,
        "maps_loaded": len(loaded), "indexes_built": len(indexed)}]
    # a run that fails appends nothing
    assert main(["consistency", "--a", manifest, "--b", str(tmp_path / "none.json"),
                 "--out", str(out), "--paired"]) == 3
    assert len(_run_log_records(out)) == 1
    # cohort mode indexes each cohort's subjects once too, and logs as much
    loaded.clear()
    indexed.clear()
    out = tmp_path / "o_cohort"
    with pytest.warns(UserWarning, match="fewer than 3 samples"):
        assert main(["consistency", "--a", manifest, "--b", manifest,
                     "--out", str(out), "--cohort"]) == 0
    assert indexed == ["structure"] * 4
    [record] = _run_log_records(out)
    assert (record["mode"], record["maps_loaded"], record["indexes_built"]) == (
        "cohort", len(loaded), len(indexed))


@pytest.fixture(scope="module")
def seed5_cohort(tmp_path_factory):
    """The 4-subject seed-5 cohort whose output bytes are pinned; read-only."""
    root = tmp_path_factory.mktemp("seed5")
    assert main(["phantom", "gen", "--n", "4", "--seed", "5", "--out", str(root),
                 "--spacing", SPACING]) == 0
    return root


def test_measure_pins_bytes(seed5_cohort, tmp_path):
    # heights go through every LabelIndex answer (boxes, masks, femur voxel
    # indices), and elsewhere are checked only approximately
    assert main(["measure", "--manifest", str(seed5_cohort / "manifest.json"),
                 "--out", str(tmp_path)]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in MEASURED_SHA256} == MEASURED_SHA256
    assert len(list((tmp_path / "measurements").iterdir())) == len(MEASURED_SHA256) - 1


def test_consistency_paired_shifted_cohort_pins_bytes(seed5_cohort, tmp_path):
    # B holds A's structure maps moved one voxel superior, so every Dice is
    # below 1 and every overlap count matters to the pinned bytes
    a, b = seed5_cohort, tmp_path / "b"
    shutil.copytree(a, b)
    for record in _manifest(a / "manifest.json").subjects:
        structures = load_labelmap(a / record.structure, "structure")
        shifted = np.zeros_like(structures.data)
        shifted[:, :, 1:] = structures.data[:, :, :-1]
        save_labelmap(replace(structures, data=shifted), b / record.structure)
    out = tmp_path / "o"
    assert main(["consistency", "--a", str(a / "manifest.json"),
                 "--b", str(b / "manifest.json"), "--out", str(out), "--paired"]) == 0
    with open(out / "consistency.csv", newline="") as fh:
        dice = [float(row["dice_mean"]) for row in csv.DictReader(fh) if row["dice_mean"]]
    assert dice and max(dice) < 1.0
    digest = hashlib.sha256((out / "consistency.csv").read_bytes()).hexdigest()
    assert digest == SHIFTED_PAIRED_SHA256


def test_consistency_paired_id_mismatch(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["phantom", "gen", "--n", "2", "--seed", "1", "--out", str(a),
                 "--spacing", SPACING]) == 0
    assert main(["phantom", "gen", "--n", "3", "--seed", "1", "--out", str(b),
                 "--spacing", SPACING]) == 0
    assert main(["consistency", "--a", str(a / "manifest.json"),
                 "--b", str(b / "manifest.json"),
                 "--out", str(tmp_path / "o"), "--paired"]) == 2


def test_swapped_tissue_and_structure_maps_are_rejected(tmp_path, capsys):
    cohort = tmp_path / "cohort"
    assert main(["phantom", "gen", "--n", "3", "--seed", "4",
                 "--out", str(cohort), "--spacing", "8,8,8"]) == 0
    payload = json.loads((cohort / "manifest.json").read_text())
    for s in payload["subjects"]:
        s["tissue"], s["structure"] = s["structure"], s["tissue"]
    swapped = cohort / "swapped.json"
    swapped.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["consistency", "--a", str(swapped), "--b", str(cohort / "manifest.json"),
                 "--out", str(tmp_path / "cons"), "--cohort"]) == 2
    # the first subject's tissue path names its structure map
    first = cohort / payload["subjects"][0]["tissue"]
    assert capsys.readouterr().err == (
        f"error: {first}: expected kind 'tissue', got 'structure'\n")
    assert not (tmp_path / "cons" / "consistency.csv").exists()
    assert main(["measure", "--manifest", str(swapped),
                 "--out", str(tmp_path / "measured")]) == 1
    assert capsys.readouterr().err == "".join(
        f"measure failed for subject {s['id']}: {cohort / s['tissue']}: "
        "expected kind 'tissue', got 'structure'\n" for s in payload["subjects"])


def _cohort_missing_map_paths(tmp_path, keys):
    """A 3-subject cohort and a copy of its manifest whose subj_0001 lacks ``keys``."""
    cohort = tmp_path / "cohort"
    assert main(["phantom", "gen", "--n", "3", "--seed", "4",
                 "--out", str(cohort), "--spacing", "8,8,8"]) == 0
    payload = json.loads((cohort / "manifest.json").read_text())
    for key in keys:
        del payload["subjects"][1][key]
    stripped = cohort / "stripped.json"
    stripped.write_text(json.dumps(payload))
    return cohort, stripped


@pytest.mark.parametrize("keys, missing", [(("tissue", "structure"), "tissue"),
                                           (("structure",), "structure")])
def test_consistency_missing_map_path_exits_2_naming_subject_and_key(tmp_path, capsys,
                                                                      keys, missing):
    cohort, stripped = _cohort_missing_map_paths(tmp_path, keys)
    capsys.readouterr()
    assert main(["consistency", "--a", str(cohort / "manifest.json"), "--b", str(stripped),
                 "--out", str(tmp_path / "cons"), "--paired"]) == 2
    assert capsys.readouterr().err == (
        f"error: subject 'subj_0001' has no '{missing}' path in the manifest\n")
    assert not (tmp_path / "cons").exists()


@pytest.fixture(scope="module")
def one_subject_cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("one_subject")
    assert main(["phantom", "gen", "--n", "1", "--seed", "4",
                 "--out", str(root), "--spacing", "8,8,8"]) == 0
    return root


@pytest.mark.parametrize("mode", ["--paired", "--cohort"])
@pytest.mark.parametrize("edit, message", [
    ({"dims": 5}, "dims must be a list of 3 numbers, got 5"),
    ({"spacing_mm": "abc"}, "spacing_mm must be a list of 3 numbers, got 'abc'"),
    ({"origin_mm": None}, "origin_mm must be a list of 3 numbers, got None"),
    ({"data_file": 3}, "data_file must be str, got 3"),
    ({"dtype": ["uint8"]}, "dtype must be str, got ['uint8']"),
    ({"class_table": [1, 2]}, "class_table must be a JSON object, got [1, 2]"),
    ({"extra": 1}, "unknown ctv header keys: ['extra']"),
    # the payload sits beside its header: data_file is a plain file name
    ({"data_file": ""}, "data_file must be a plain file name, got ''"),
    ({"data_file": "."}, "data_file must be a plain file name, got '.'"),
    ({"data_file": ".."}, "data_file must be a plain file name, got '..'"),
    ({"data_file": "a/b"}, "data_file must be a plain file name, got 'a/b'"),
    ({"data_file": "/etc/passwd"}, "data_file must be a plain file name, got '/etc/passwd'"),
])
def test_consistency_malformed_map_header_exits_2_naming_file_and_field(
        one_subject_cohort, tmp_path, capsys, mode, edit, message):
    cohort = tmp_path / "cohort"
    shutil.copytree(one_subject_cohort, cohort)
    header_path = cohort / _manifest(cohort / "manifest.json").subjects[0].tissue
    header_path.write_text(json.dumps({**json.loads(header_path.read_text()), **edit}))
    capsys.readouterr()
    manifest = str(cohort / "manifest.json")
    assert main(["consistency", "--a", manifest, "--b", manifest,
                 "--out", str(tmp_path / "cons"), mode]) == 2
    assert capsys.readouterr().err == f"error: {header_path}: {message}\n"
    assert not (tmp_path / "cons").exists()


@pytest.mark.parametrize("value, message", [
    (None, "ctv header is missing keys: ['payload_order']"),
    ("x_fastest", "payload_order must be 'z_fastest', got 'x_fastest'"),
], ids=["missing", "x_fastest"])
def test_map_header_without_the_z_fastest_payload_order_is_refused(
        one_subject_cohort, tmp_path, capsys, value, message):
    # a header written before the payload order was stated is refused, not
    # read transposed: `consistency` exits 2 and `measure` fails the subject
    cohort = tmp_path / "cohort"
    shutil.copytree(one_subject_cohort, cohort)
    manifest = str(cohort / "manifest.json")
    record = _manifest(manifest).subjects[0]
    header_path = cohort / record.structure
    header = json.loads(header_path.read_text())
    if value is None:
        del header["payload_order"]
    else:
        header["payload_order"] = value
    header_path.write_text(json.dumps(header))
    capsys.readouterr()
    assert main(["consistency", "--a", manifest, "--b", manifest,
                 "--out", str(tmp_path / "cons"), "--paired"]) == 2
    assert capsys.readouterr().err == f"error: {header_path}: {message}\n"
    assert not (tmp_path / "cons").exists()
    assert main(["measure", "--manifest", manifest, "--out", str(tmp_path / "m")]) == 1
    assert capsys.readouterr().err == (
        f"measure failed for subject {record.id}: {header_path}: {message}\n")
    assert not list((tmp_path / "m" / "measurements").iterdir())


@pytest.mark.parametrize("case, code", [
    ("gen config", 2), ("trial config", 2), ("script trial config", 2), ("manifest", 2),
    ("measurement", 2), ("ctv header", 2), ("payload under consistency", 2),
    ("payload under measure", 1), ("kind swap", 2), ("truncated nifti", 1)])
def test_a_bad_input_file_is_named_once_after_the_lead(one_subject_cohort, tmp_path, capsys,
                                                      request, case, code):
    # each case breaks one file; its error starts with that file's path, once,
    # right after "error: " or, for a subject that `vct measure` fails alone,
    # after "measure failed for subject <id>: "
    cohort = tmp_path / "cohort"
    shutil.copytree(one_subject_cohort, cohort)
    manifest = cohort / "manifest.json"
    payload = json.loads(manifest.read_text())
    record = _manifest(manifest).subjects[0]
    out = str(tmp_path / "o")
    measure = ["measure", "--manifest", str(manifest), "--out", out]
    consistency = ["consistency", "--a", str(manifest), "--b", str(manifest), "--out", out,
                   "--paired"]
    entry = main
    if case == "gen config":
        bad = tmp_path / "gen.json"
        bad.write_text(json.dumps({"n": 2, "seed": 1, "distribution": {"p_femal": 0.5}}))
        argv = ["phantom", "gen", "--config", str(bad), "--out", out]
    elif case.endswith("trial config"):
        bad = tmp_path / "trial.json"
        bad.write_text(json.dumps({"n_subjectz": 10}))
        argv = ["trial", "run", "--config", str(bad), "--out", out]
        if case.startswith("script"):
            entry, argv = _run_vct_script(request).main, argv[2:]
    elif case == "manifest":
        bad = manifest
        bad.write_text(json.dumps({**payload, "seed": "7"}))
        argv = measure
    elif case == "measurement":
        bad = cohort / "measurements" / f"{record.id}.json"
        bad.parent.mkdir()
        bad.write_text("{not json")
        argv = ["trial", "run", "--cohort", str(cohort), "--out", out]
    elif case == "ctv header":
        bad = cohort / record.tissue
        bad.write_text(json.dumps({**json.loads(bad.read_text()), "extra": 1}))
        argv = consistency
    elif case.startswith("payload"):
        under_measure = case.endswith("measure")
        bad = cohort / (record.image if under_measure else record.structure)
        raw = bad.with_name(json.loads(bad.read_text())["data_file"])
        raw.write_bytes(raw.read_bytes()[:100])
        argv = measure if under_measure else consistency
    else:  # the tissue path names the structure map, or a truncated NIfTI file
        bad = cohort / (record.structure if case == "kind swap" else "tissue.nii")
        if case != "kind swap":
            bad.write_bytes(bytes(100))
        payload["subjects"][0]["tissue"] = bad.name
        manifest.write_text(json.dumps(payload))
        argv = consistency if case == "kind swap" else measure
    lead = "error: " if code == 2 else f"measure failed for subject {record.id}: "
    capsys.readouterr()
    assert entry(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{lead}{bad}: ") and err.count(str(bad)) == 1, err


def test_measure_missing_map_path_fails_only_that_subject(tmp_path, capsys):
    _, stripped = _cohort_missing_map_paths(tmp_path, ("tissue", "structure"))
    capsys.readouterr()
    assert main(["measure", "--manifest", str(stripped),
                 "--out", str(tmp_path / "measured")]) == 1
    assert capsys.readouterr().err == ("measure failed for subject subj_0001: "
                                       "subject 'subj_0001' has no 'tissue' path "
                                       "in the manifest\n")
    with open(tmp_path / "measured" / "measurements.csv", newline="") as fh:
        assert [r["subject_id"] for r in csv.DictReader(fh)] == ["subj_0000", "subj_0002"]


def test_measure_nan_voxel_fails_that_subject(one_subject_cohort, tmp_path, capsys):
    cohort = tmp_path / "cohort"
    shutil.copytree(one_subject_cohort, cohort)
    record = _manifest(cohort / "manifest.json").subjects[0]
    image = load_volume(cohort / record.image)
    tissue = load_labelmap(cohort / record.tissue, "tissue")
    data = image.data.astype(np.float32)
    data[tuple(np.argwhere(tissue.body_mask())[0])] = np.nan
    save_volume(Volume(image.grid, data), cohort / record.image)
    capsys.readouterr()
    assert main(["measure", "--manifest", str(cohort / "manifest.json"),
                 "--out", str(tmp_path / "m")]) == 1
    assert capsys.readouterr().err == (
        f"measure failed for subject {record.id}: "
        "body mass is nan: the image holds a non-finite HU value\n")
    assert not list((tmp_path / "m" / "measurements").iterdir())


def test_measure_propagates_a_program_fault(one_subject_cohort, tmp_path, monkeypatch):
    # only bad input (ValueError, OSError) fails one subject; any other
    # exception is a fault in the program and keeps its traceback
    def fault(*args, **kwargs):
        raise RuntimeError("a fault in the program")

    monkeypatch.setattr(cli, "measure_height", fault)
    with pytest.raises(RuntimeError, match="a fault in the program"):
        main(["measure", "--manifest", str(one_subject_cohort / "manifest.json"),
              "--out", str(tmp_path / "m")])


def test_consistency_cohort_mode(cohort_dir, tmp_path):
    out = tmp_path / "cons2"
    assert main(["consistency", "--a", str(cohort_dir / "manifest.json"),
                 "--b", str(cohort_dir / "manifest.json"),
                 "--out", str(out), "--cohort"]) == 0
    text = (out / "consistency.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("class,")
    # unpaired mode: dice columns stay empty
    assert all(line.split(",")[1] == "" for line in lines[1:])


def test_consistency_paired_and_cohort_agree_off_dice(tmp_path):
    # B holds A's structure maps moved one voxel superior, so the two
    # cohorts differ; the modes differ only in the Dice columns
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["phantom", "gen", "--n", "4", "--seed", "6", "--out", str(a),
                 "--spacing", "8,8,8"]) == 0
    shutil.copytree(a, b)
    for record in _manifest(a / "manifest.json").subjects:
        structures = load_labelmap(a / record.structure, "structure")
        shifted = np.zeros_like(structures.data)
        shifted[:, :, 1:] = structures.data[:, :, :-1]
        save_labelmap(replace(structures, data=shifted), b / record.structure)
    tables = {}
    for mode in ("paired", "cohort"):
        out = tmp_path / mode
        assert main(["consistency", "--a", str(a / "manifest.json"),
                     "--b", str(b / "manifest.json"), "--out", str(out), f"--{mode}"]) == 0
        with open(out / "consistency.csv", newline="") as fh:
            tables[mode] = [[row[0], *row[3:]] for row in csv.reader(fh)]
    assert len(tables["paired"]) > 2
    assert tables["paired"] == tables["cohort"]


@pytest.mark.parametrize("case", ["escaping", "repeated"])
def test_bad_subject_ids_exit_2_naming_the_id(tmp_path, capsys, case):
    # a manifest whose subject id leaves the output directory, or repeats
    # another subject's, so its measurement file would be written outside
    # --out or overwrite the other subject's
    cohort = tmp_path / "cohort"
    assert main(["phantom", "gen", "--n", "3", "--seed", "4",
                 "--out", str(cohort), "--spacing", "8,8,8"]) == 0
    payload = json.loads((cohort / "manifest.json").read_text())
    if case == "escaping":
        payload["subjects"][1]["id"] = bad = "../../escaped"
    else:
        payload["subjects"][2]["id"] = bad = payload["subjects"][0]["id"]
    (cohort / "manifest.json").write_text(json.dumps(payload))
    manifest = str(cohort / "manifest.json")
    before = set(tmp_path.rglob("*"))
    for argv in (["measure", "--manifest", manifest, "--out", str(cohort / "meas")],
                 ["consistency", "--a", manifest, "--b", manifest,
                  "--out", str(cohort / "cons"), "--paired"],
                 ["trial", "run", "--cohort", str(cohort), "--out", str(cohort / "trial")]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert repr(bad) in capsys.readouterr().err, argv
        assert set(tmp_path.rglob("*")) == before, argv
