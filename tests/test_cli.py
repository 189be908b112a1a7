"""CLI study helpers and commands: where the study splits its data, what its
report writes, which config mistakes it turns into exit code 1, and that a
study re-runs and re-reports with identical bytes."""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import SECONDS_PER_DAY, make_dataset
from vfmlab import ChokeGeometry, ConfigError, PredictionLog, StudyConfig, cli, write_log
from vfmlab.core import write_csv
from vfmlab.synth import DEFAULT_T0


def _csv_study(tmp_path, case="all"):
    """Two wells in one CSV whose data start 50 days after DEFAULT_T0 (well 2
    a day later than well 1), six rows a day for 120 days."""
    t0 = DEFAULT_T0 + 50 * SECONDS_PER_DAY
    dt = SECONDS_PER_DAY / 6
    wells = [make_dataset(n=720, well_id=1, seed=1, t0=t0, dt=dt),
             make_dataset(n=714, well_id=2, seed=2, t0=t0 + SECONDS_PER_DAY, dt=dt)]
    path = tmp_path / "wells.csv"
    write_csv(path, wells)
    cfg = StudyConfig(csv_paths=(str(path),), split_day=30.0, case=case)
    return cfg, t0


def test_csv_input_splits_split_day_after_its_own_first_row(tmp_path):
    cfg, t0 = _csv_study(tmp_path)
    datasets, t_split = cli._case_datasets(cfg)
    splits, merged = cli._split_all(cfg, datasets, t_split)
    want = t0 + 30 * SECONDS_PER_DAY
    assert t_split == want
    assert merged.split_time == want
    for sp in splits.values():
        assert sp.split_time == want
        assert sp.train.t[-1] < want <= sp.test.t[0]
    assert len(splits[1].train) == 30 * 6


def test_csv_welltest_case_keeps_the_split_of_all_rows(tmp_path):
    """The case filter drops rows but does not move the split."""
    cfg, t0 = _csv_study(tmp_path, case="welltest")
    datasets, t_split = cli._case_datasets(cfg)
    assert all(np.all(ds.source == 1) for ds in datasets.values())
    assert min(ds.t[0] for ds in datasets.values()) > t0
    assert t_split == t0 + 30 * SECONDS_PER_DAY


def test_scenario_input_keeps_the_scenario_anchor():
    cfg = StudyConfig()
    assert cfg.split_time() == DEFAULT_T0 + cfg.split_day * SECONDS_PER_DAY


def test_csv_split_time_needs_the_loaded_datasets(tmp_path):
    cfg, _ = _csv_study(tmp_path)
    with pytest.raises(ConfigError):
        cfg.split_time()


def _log(y_pred):
    n = len(y_pred)
    return PredictionLog(t=SECONDS_PER_DAY * np.arange(n), well=np.ones(n, dtype=np.int64),
                         y_true=np.full(n, 100.0), y_pred=np.asarray(y_pred, dtype=float),
                         model_version=np.zeros(n, dtype=np.int64),
                         source=np.zeros(n, dtype=np.uint8))


def test_report_flags_non_finite_predictions_next_to_the_table(tmp_path, capsys):
    """A model that diverged part-way gets a MAPE over its finite rows only;
    the report writes and prints how many rows that left out."""
    cfg = StudyConfig(out_dir=str(tmp_path), case="all")
    log_dir = tmp_path / "logs" / "all"
    log_dir.mkdir(parents=True)
    write_log(_log([90.0, 110.0, 100.0, 100.0]), log_dir / "ol__lr.csv")
    write_log(_log([90.0, np.nan, np.nan, np.inf]), log_dir / "ol__nn.csv")
    assert cli.cmd_report(cfg) == 0
    reports = tmp_path / "reports"
    assert (reports / "summary_all.csv").read_text().splitlines() == [
        "method,lr,nn,All", "ol,5,10,7.5"]
    assert (reports / "excluded_all.csv").read_text().splitlines() == [
        "method,lr,nn", "ol,0,3"]
    assert "non-finite predictions" in capsys.readouterr().out


def _tiny_study(tmp_path) -> dict:
    """One quiet 40-day well, the benchmark kind and one OL schedule."""
    return {"out_dir": str(tmp_path / "out"), "kinds": ["benchmark"], "split_day": 20.0,
            "scenarios": [{"well_id": 1, "horizon_days": 40, "obs_per_day": 1.0}],
            "schedules": [{"name": "OL", "mode": "ol", "steps": 1,
                           "optimizer": {"gamma0": 1e-3}}]}


@pytest.mark.parametrize("section", [
    ("schedules", 0), ("schedules", 0, "optimizer"), ("early_stopping",), ("drift",),
    ("scenarios", 0), ("scenarios", 0, "true_params"), ("scenarios", 0, "geometry"),
    ("init_optimizer",)],
    ids=lambda s: ".".join(map(str, s)))
def test_unknown_key_in_a_nested_section_is_a_config_error(tmp_path, capsys, section):
    raw = _tiny_study(tmp_path)
    node = raw
    for key in section:
        if isinstance(node, dict):
            node = node.setdefault(key, {})
        else:
            node = node[key]
    node["typo_key"] = 1
    path = tmp_path / "study.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "typo_key" in err


@pytest.mark.parametrize("where, code", [("true_params", 1), ("drift_event", 2),
                                         ("ramp_end", 2)])
def test_kappa_of_one_is_refused_before_the_run(tmp_path, capsys, where, code):
    """kappa = 1 puts a zero divisor in the choke equation; the study refuses
    it with one line on stderr instead of failing inside the simulation: a
    config error in the true parameters, a scenario (data) error in an event
    or a ramp."""
    raw = _tiny_study(tmp_path)
    sc = raw["scenarios"][0]
    if where == "true_params":
        sc["true_params"] = {"kappa": 1.0}
    elif where == "drift_event":
        sc["real_drift_events"] = [[30, "kappa", 1.0]]
    else:
        sc["param_ramps"] = [["kappa", 10, 30, 1.0]]
    path = tmp_path / "study.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", "--config", str(path)]) == code
    err = capsys.readouterr().err
    assert "kappa must exceed 1" in err and len(err.strip().splitlines()) == 1


def test_csv_without_the_required_columns_is_a_data_error(tmp_path, capsys):
    """A well CSV that lacks required columns exits 2 with one stderr line."""
    csv = tmp_path / "wells.csv"
    csv.write_text("t,well_id,q_oil\n0,1,10.0\n")
    raw = _tiny_study(tmp_path)
    del raw["scenarios"]
    raw["csv_paths"] = [str(csv)]
    path = tmp_path / "study.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "missing columns" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_scenario_geometry_section_becomes_a_choke_geometry(tmp_path):
    raw = _tiny_study(tmp_path)
    raw["scenarios"][0]["geometry"] = {"a_max": 4e-3, "c1": 0.2, "c2": 0.0, "c3": 0.8}
    (scenario,) = StudyConfig.from_dict(raw).scenario_objects()
    assert scenario.geometry == ChokeGeometry(a_max=4e-3, c1=0.2, c2=0.0, c3=0.8)


@pytest.mark.parametrize("where", ["schedule", "init"])
def test_unknown_kind_under_per_kind_is_a_config_error(tmp_path, capsys, where):
    """A per-kind optimizer entry under a misspelt kind name is refused when
    the file is loaded, not silently ignored."""
    raw = _tiny_study(tmp_path)
    raw["kinds"] = ["benchmark", "lr"]
    if where == "schedule":
        raw["schedules"][0]["per_kind"] = {"lrr": {"gamma0": 5.0}}
    else:
        raw["init_per_kind"] = {"lrr": {"gamma0": 5.0}}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["config", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'lrr'" in err
    assert len(err.strip().splitlines()) == 1


def test_per_kind_entries_apply_to_their_kind(tmp_path):
    """A per-kind entry changes that kind's optimizer only, whatever the case
    of the kind name, and a kind the study does not run may have one."""
    raw = _tiny_study(tmp_path)
    raw["kinds"] = ["benchmark", "LR", "mm"]
    raw["schedules"][0]["per_kind"] = {"lr": {"gamma0": 5.0}, "nn": {"gamma0": 2.0}}
    raw["init_per_kind"] = {"MM": {"gamma0": 3.0}}
    cfg = StudyConfig.from_dict(raw)
    (spec,) = cfg.schedule_specs()
    assert spec.optimizer_for("LR").gamma0 == 5.0
    assert spec.optimizer_for("mm").gamma0 == 1e-3
    assert cfg.init_ocfg_for("mm").gamma0 == 3.0
    assert cfg.init_ocfg_for("LR").gamma0 == 1e-3


def test_unknown_update_source_is_a_config_error(tmp_path, capsys):
    """A schedule's update_sources name that is no source is refused when
    the file is loaded, not matched against no row."""
    raw = _tiny_study(tmp_path)
    raw["schedules"][0]["update_sources"] = ["bogus"]
    path = tmp_path / "study.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["config", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'bogus'" in err
    assert len(err.strip().splitlines()) == 1


def _small_study(tmp_path) -> Path:
    """Two jittered 60-day wells, split at day 30; the benchmark, LR and MM
    under one OL and one PBL schedule, with short fits."""
    wells = [{"well_id": w, "seed": w, "horizon_days": 60, "obs_per_day": 4.0,
              "u_jitter": 0.05, "p_jitter_rel": 0.02, "temp_jitter": 2.0,
              "frac_jitter": 0.02} for w in (1, 2)]
    raw = {"out_dir": str(tmp_path / "out"), "split_day": 30.0,
           "kinds": ["benchmark", "lr", "mm"], "scenarios": wells,
           "early_stopping": {"val_fraction": 0.2, "patience": 2, "max_epochs": 5},
           "schedules": [{"name": "OL", "mode": "ol", "steps": 2,
                          "optimizer": {"method": "Adam", "gamma0": 1e-3}},
                         {"name": "PBL-1w", "mode": "pbl", "period_days": 7.0,
                          "optimizer": {"method": "Adam", "gamma0": 1e-3,
                                        "batch_size": 64}}]}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(raw))
    return path


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_study_reruns_and_reports_with_identical_bytes(tmp_path):
    """A second run rewrites every output with the same bytes, report
    rewrites the summary byte for byte, and a summary cell is the mean over
    wells of the per-well MAPE of the written log."""
    config = str(_small_study(tmp_path))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", config]) == 0
    first = _tree(out)
    assert "logs/all/PBL-1w__mm.csv" in first and "reports/summary_all.csv" in first
    for path in out.rglob("*"):
        if path.is_file():
            path.write_bytes(b"")
    assert cli.main(["run", "--config", config]) == 0
    assert _tree(out) == first

    summary = out / "reports" / "summary_all.csv"
    summary.write_bytes(b"")
    assert cli.main(["report", "--config", config]) == 0
    assert summary.read_bytes() == first["reports/summary_all.csv"]

    rows = [ln.split(",") for ln in
            first["logs/all/PBL-1w__mm.csv"].decode().splitlines()[1:]]
    per_well = {}
    for _, well, y_true, y_pred, _, _ in rows:
        per_well.setdefault(well, []).append(
            abs(float(y_true) - float(y_pred)) / abs(float(y_true)))
    assert sorted(per_well) == ["1", "2"]
    hand = sum(100.0 * sum(e) / len(e) for e in per_well.values()) / len(per_well)
    header, *lines = summary.read_text().splitlines()
    cells = dict(ln.split(",", 1) for ln in lines)["PBL-1w"].split(",")
    assert float(cells[header.split(",").index("mm") - 1]) == pytest.approx(hand, rel=1e-5)


def _tune_study(tmp_path, **kw) -> str:
    raw = json.loads(_small_study(tmp_path).read_text())
    raw.update({"kinds": ["lr"], "grids": {"ol": {"gamma0": [1e-3], "steps": [1, 2]},
                                           "pbl": {"gamma0": [1e-3]}}}, **kw)
    path = tmp_path / "tune.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_tune_writes_only_the_fields_a_schedule_uses(tmp_path, capsys):
    """OL rows leave batch_size empty and PBL rows leave steps empty, in the
    CSV and on stdout; the kind stays in column 2 and the score last."""
    assert cli.main(["tune", "--config", _tune_study(tmp_path)]) == 0
    header, ol, pbl = (tmp_path / "out" / "tuned_all.csv").read_text().splitlines()
    assert header == "schedule,kind,method,gamma0,lr_schedule,power_a,steps,batch_size,score"
    ol, pbl = ol.split(","), pbl.split(",")
    assert ol[:2] == ["OL", "lr"] and ol[6] in ("1", "2") and ol[7] == ""
    assert pbl[:2] == ["PBL-1w", "lr"] and pbl[6] == "" and pbl[7] == "64"
    assert float(ol[-1]) > 0 and float(pbl[-1]) > 0
    out = capsys.readouterr().out.splitlines()
    assert f"OL/lr: gamma0=0.001 steps={ol[6]} " in out[0] and "batch_size" not in out[0]
    assert "PBL-1w/lr: gamma0=0.001 batch_size=64 " in out[1] and "steps" not in out[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_tune_where_every_combination_diverges_exits_3(tmp_path, capsys):
    """A numeric failure is exit code 3 with one line on stderr: an SGD rate
    of 1e300 overflows every PBL fit of the grid."""
    config = _tune_study(tmp_path, grids={"pbl": {"gamma0": [1e300]}})
    raw = json.loads(Path(config).read_text())
    raw["schedules"][1]["optimizer"]["method"] = "SGD"
    Path(config).write_text(json.dumps(raw))
    assert cli.main(["tune", "--config", config]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("numeric failure: ")
    assert "Traceback" not in err
