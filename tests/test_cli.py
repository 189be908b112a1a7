"""CLI study helpers and commands: where the study splits its data, what its
report writes, which config mistakes it turns into exit code 1, that a study
re-runs and re-reports with identical bytes, and what the default shift scan
finds."""

import json
import multiprocessing
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import SECONDS_PER_DAY, make_dataset
from vfmlab import (ChokeGeometry, ConfigError, DataError, PredictionLog, StudyConfig, cli,
                    optim, write_log)
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


def test_the_printed_table_keeps_a_separator_at_every_width(capsys):
    """A diverged cell, a method name or a kind as wide as its column stays
    one field apart from its neighbours; normal widths print as before."""
    from vfmlab.metrics import SummaryTable

    def table(methods, kinds, cells, excluded=0):
        cells = np.array(cells, dtype=float)
        return SummaryTable(tuple(methods), tuple(kinds), cells, cells.mean(axis=1),
                            np.full(cells.shape, excluded, dtype=np.int64))

    cli._print_table(table(["OL", "PBL-2w"], ["benchmark", "lr"],
                           [[21.9549, 10.1359], [21.9549, 17.5218]]))
    assert capsys.readouterr().out.splitlines() == [
        "method     benchmark        lr       All",
        "OL             21.95     10.14     16.05",
        "PBL-2w         21.95     17.52     19.74"]
    wide = table(["PBL-2weeks", "OL"], ["benchmark", "lr", "a_long_kind"],
                 [[5.6674941502, 7.49e67, 1e9], [1.0, 2.0, 3.0]], excluded=12345678901)
    cli._print_table(wide)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["method", "benchmark", "lr", "a_long_kind", "All"]
    assert lines[1].split()[:3] == ["PBL-2weeks", "5.67", f"{7.49e67:.2f}"]
    assert len(lines[2].split()) == 5
    assert lines[-2].split() == ["PBL-2weeks"] + ["12345678901"] * 3
    # every value ends where its header ends
    ends = [m.end() for m in re.finditer(r"\S+", lines[0])][1:]
    assert [m.end() for m in re.finditer(r"\S+", lines[2])][1:] == ends


def _tiny_study(tmp_path) -> dict:
    """One quiet 40-day well, the benchmark kind and one OL schedule."""
    return {"out_dir": str(tmp_path / "out"), "kinds": ["benchmark"], "split_day": 20.0,
            "scenarios": [{"well_id": 1, "horizon_days": 40, "obs_per_day": 1.0}],
            "schedules": [{"name": "OL", "mode": "ol", "steps": 1,
                           "optimizer": {"gamma0": 1e-3}}]}


_SECTIONS = [("schedules", 0), ("schedules", 0, "optimizer"), ("early_stopping",), ("drift",),
             ("scenarios", 0), ("scenarios", 0, "true_params"), ("scenarios", 0, "geometry"),
             ("init_optimizer",)]


@pytest.mark.parametrize("section, name, value", [
    *(pytest.param(s, "typo_key", 1, id=".".join(map(str, s))) for s in _SECTIONS),
    pytest.param(("drift",), "f_scaling", "raw", id="drift.f_scaling"),
    pytest.param(("drift",), "single_obs_cov", "zero", id="drift.single_obs_cov"),
    pytest.param(("drift",), "d2_window", 5, id="drift.d2_window")])
def test_unknown_key_in_a_nested_section_is_a_config_error(tmp_path, capsys, section, name,
                                                           value):
    raw = _tiny_study(tmp_path)
    node = raw
    for key in section:
        if isinstance(node, dict):
            node = node.setdefault(key, {})
        else:
            node = node[key]
    node[name] = value
    path = tmp_path / "study.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and name in err and len(err.splitlines()) == 1


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


def _run_on_csv(tmp_path, csv_path):
    raw = _tiny_study(tmp_path)
    del raw["scenarios"]
    raw["csv_paths"] = [str(csv_path)]
    path = tmp_path / "study.json"
    path.write_text(json.dumps(raw))
    return cli.main(["run", "--config", str(path)])


def test_csv_without_the_required_columns_is_a_data_error(tmp_path, capsys):
    """A well CSV that lacks required columns exits 2 with one stderr line."""
    csv = tmp_path / "wells.csv"
    csv.write_text("t,well_id,q_oil\n0,1,10.0\n")
    assert _run_on_csv(tmp_path, csv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "missing columns" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_missing_csv_is_a_data_error(tmp_path, capsys):
    """A csv_paths entry that does not exist exits 2 with one stderr line
    naming it."""
    missing = tmp_path / "nope.csv"
    assert _run_on_csv(tmp_path, missing) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(missing) in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_csv_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    """A well CSV whose bytes are not UTF-8 exits 2 with one stderr line
    naming it, whatever the locale's encoding: the only non-ASCII byte sits
    in an extra column of an otherwise valid row."""
    latin = tmp_path / "wells.csv"
    latin.write_bytes("well_id,t,u,p1,p2,T1,eta_oil,eta_gas,q_total,source,note\n"
                      "1,0,0.5,15000000,9000000,350,0.3,0.5,55.5,MPFM,caf\u00e9\n"
                      .encode("latin-1"))
    assert _run_on_csv(tmp_path, latin) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(latin) in err and "cannot read" in err
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


@pytest.mark.parametrize("mode, key, value", [
    ("pbl", "steps", 3), ("ol", "period_days", 7.0), ("ol", "window_days", 5.0)])
def test_schedule_setting_its_mode_never_reads_is_a_config_error(tmp_path, capsys,
                                                                  mode, key, value):
    """A step count on a PBL schedule, or a period or window on an OL one,
    would be dropped by the run; it is refused when the file is loaded."""
    raw = _tiny_study(tmp_path)
    sched = raw["schedules"][0]
    if mode == "pbl":
        del sched["steps"]
        sched.update(name="PBL", mode="pbl", period_days=7.0)
    sched[key] = value
    path = tmp_path / "study.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["config", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: schedule {sched['name']!r}: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("grids", [
    {"OL": {"gamma0": [1e-3]}}, {"ol": {"gama0": [1e-3]}}, {"pbl": {"gamma0": []}},
    {"ol": {"gamma0": [1e-3], "batch_size": [16, 64]}}, {"pbl": {"steps": [1, 10]}}],
    ids=["unknown-mode", "unknown-key", "empty-list", "batch-size-under-ol",
         "steps-under-pbl"])
def test_grids_are_checked_at_load(tmp_path, capsys, grids):
    """A grid that tune would skip, fail on late, or search without effect
    is refused when the file is loaded."""
    raw = _tiny_study(tmp_path)
    raw["grids"] = grids
    path = tmp_path / "study.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["config", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: grids")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("grids, message", [
    ({"ol": {"gamma0": [1e-3, -1e-3]}, "pbl": {"method": ["Adamm"]}},
     "grids.ol.gamma0: gamma0 must be positive"),
    ({"pbl": {"method": ["Adam", "Adamm"]}},
     "grids.pbl.method: unknown optimizer method 'Adamm'"),
    ({"pbl": {"schedule": ["constant", "cosine"]}},
     "grids.pbl.schedule: unknown schedule 'cosine'"),
    ({"pbl": {"batch_size": [32, 0]}},
     "grids.pbl.batch_size: batch_size must be >= 1 or None (full batch)"),
    ({"ol": {"steps": [1, -1]}}, "grids.ol.steps: steps must be an integer >= 0"),
    ({"ol": {"gamma0": ["fast"]}}, "grids.ol.gamma0: "),
    ({"pbl": {"method": [5]}}, "grids.pbl.method: unknown optimizer method 5")],
    ids=["negative-gamma0", "unknown-method", "unknown-schedule", "zero-batch-size",
         "negative-steps", "gamma0-not-a-number", "method-not-a-name"])
def test_grid_values_are_checked_at_load(tmp_path, capsys, grids, message):
    """Every value of every grid is built as tune would build it when the
    file is loaded; the first bad one is named by its mode and key."""
    raw = _tiny_study(tmp_path)
    raw["grids"] = grids
    path = tmp_path / "study.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["config", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert len(err.strip().splitlines()) == 1


def test_an_optimizer_method_that_is_not_a_name_is_a_config_error(tmp_path, capsys):
    raw = _tiny_study(tmp_path)
    raw["init_optimizer"] = {"method": 5}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["config", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "unknown optimizer method 5" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("patch, message", [
    ({"kinds": [5]}, "unknown model kind 5"),
    ({"schedules": [{"name": "OL", "mode": "ol", "steps": 1, "per_kind": {"lr": 5}}]},
     "schedule 'OL' optimizer: per-kind entry 'lr': must be a JSON object, not 5"),
    ({"drift": 5}, "drift: must be a JSON object, not 5"),
    ({"hidden": [32, "x"]}, "hidden[1]: must be an integer, not 'x'"),
    ({"prior_mode": "bogus"}, "prior_mode: unknown prior mode 'bogus'"),
    ({"prior_mode": 5}, "prior_mode: must be a string, not 5"),
    ({"scenarios": [{"well_id": 1, "u_profile": 5}]},
     "scenarios[0].u_profile: must be a JSON array, not 5"),
    ({"scenarios": [{"well_id": 1, "u_profile": [[0]]}]},
     "scenarios[0].u_profile[0]: must hold 2 entries, not [0]"),
    ({"scenarios": [{"well_id": 1, "real_drift_events": [[1, "C_D"]]}]},
     "scenarios[0].real_drift_events[0]: must hold 3 entries, not [1, 'C_D']"),
    ({"scenarios": [{"well_id": 1, "fraction_drift": {"eta_oil": 5}}]},
     "scenarios[0].fraction_drift.eta_oil: must be a JSON array, not 5"),
    ({"seed": "x"}, "seed: must be an integer, not 'x'"),
    ({"split_day": "x"}, "split_day: must be a number, not 'x'"),
    ({"mtl_blocks": "x"}, "mtl_blocks: must be an integer, not 'x'"),
    ({"mtl_blocks": True}, "mtl_blocks: must be an integer, not True"),
    ({"hidden": [32.7]}, "hidden[0]: must be an integer, not 32.7"),
    ({"init_optimizer": {"method": 5}}, "init_optimizer.method: unknown optimizer method 5"),
    ({"schedules": [{"name": "OL", "mode": "ol", "steps": 1, "optimizer": {"method": "Adamm"}}]},
     "schedule 'OL' optimizer.method: unknown optimizer method 'Adamm'"),
    ({"kinds": ["benchmark", "lr"], "init_per_kind": {"lr": {"batch_size": "x"}}},
     "init_per_kind.lr.batch_size: must be an integer, not 'x'"),
    ({"schedules": [{"name": "OL", "mode": "ol", "steps": 1,
                     "per_kind": {"nn": {"method": "Adamm"}}}]},
     "schedule 'OL' per_kind.nn.method: unknown optimizer method 'Adamm'")],
    ids=["kind-not-a-name", "per-kind-entry-not-an-object", "drift-not-an-object",
         "hidden-width-not-an-integer", "unknown-prior-mode", "prior-mode-not-a-name",
         "u-profile-not-an-array", "u-profile-knot-too-short", "drift-event-too-short",
         "fraction-ramp-not-an-array", "seed-not-an-integer", "split-day-not-a-number",
         "mtl-blocks-not-an-integer", "mtl-blocks-a-bool", "hidden-width-a-float",
         "init-method-not-a-name", "schedule-method-unknown", "init-per-kind-batch-size",
         "schedule-per-kind-method-of-a-kind-not-run"])
def test_a_value_of_the_wrong_json_type_is_a_config_error(tmp_path, capsys, patch, message):
    """A config value of the wrong JSON type or shape, or an unknown prior
    mode, is refused when the file is loaded: exit 1 and one line, no
    traceback.  An integer field takes no float and no bool."""
    raw = {**_tiny_study(tmp_path), **patch}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["config", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize("field, value", [
    ("source", "Venturi"), ("y_pred", "abc"), ("well", "1.5"),
    ("sidecar", "{"), ("sidecar", "[1, 2]"), ("bytes", b"MPFM\xe9")],
    ids=["unknown-source", "y-pred-not-a-number", "fractional-well-id",
         "sidecar-not-json", "sidecar-not-an-object", "log-not-utf8"])
def test_a_malformed_log_is_a_data_error(tmp_path, capsys, field, value):
    """report refuses a log that is not UTF-8 or has a field that does not
    parse, or a sidecar that is not a JSON object: exit 2 and one line
    naming the file, no traceback."""
    raw = _tiny_study(tmp_path)
    config = tmp_path / "study.json"
    config.write_text(json.dumps(raw))
    log_dir = tmp_path / "out" / "logs" / "all"
    log_dir.mkdir(parents=True)
    path = log_dir / "OL__benchmark.csv"
    write_log(_log([90.0, 95.0]), path)
    sidecar = path.with_name(path.name + ".meta.json")
    if field == "sidecar":
        sidecar.write_text(value)
    elif field == "bytes":
        path.write_bytes(path.read_bytes().replace(b"MPFM", value, 1))
    else:
        header, first, second = path.read_text().splitlines()
        row = second.split(",")
        row[{"well": 1, "y_pred": 3, "source": 5}[field]] = value
        path.write_text("\n".join([header, first, ",".join(row)]) + "\n")
    assert cli.main(["report", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: "), err
    assert str(sidecar if field == "sidecar" else path) in err


def _days_as_floats(scenario: dict) -> dict:
    """scenario with every knot, event, ramp and wobble day written as a
    JSON float."""
    return {**scenario,
            "u_profile": [[float(d), u] for d, u in scenario["u_profile"]],
            "real_drift_events": [[float(d), n, v] for d, n, v in scenario["real_drift_events"]],
            "param_ramps": [[n, float(a), float(b), v] for n, a, b, v in scenario["param_ramps"]],
            "param_wobble": [[n, s, float(c)] for n, s, c in scenario["param_wobble"]]}


def test_a_float_field_takes_a_json_integer_unconverted(tmp_path, capsys):
    """Float fields written as JSON integers (a split_day of 180 and the
    default scenarios' days) load, `config` echoes them byte for byte, and
    the wells and the split equal those of the same config with each of
    them written as a float."""
    raw = StudyConfig().to_dict()
    raw["split_day"] = 180
    assert raw["scenarios"][0]["u_profile"][0] == [0, 0.35]
    text = json.dumps(raw, indent=2, sort_keys=True) + "\n"
    path = tmp_path / "study.json"
    path.write_text(text)
    assert cli.main(["config", "--config", str(path)]) == 0
    assert capsys.readouterr().out == text

    floats = {**raw, "split_day": 180.0,
              "scenarios": [_days_as_floats(sc) for sc in raw["scenarios"]]}
    ints, flts = StudyConfig.from_dict(raw), StudyConfig.from_dict(floats)
    assert flts.to_json() != ints.to_json()
    assert ints.split_time() == flts.split_time()
    a, b = ints.load_datasets(), flts.load_datasets()
    assert list(a) == list(b) == [1, 2, 3, 4, 5]
    for w in a:
        for col in ("t", "X", "y", "source", "well"):
            assert getattr(a[w], col).tobytes() == getattr(b[w], col).tobytes(), (w, col)


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


def test_study_reruns_and_reports_with_identical_bytes(tmp_path, capsys):
    """A second run rewrites every output with the same bytes, report
    rebuilds all of reports/ and prints the table byte for byte, and a
    summary cell is the mean over wells of the per-well MAPE of the written
    log."""
    config = str(_small_study(tmp_path))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", config]) == 0
    table = capsys.readouterr().out
    first = _tree(out)
    assert "logs/all/PBL-1w__mm.csv" in first and "reports/summary_all.csv" in first
    assert "reports/rolling_all_OL__lr.csv" in first
    for path in out.rglob("*"):
        if path.is_file():
            path.write_bytes(b"")
    assert cli.main(["run", "--config", config]) == 0
    assert _tree(out) == first

    shutil.rmtree(out / "reports")
    capsys.readouterr()
    assert cli.main(["report", "--config", config]) == 0
    assert capsys.readouterr().out == table
    assert _tree(out) == first

    rows = [ln.split(",") for ln in
            first["logs/all/PBL-1w__mm.csv"].decode().splitlines()[1:]]
    per_well = {}
    for _, well, y_true, y_pred, _, _ in rows:
        per_well.setdefault(well, []).append(
            abs(float(y_true) - float(y_pred)) / abs(float(y_true)))
    assert sorted(per_well) == ["1", "2"]
    hand = sum(100.0 * sum(e) / len(e) for e in per_well.values()) / len(per_well)
    header, *lines = first["reports/summary_all.csv"].decode().splitlines()
    cells = dict(ln.split(",", 1) for ln in lines)["PBL-1w"].split(",")
    assert float(cells[header.split(",").index("mm") - 1]) == pytest.approx(hand, rel=1e-5)


def test_default_detect_pins_tau_and_the_flag_counts(tmp_path, capsys):
    """The default study's shift scan per well: tau in days, then the points
    flagged and scanned after the reference cut."""
    assert cli.main(["detect", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "detect" / "summary.csv").read_text().splitlines() == [
        "well_id,estimated_tau_days,n_flagged,n_scanned",
        "1,94.0,453,566", "2,40.0,484,557", "3,62.0,485,560", "4,65.0,474,554",
        "5,76.0,462,555"]
    assert capsys.readouterr().out.splitlines()[0] == "well 1: tau = 94.0 days"


def _two_cpus() -> int:
    """optim._cpus on two CPUs: 2, and 1 while a share of optim._fork runs."""
    return 1 if optim._in_share else 2


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


def test_tune_fits_under_the_study_prior_mode(tmp_path):
    """tune's holdout fits take the study's prior_mode, as run's fits do."""
    grids = {"ol": {"gamma0": [1e-3, 1e-2], "steps": [1, 2]}, "pbl": {"gamma0": [1e-3, 1e-2]}}
    tuned = {}
    for mode in ("None", "Full"):
        (tmp_path / mode).mkdir()
        config = _tune_study(tmp_path / mode, grids=grids, prior_mode=mode)
        assert cli.main(["tune", "--config", config]) == 0
        tuned[mode] = (tmp_path / mode / "out" / "tuned_all.csv").read_bytes()
    assert tuned["None"] != tuned["Full"]


# tune's rows on the study of the next test, as recorded when every grid
# combination refitted its own initial models: the picks (schedule, kind,
# method, gamma0, lr_schedule, power_a, steps, batch_size) and the scores
TUNED_PICKS = [
    ["OL", "lr", "Adam", "0.05", "constant", "1.0", "2", ""],
    ["OL", "mtl", "Adam", "0.01", "constant", "1.0", "2", ""],
    ["PBL-2d", "lr", "Adam", "0.05", "constant", "1.0", "", "64"],
    ["PBL-2d", "mtl", "Adam", "0.05", "constant", "1.0", "", "64"],
    ["PBL-3d", "lr", "Adam", "0.05", "constant", "1.0", "", "64"],
    ["PBL-3d", "mtl", "Adam", "0.05", "constant", "1.0", "", "64"]]
TUNED_SCORES = [11.307173916248999, 25.720504376841, 7.867676805852248,
                9.745454410217874, 9.169632228087345, 10.918094218935673]


def test_tune_fits_each_unit_once_per_optimizer(tmp_path, monkeypatch):
    """Every holdout unit (LR per well, MTL on the merged wells) is fitted
    once per distinct initial optimizer, and the fits are shared across
    grid combinations and schedules: OL's initial optimizer equals PBL's at
    gamma0 1e-3, so 3 optimizers and 3 units make 9 fits.  The picks and
    scores are those of a search that refitted for every combination."""
    raw = json.loads(_small_study(tmp_path).read_text())
    pbl_opt = {"method": "Adam", "gamma0": 1e-3, "batch_size": 64}
    raw.update(kinds=["benchmark", "lr", "mtl"], hidden=[8],
               schedules=[raw["schedules"][0],
                          {"name": "PBL-2d", "mode": "pbl", "period_days": 2.0,
                           "optimizer": pbl_opt},
                          {"name": "PBL-3d", "mode": "pbl", "period_days": 3.0,
                           "optimizer": pbl_opt}],
               grids={"ol": {"gamma0": [1e-3, 1e-2, 5e-2], "steps": [1, 2]},
                      "pbl": {"gamma0": [1e-3, 1e-2, 5e-2]}})
    path = tmp_path / "tune.json"
    path.write_text(json.dumps(raw))
    counted = tmp_path / "fits.txt"
    fit_maps = optim.fit_maps

    def counting_fit_maps(units, ocfg, escfg, *rest):
        # one line per fit, appended by whichever process fits it, so the
        # fits of the jobs dealt to forked workers are counted too
        with open(counted, "a") as fh:
            fh.writelines(f"{os.getpid()} {(m.kind, train.well_ids, len(train), ocfg)!r}\n"
                          for m, train, _ in units)
        return fit_maps(units, ocfg, escfg, *rest)

    # cli and optim hold their own bindings, so a fit made through optim
    # (fit_map, or grid_search fitting again) is counted too, and none twice
    monkeypatch.setattr(cli, "fit_maps", counting_fit_maps)
    monkeypatch.setattr(optim, "fit_maps", counting_fit_maps)
    monkeypatch.setattr(optim, "_cpus", _two_cpus)
    assert cli.main(["tune", "--config", str(path)]) == 0
    _, *rows = (tmp_path / "out" / "tuned_all.csv").read_text().splitlines()
    rows = [r.split(",") for r in rows]
    assert [r[:-1] for r in rows] == TUNED_PICKS
    assert [float(r[-1]) for r in rows] == pytest.approx(TUNED_SCORES, rel=1e-9, abs=0)
    pids, fits = zip(*(line.split(" ", 1) for line in counted.read_text().splitlines()))
    assert len(fits) == len(set(fits)) == 9
    assert len(set(pids)) == 2 and str(os.getpid()) in pids   # dealt to two processes


def _tune_dealt_and_on_one_cpu(tmp_path, monkeypatch, capsys, make_config) -> list:
    """tune on the config that make_config(run_dir) writes, dealt on two
    CPUs and then on one: per run its exit code, stdout (the run's directory
    as DIR), stderr, tuned CSV or None, and the shares that tune dealt its
    jobs to.  Neither run leaves a child behind."""
    runs = []
    fork = optim._fork
    for cpus in (_two_cpus, lambda: 1):
        dealt = []

        def recording(work, shares):
            dealt.append(len(shares))   # tune's call comes first
            return fork(work, shares)

        monkeypatch.setattr(optim, "_cpus", cpus)
        monkeypatch.setattr(optim, "_fork", recording)
        run_dir = tmp_path / f"run{len(runs)}"
        run_dir.mkdir()
        code = cli.main(["tune", "--config", make_config(run_dir)])
        out, err = capsys.readouterr()
        csv = run_dir / "out" / "tuned_all.csv"
        runs.append((code, out.replace(str(run_dir), "DIR"), err,
                     csv.read_bytes() if csv.exists() else None, dealt[0]))
        assert multiprocessing.active_children() == []
    return runs


def test_dealt_tune_writes_the_bytes_of_one_cpu(tmp_path, monkeypatch, capsys):
    """Six jobs (LR and MM, each at three initial optimizers) dealt to two
    processes give the tuned CSV, stdout and stderr (its edge lines) of a
    run on one CPU, byte for byte."""
    grids = {"ol": {"gamma0": [1e-3, 1e-2], "steps": [1, 2]},
             "pbl": {"gamma0": [1e-3, 1e-2, 5e-2]}}
    dealt, one = _tune_dealt_and_on_one_cpu(
        tmp_path, monkeypatch, capsys,
        lambda d: _tune_study(d, kinds=["benchmark", "lr", "mm"], grids=grids))
    assert dealt[0] == 0 and dealt[3] is not None and "is the largest in its grid" in dealt[2]
    assert (dealt[4], one[4]) == (2, 1)
    assert dealt[:4] == one[:4]


def test_dealt_tune_raises_the_data_error_met_first(tmp_path, monkeypatch, capsys):
    """The initial fits of two jobs raise a DataError: LR's at PBL gamma0
    5e-2, met first in search order, and MM's at 1e-2.  Dealt, each raises
    in its own process, and tune exits 2 with LR's message after the OL
    picks, as on one CPU."""
    raised = tmp_path / "raised.txt"
    initial_units = cli._initial_units

    def failing(cfg, kind, splits, merged, ocfg):
        if (kind, ocfg.gamma0) in (("lr", 5e-2), ("mm", 1e-2)):
            with open(raised, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            raise DataError(f"{kind} at gamma0 {ocfg.gamma0} has no rows")
        return initial_units(cfg, kind, splits, merged, ocfg)

    monkeypatch.setattr(cli, "_initial_units", failing)
    grids = {"ol": {"gamma0": [1e-3], "steps": [1, 2]}, "pbl": {"gamma0": [1e-3, 1e-2, 5e-2]}}
    dealt, one = _tune_dealt_and_on_one_cpu(
        tmp_path, monkeypatch, capsys,
        lambda d: _tune_study(d, kinds=["benchmark", "lr", "mm"], grids=grids))
    assert dealt[0] == 2 and dealt[3] is None and (dealt[4], one[4]) == (2, 1)
    assert dealt[2].endswith("data error: lr at gamma0 0.05 has no rows\n")
    assert [ln.split(":")[0] for ln in dealt[1].splitlines()] == ["OL/lr", "OL/mm"]
    assert dealt[:4] == one[:4]
    pids = raised.read_text().split()   # the dealt run's two, then the one-CPU run's
    assert len(set(pids[:2])) == 2 and set(pids[2:]) == {str(os.getpid())}, pids


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_dealt_tune_where_every_combination_diverges_exits_3(tmp_path, monkeypatch, capsys):
    """An SGD rate of 1e300 or 1e301 overflows every PBL fit: two jobs,
    dealt, exit 3 with the one line of a run on one CPU."""
    def config(run_dir):
        path = _tune_study(run_dir, grids={"pbl": {"gamma0": [1e300, 1e301]}})
        raw = json.loads(Path(path).read_text())
        raw["schedules"][1]["optimizer"]["method"] = "SGD"
        Path(path).write_text(json.dumps(raw))
        return path

    dealt, one = _tune_dealt_and_on_one_cpu(tmp_path, monkeypatch, capsys, config)
    assert dealt[0] == 3 and (dealt[4], one[4]) == (2, 1)
    assert len(dealt[2].splitlines()) == 1
    assert dealt[2].startswith("numeric failure: all grid combinations diverged: ")
    assert dealt[:4] == one[:4]


@pytest.mark.parametrize("first", ["fit", "noise"])
def test_initial_units_raise_the_first_failing_well(first):
    """The wells' initial fits run in one lockstep, but a failure is still
    that of the first failing well: one well fails its MM fit (a row with
    negative p1, NumericError), the other has no noise level (all-zero
    targets, DataError), in either order."""
    from vfmlab import DataError, NumericError
    from vfmlab.core import WellDataset, chronological_split

    def well(w, fails):
        ds = make_dataset(n=40, well_id=w, seed=w)
        X, y = ds.X.copy(), ds.y.copy()
        if fails == "fit":
            X[3, 1] = -1.0
        else:
            y[:] = 0.0
        return chronological_split(WellDataset(ds.t, X, y, ds.source, ds.well), float(ds.t[30]))

    second = "noise" if first == "fit" else "fit"
    splits = {1: well(1, first), 2: well(2, second)}
    cfg = StudyConfig()
    with pytest.raises(NumericError if first == "fit" else DataError):
        cli._initial_units(cfg, "mm", splits, splits[1], cfg.init_ocfg_for("mm"))


def test_tune_names_the_well_whose_holdout_is_too_short(tmp_path, capsys):
    """The default wells hold 2 to 5 well-test rows before the split, and
    the last 20% of 2 rows leaves 1 to fit on: tune exits 2 and names the
    well and its row counts."""
    assert cli.main(["tune", "--case", "welltest", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert re.fullmatch(r"data error: well \d+: .* leaves 1 train / 1 test rows\n", err)
