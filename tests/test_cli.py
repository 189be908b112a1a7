"""CLI study helpers: where the study splits its data, what its report writes."""

import numpy as np
import pytest

from conftest import SECONDS_PER_DAY, make_dataset
from vfmlab import ConfigError, PredictionLog, StudyConfig, cli, write_log
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
