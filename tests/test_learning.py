"""Prequential learning loops: periodic refits and per-observation updates."""

import json
import warnings

import numpy as np
import pytest

from conftest import make_dataset
from vfmlab import (
    ConfigError,
    DataError,
    LossSpec,
    Method,
    NumericError,
    OptimizerConfig,
    PredictionLog,
    PriorMode,
    ScheduleConfig,
    WellDataset,
    fit_map,
    init_model,
    predict,
)
from vfmlab.core import chronological_split, ingest_csv, write_csv
from vfmlab.learning import read_log, run_ol, run_pbl, run_schedule, write_log
from vfmlab.optim import EarlyStoppingConfig


def affine_split(n=100, cut=49.5, seed=0, noise=0.05, level_shift=None):
    """Affine stream split chronologically; optional level shift at a time."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    theta = np.array([1.0, -2.0, 0.5, 0.0, 1.5, -1.0])
    y = X @ theta + 3.0 + noise * rng.standard_normal(n)
    t = np.arange(float(n))
    if level_shift is not None:
        at, size = level_shift
        y = y + size * (t >= at)
    source = (np.arange(n) % 5 == 4).astype(np.uint8)
    ds = WellDataset(t, X, y, source, np.ones(n, np.int64))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return chronological_split(ds, cut)


def quick_escfg():
    return EarlyStoppingConfig(val_fraction=0.2, patience=5, max_epochs=30)


def pbl_cfg(period, **kw):
    base = dict(mode="pbl", ocfg=OptimizerConfig(gamma0=0.02, seed=1),
                loss=LossSpec(noise_std=0.1, prior_mode=PriorMode.NONE),
                period_s=float(period), escfg=quick_escfg())
    base.update(kw)
    return ScheduleConfig(**base)


def ol_cfg(steps, gamma=1e-3, **kw):
    base = dict(mode="ol", ocfg=OptimizerConfig(gamma0=gamma, seed=1),
                loss=LossSpec(noise_std=0.1, prior_mode=PriorMode.NONE),
                steps=steps)
    base.update(kw)
    return ScheduleConfig(**base)


# ------------------------------------------------------------------- PBL loop


def test_pbl_period_beyond_horizon_never_retrains():
    sp = affine_split()
    m0 = init_model("lr", seed=2)
    log = run_pbl(m0, sp, pbl_cfg(1e15))
    assert log.metadata["n_retrains"] == 0
    assert np.all(log.model_version == m0.version)
    np.testing.assert_allclose(log.y_pred, predict(m0, sp.test.X), rtol=1e-12)


def test_pbl_retrains_once_per_period_boundary():
    sp = affine_split()  # test arrivals at t = 50..99
    log = run_pbl(init_model("lr", seed=2), sp, pbl_cfg(10.0))
    # boundaries at 59.5, 69.5, 79.5, 89.5 are each crossed by one arrival
    assert log.metadata["n_retrains"] == 4
    assert sorted(set(log.model_version.tolist())) == [0, 1, 2, 3, 4]
    assert np.all(np.diff(log.model_version) >= 0)
    first_v1 = log.t[np.argmax(log.model_version == 1)]
    assert first_v1 == 60


def test_pbl_gap_spanning_many_boundaries_refits_once():
    sp = affine_split()
    te = sp.test
    keep = (te.t <= 55) | (te.t >= 95)
    import dataclasses
    sp = dataclasses.replace(sp, test=te.take(np.flatnonzero(keep)))
    log = run_pbl(init_model("lr", seed=2), sp, pbl_cfg(10.0))
    assert log.metadata["n_retrains"] == 1
    assert log.model_version.max() == 1


def test_pbl_failed_refit_keeps_previous_model_and_flags_the_period():
    sp = affine_split()
    cfg = pbl_cfg(10.0, ocfg=OptimizerConfig(method=Method.SGD, gamma0=1e300,
                                             seed=1))
    m0 = init_model("lr", seed=2)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        log = run_pbl(m0, sp, cfg)
    assert log.metadata["n_retrains"] == 0
    assert len(log.metadata["failed_periods"]) > 0
    assert np.all(np.isfinite(log.y_pred))
    np.testing.assert_allclose(log.y_pred, predict(m0, sp.test.X), rtol=1e-12)


def test_pbl_window_tracks_a_level_shift_better_than_full_history():
    sp = affine_split(n=160, cut=59.5, noise=0.02, level_shift=(30.0, 8.0))
    m0 = init_model("lr", seed=3)
    full = run_pbl(m0, sp, pbl_cfg(20.0))
    windowed = run_pbl(m0, sp, pbl_cfg(20.0, window_s=25.0))
    late = full.t >= 80
    mae_full = np.mean(np.abs(full.y_true[late] - full.y_pred[late]))
    mae_win = np.mean(np.abs(windowed.y_true[late] - windowed.y_pred[late]))
    assert mae_win < mae_full


def test_pbl_update_sources_can_restrict_refit_data():
    sp = affine_split()
    log = run_pbl(init_model("lr", seed=2), sp,
                  pbl_cfg(10.0, update_sources=("WellTest",)))
    assert log.metadata["n_retrains"] >= 1
    assert np.all(np.isfinite(log.y_pred))


@pytest.mark.parametrize("sources", [None, ("WellTest",)], ids=["all", "welltest"])
def test_pbl_refit_history_is_every_allowed_row_before_the_arrival(monkeypatch, sources):
    """A refit fits on the train rows and the test rows that arrived before
    the row that triggers it, never on that row itself."""
    from vfmlab import learning

    seen = []
    fit_maps = learning.fit_maps

    def recording_fit_maps(fits, *args):
        seen.extend(train.t.tolist() for _, train, _ in fits)
        return fit_maps(fits, *args)

    monkeypatch.setattr(learning, "fit_maps", recording_fit_maps)
    run_pbl(init_model("lr", seed=2), affine_split(),
            pbl_cfg(10.0, update_sources=sources))
    t = np.arange(100.0)  # train t = 0..49, test t = 50..99, WellTest every 5th row
    allowed = (t % 5 == 4) if sources else np.ones(len(t), dtype=bool)
    assert seen == [t[(t < arrival) & allowed].tolist() for arrival in (60, 70, 80, 90)]


def test_pbl_is_deterministic():
    sp = affine_split()
    a = run_pbl(init_model("lr", seed=2), sp, pbl_cfg(10.0))
    b = run_pbl(init_model("lr", seed=2), sp, pbl_cfg(10.0))
    for col in ("t", "well", "y_true", "y_pred", "model_version", "source"):
        np.testing.assert_array_equal(getattr(a, col), getattr(b, col))


# -------------------------------------------------------------------- OL loop


def test_ol_zero_steps_is_bit_identical_to_pbl_with_infinite_period():
    sp = affine_split()
    m0 = init_model("lr", seed=2)
    frozen_ol = run_ol(m0, sp, ol_cfg(0))
    frozen_pbl = run_pbl(m0, sp, pbl_cfg(1e15))
    for col in ("t", "well", "y_true", "y_pred", "model_version", "source"):
        np.testing.assert_array_equal(getattr(frozen_ol, col),
                                      getattr(frozen_pbl, col))


def test_ol_vanishing_rate_approaches_the_frozen_model():
    from vfmlab.optim import fit_map

    sp = affine_split()
    m0 = fit_map(init_model("lr", seed=2), sp.train,
                 LossSpec(noise_std=0.1, prior_mode=PriorMode.NONE),
                 OptimizerConfig(gamma0=0.02, seed=1), quick_escfg())
    frozen = run_ol(m0, sp, ol_cfg(0))
    crawling = run_ol(m0, sp, ol_cfg(10, gamma=1e-10))
    rel = np.abs(crawling.y_pred - frozen.y_pred) / np.maximum(
        np.abs(frozen.y_pred), 1e-12)
    assert np.max(rel) < 1e-6
    assert np.any(crawling.y_pred != frozen.y_pred)  # it did move, just barely


def test_ol_zero_residual_stream_never_moves_the_parameters():
    sp = affine_split(noise=0.0)
    m0 = init_model("lr", seed=2)
    te = sp.test
    exact = WellDataset(te.t, te.X, predict(m0, te.X), te.source, te.well)
    import dataclasses
    sp = dataclasses.replace(sp, test=exact)
    log = run_ol(m0, sp, ol_cfg(5, gamma=0.5))
    assert log.metadata["n_updates"] == len(te)
    np.testing.assert_allclose(log.y_pred, predict(m0, te.X), rtol=1e-12)


def test_ol_first_prediction_predates_any_update():
    sp = affine_split(level_shift=(0.0, 50.0))  # test data far off the fit
    m0 = init_model("lr", seed=2)
    hot = run_ol(m0, sp, ol_cfg(10, gamma=0.05))
    assert hot.y_pred[0] == pytest.approx(float(predict(m0, sp.test.X[:1])[0]),
                                          rel=1e-14)
    # adaptation shows up strictly after the first arrival
    late_err = np.abs(hot.y_true[-10:] - hot.y_pred[-10:]).mean()
    first_err = abs(hot.y_true[0] - hot.y_pred[0])
    assert late_err < first_err


def test_ol_update_sources_filter_counts():
    sp = affine_split()
    n_welltest = int(np.sum(sp.test.source == 1))
    only_wt = run_ol(init_model("lr", seed=2), sp,
                     ol_cfg(3, update_sources=("WellTest",)))
    assert only_wt.metadata["n_updates"] == n_welltest
    every = run_ol(init_model("lr", seed=2), sp, ol_cfg(3))
    assert every.metadata["n_updates"] == len(sp.test)


def test_ol_survives_an_absurd_rate_by_skipping_updates():
    sp = affine_split()
    cfg = ol_cfg(5, gamma=1e300,
                 ocfg=OptimizerConfig(method=Method.SGD, gamma0=1e300, seed=1))
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        log = run_ol(init_model("lr", seed=2), sp, cfg)
    assert np.all(np.isfinite(log.y_pred))
    assert len(log.metadata["skipped_updates"]) > 0
    assert log.metadata["n_updates"] + len(log.metadata["skipped_updates"]) \
        == len(sp.test)


def test_ol_physical_parameters_stay_anchored_to_the_prior():
    # a mechanistic model doing online steps keeps its parameters inside the
    # prior's reach even when the stream disagrees with physics
    rng = np.random.default_rng(5)
    n = 40
    p1 = rng.uniform(1.2e7, 2e7, n)
    X = np.column_stack([rng.uniform(0.3, 0.7, n), p1,
                         p1 * rng.uniform(0.5, 0.8, n),
                         rng.uniform(330, 360, n),
                         rng.uniform(0.2, 0.4, n),
                         rng.uniform(0.3, 0.5, n)])
    m0 = init_model("mm")
    y = predict(m0, X) * 1.6  # consistently 60 percent above physics
    ds = WellDataset(np.arange(float(n)), X, y, np.zeros(n, np.uint8),
                     np.ones(n, np.int64))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sp = chronological_split(ds, 4.5)
    log = run_ol(m0, sp, ol_cfg(5, gamma=1e-2,
                                loss=LossSpec(noise_std=0.05 * float(np.mean(y)))))
    assert np.all(np.isfinite(log.y_pred))
    assert log.metadata["n_updates"] == len(sp.test)


# ------------------------------------------------------------------ benchmark


def test_benchmark_repeats_the_previous_observation_per_well():
    rng = np.random.default_rng(7)
    n = 30
    X = rng.normal(size=(n, 6))
    y = rng.uniform(50, 150, n)
    wells = np.tile([1, 2], n // 2).astype(np.int64)
    ds = WellDataset(np.arange(float(n)), X, y, np.zeros(n, np.uint8), wells)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sp = chronological_split(ds, 9.5)
    m0 = init_model("benchmark")
    for runner, cfg in [(run_ol, ol_cfg(3)), (run_pbl, pbl_cfg(5.0))]:
        log = runner(m0, sp, cfg)
        for w in (1, 2):
            mask = sp.test.well == w
            truth = sp.test.y[mask]
            seed_y = sp.train.y[sp.train.well == w][-1]
            want = np.concatenate([[seed_y], truth[:-1]])
            np.testing.assert_allclose(log.y_pred[np.flatnonzero(mask)], want)


def test_benchmark_emits_nan_for_an_unseen_well():
    n = 10
    X = np.zeros((n, 6))
    y = np.arange(float(n))
    wells = np.ones(n, np.int64)
    wells[5:] = 9  # well 9 never appears in training
    ds = WellDataset(np.arange(float(n)), X, y, np.zeros(n, np.uint8), wells)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sp = chronological_split(ds, 4.5)
    log = run_ol(init_model("benchmark"), sp, ol_cfg(0))
    first_w9 = np.flatnonzero(log.well == 9)[0]
    assert np.isnan(log.y_pred[first_w9])


# ------------------------------------------------------------------ dispatch


def test_run_schedule_routes_by_mode():
    sp = affine_split()
    m0 = init_model("lr", seed=2)
    via_dispatch = run_schedule(m0, sp, ol_cfg(0))
    direct = run_ol(m0, sp, ol_cfg(0))
    np.testing.assert_array_equal(via_dispatch.y_pred, direct.y_pred)
    with pytest.raises(ConfigError):
        run_pbl(m0, sp, ol_cfg(0))
    with pytest.raises(ConfigError):
        run_ol(m0, sp, pbl_cfg(10.0))


def test_run_schedules_refuses_pbl_units_that_cannot_refit_together():
    """The refits of every PBL unit share one lockstep, so units that refit
    under different optimizer or early-stopping settings are refused; a
    unit that never refits (the benchmark) or an OL unit may differ."""
    from vfmlab.learning import run_schedules

    sp = affine_split()
    m0 = init_model("lr", seed=2)
    slower = pbl_cfg(10.0, ocfg=OptimizerConfig(gamma0=0.01, seed=1))
    for other in (slower, pbl_cfg(10.0, escfg=EarlyStoppingConfig(patience=2))):
        with pytest.raises(ConfigError, match="refit together"):
            run_schedules([(m0, sp, pbl_cfg(10.0)), (m0, sp, other)])
    logs = run_schedules([(m0, sp, pbl_cfg(10.0)), (init_model("benchmark"), sp, slower),
                          (m0, sp, ol_cfg(1))])
    assert [log.metadata["mode"] for log in logs] == ["pbl", "pbl", "ol"]


def test_the_step_count_is_an_ol_setting():
    # one source for the OL step count: the schedule's, required there and
    # refused on a PBL schedule, which would ignore it
    for bad in (None, -1):
        with pytest.raises(ConfigError):
            ol_cfg(bad)
    with pytest.raises(ConfigError):
        pbl_cfg(10.0, steps=3)


def test_period_and_window_are_pbl_settings():
    # run_ol reads neither, so an OL schedule refuses both
    for kw in ({"period_s": 10.0}, {"window_s": 5.0}):
        with pytest.raises(ConfigError):
            ol_cfg(1, **kw)


def test_log_round_trip_preserves_metadata(tmp_path):
    sp = affine_split()
    log = run_ol(init_model("lr", seed=2), sp, ol_cfg(2))
    p = tmp_path / "run.csv"
    write_log(log, p)
    sidecar = tmp_path / "run.csv.meta.json"
    assert sidecar.exists()
    assert json.loads(sidecar.read_text())["mode"] == "ol"
    back = read_log(p)
    np.testing.assert_array_equal(back.y_pred, log.y_pred)
    assert back.metadata["mode"] == "ol"
    assert back.metadata["n_updates"] == log.metadata["n_updates"]


def _meta_log(t, well, meta):
    n = len(t)
    return PredictionLog(np.asarray(t, np.int64), np.full(n, well, np.int64),
                         np.ones(n), np.ones(n), np.zeros(n, np.int64),
                         np.zeros(n, np.uint8), meta)


def test_concat_merges_the_metadata_of_every_part():
    ol = [_meta_log([0, 20], 1, {"mode": "ol", "kind": "nn", "steps": 3,
                                 "n_updates": 569, "skipped_updates": [40]}),
          _meta_log([10], 2, {"mode": "ol", "kind": "nn", "steps": 3,
                              "n_updates": 300, "skipped_updates": [30, 5]})]
    log = PredictionLog.concat(ol)
    assert log.metadata == {"mode": "ol", "kind": "nn", "steps": 3,
                            "n_updates": 869, "skipped_updates": [5, 30, 40]}
    np.testing.assert_array_equal(log.t, [0, 10, 20])
    np.testing.assert_array_equal(log.well, [1, 2, 1])

    pbl = [_meta_log([0], 1, {"mode": "pbl", "kind": "mm", "period_s": 10.0,
                              "window_s": None, "n_retrains": 4,
                              "failed_periods": [90]}),
           _meta_log([5], 2, {"mode": "pbl", "kind": "mm", "period_s": 10.0,
                              "window_s": None, "n_retrains": 2,
                              "failed_periods": [70]}),
           _meta_log([7], 3, {"mode": "pbl", "kind": "mm", "period_s": 20.0,
                              "window_s": None, "n_retrains": 1,
                              "failed_periods": []})]
    # period_s differs between the parts, so it is dropped
    assert PredictionLog.concat(pbl).metadata == {
        "mode": "pbl", "kind": "mm", "window_s": None, "n_retrains": 7,
        "failed_periods": [70, 90]}


def test_for_well_drops_the_counts_of_other_wells():
    meta = {"mode": "ol", "kind": "nn", "steps": 3}
    a = _meta_log([0, 20], 1, dict(meta, n_updates=2, skipped_updates=[40]))
    b = _meta_log([10], 2, dict(meta, n_updates=1, skipped_updates=[5]))
    both = PredictionLog.concat([a, b])
    assert both.metadata["n_updates"] == 3
    assert both.for_well(2).metadata == meta
    # a log that holds only that well keeps every key
    assert a.for_well(1).metadata == a.metadata


@pytest.mark.parametrize("key,other", [("mode", "pbl"), ("kind", "lr")])
def test_concat_refuses_parts_of_different_mode_or_kind(key, other):
    meta = {"mode": "ol", "kind": "nn", "n_updates": 1, "skipped_updates": []}
    a = _meta_log([0], 1, meta)
    b = _meta_log([1], 2, dict(meta, **{key: other}))
    with pytest.raises(DataError):
        PredictionLog.concat([a, b])


# ------------------------------------------------- mechanistic input checks


def _choke_split(col, row, value=0.0):
    """30 physically valid choke rows, split after row 19, with input col of
    row row set to value."""
    ds = make_dataset(n=30, seed=4)
    X = ds.X.copy()
    X[row, col] = value
    ds = WellDataset(ds.t, X, ds.y, ds.source, ds.well)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return chronological_split(ds, float(ds.t[20]))


@pytest.mark.parametrize("col", [1, 2, 3], ids=["p1", "p2", "T1"])
@pytest.mark.parametrize("kind", ["mm", "hem", "ham"])
def test_run_ol_refuses_a_nonpositive_mechanistic_input(kind, col):
    """A test row with p1, p2 or T1 <= 0 is a NumericError before any
    prediction, the error models.predict gives for the same row."""
    sp = _choke_split(col, 25)
    m0 = init_model(kind, seed=1)
    with pytest.raises(NumericError, match="positive p1, p2, T1"):
        predict(m0, sp.test.X)
    with pytest.raises(NumericError, match="positive p1, p2, T1"):
        run_ol(m0, sp, ol_cfg(2))


@pytest.mark.parametrize("col", [1, 2, 3], ids=["p1", "p2", "T1"])
def test_run_ol_refuses_an_infinite_mechanistic_input(col):
    """An infinite T1 makes the gas density zero, a divisor of the choke
    equation; all three inputs are refused when infinite."""
    sp = _choke_split(col, 25, np.inf)
    m0 = init_model("mm", seed=1)
    with pytest.raises(NumericError, match="none infinite"):
        predict(m0, sp.test.X)
    with pytest.raises(NumericError, match="none infinite"):
        run_ol(m0, sp, ol_cfg(2))


@pytest.mark.parametrize("row", [5, 25], ids=["train_row", "test_row"])
def test_run_pbl_refuses_a_nonpositive_mechanistic_input(row):
    """run_pbl checks every row its refits may train on, up front, instead of
    logging the refits that meet the row as failed periods."""
    sp = _choke_split(1, row)
    with pytest.raises(NumericError, match="positive p1, p2, T1"):
        run_pbl(init_model("mm", seed=1), sp, pbl_cfg(3 * 3600.0))


def test_fit_map_refuses_a_nonpositive_mechanistic_input():
    sp = _choke_split(3, 10)
    with pytest.raises(NumericError, match="positive p1, p2, T1"):
        fit_map(init_model("mm", seed=1), sp.train, LossSpec(noise_std=1.0),
                OptimizerConfig(seed=1), quick_escfg())


# -------------------------------------------------------- log timestamps


def test_fractional_timestamps_survive_the_drivers_and_the_log_file(tmp_path):
    """Epoch seconds with a fraction, as a CSV may carry them, reach the log
    and its file unrounded; whole seconds are still written as integers."""
    t0 = 1.7e9
    ds = make_dataset(n=40, t0=t0, dt=1800.25)
    path = tmp_path / "well.csv"
    write_csv(path, [ds])
    (ds,) = ingest_csv(path)
    assert ds.t[1] == t0 + 1800.25
    sp = chronological_split(ds, float(ds.t[30]))
    m0 = init_model("lr", seed=2)
    ol = run_ol(m0, sp, ol_cfg(1))
    pbl = run_pbl(m0, sp, pbl_cfg(3 * 1800.0))
    for log in (ol, pbl):
        np.testing.assert_array_equal(log.t, sp.test.t)
        assert log.t.dtype == np.float64
        out = tmp_path / f"{log.metadata['mode']}.csv"
        write_log(log, out)
        np.testing.assert_array_equal(read_log(out).t, sp.test.t)
    assert pbl.metadata["n_retrains"] == 3   # boundaries at +5400.0 s, +10800.0 s, ...

    whole = run_ol(m0, affine_split(), ol_cfg(1))
    write_log(whole, tmp_path / "whole.csv")
    lines = (tmp_path / "whole.csv").read_text().splitlines()
    assert lines[1].startswith("50,1,")
    assert read_log(tmp_path / "whole.csv").t.tolist() == whole.t.tolist()


# ------------------------------------------------------------ update sources


def test_ol_update_sources_take_the_source_spellings_of_the_csv_files():
    """The names of update_sources are parsed like a CSV's source column, so
    "welltest" selects the WellTest rows and updates once per such row."""
    sp = affine_split()
    n_welltest = int(np.sum(sp.test.source == 1))
    log = run_ol(init_model("lr", seed=2), sp, ol_cfg(3, update_sources=("welltest",)))
    assert log.metadata["n_updates"] == n_welltest > 0


def test_unknown_update_source_is_a_config_error():
    with pytest.raises(ConfigError, match="bogus"):
        ol_cfg(3, update_sources=("bogus",))
