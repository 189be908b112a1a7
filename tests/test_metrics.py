"""MAPE, rolling error, percentile summaries, and their serializers."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfmlab import (
    DataError,
    PredictionLog,
    mape,
    mape_details,
    metric_report,
    read_log,
    rolling_mae,
    summarize,
    write_log,
    write_rolling_csv,
    write_summary_csv,
)
from vfmlab.metrics import (DEFAULT_WINDOW_S, PERCENTILES, _column_nanpercentiles,
                            _rolling_mean)

DAY = 86400.0


def make_log(y_true, y_pred, t=None, well=None, version=None):
    n = len(y_true)
    t = np.asarray(t, dtype=float) if t is not None else DAY * np.arange(n)
    return PredictionLog(
        t=t,
        well=np.asarray(well if well is not None else np.ones(n), dtype=np.int64),
        y_true=np.asarray(y_true, dtype=float),
        y_pred=np.asarray(y_pred, dtype=float),
        model_version=np.asarray(version if version is not None else np.zeros(n), dtype=np.int64),
        source=np.zeros(n, dtype=np.uint8),
    )


# ------------------------------------------------------------------------ mape


def test_mape_hand_example():
    log = make_log([100.0, 100.0], [90.0, 110.0])
    assert mape(log) == pytest.approx(10.0)


def test_mape_of_perfect_predictions_is_zero():
    log = make_log([5.0, 7.0, 9.0], [5.0, 7.0, 9.0])
    assert mape(log) == 0.0


def test_mape_excludes_and_counts_zero_targets():
    log = make_log([100.0, 0.0, 50.0], [90.0, 3.0, 55.0])
    val, n_scored, n_zero = mape_details(log)
    assert n_scored == 2
    assert n_zero == 1
    assert val == pytest.approx(100.0 * (0.1 + 0.1) / 2)


def test_mape_excludes_and_counts_non_finite_predictions():
    """A NaN or infinite prediction has no percentage error: it is left out
    and counted with the zero targets, so the MAPE stays finite."""
    log = make_log([100.0, 100.0, 50.0, 0.0, 80.0],
                   [90.0, np.nan, 55.0, np.inf, -np.inf])
    val, n_scored, n_excluded = mape_details(log)
    assert n_scored == 2
    assert n_excluded == 3
    assert val == pytest.approx(100.0 * (0.1 + 0.1) / 2)
    assert metric_report(log).n_excluded == 3


def test_mape_of_only_non_finite_predictions_raises():
    log = make_log([100.0, 50.0], [np.nan, np.inf])
    with pytest.raises(DataError):
        mape(log)


def test_mape_with_no_scoreable_entries_raises():
    log = make_log([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(DataError):
        mape(log)


def test_mape_per_well_selection():
    log = make_log([100, 100, 200], [90, 110, 210], well=[1, 1, 2])
    assert mape(log, 1) == pytest.approx(10.0)
    assert mape(log, 2) == pytest.approx(5.0)


@given(st.lists(st.tuples(st.floats(min_value=1.0, max_value=1e4),
                          st.floats(min_value=-1e4, max_value=1e4)),
                min_size=1, max_size=30))
@settings(max_examples=80, deadline=None)
def test_mape_matches_hand_summed_oracle(pairs):
    y = np.array([p[0] for p in pairs])
    yp = np.array([p[1] for p in pairs])
    expected = 100.0 * sum(abs(a - b) / abs(a) for a, b in pairs) / len(pairs)
    assert mape(make_log(y, yp)) == pytest.approx(expected, rel=1e-12)


def test_mape_is_scale_invariant():
    y = np.array([40.0, 80.0, 120.0])
    yp = np.array([44.0, 72.0, 126.0])
    a = mape(make_log(y, yp))
    b = mape(make_log(y * 7.5, yp * 7.5))
    assert a == pytest.approx(b, rel=1e-12)


# --------------------------------------------------------------------- rolling


def test_rolling_constant_error_is_constant():
    log = make_log(np.full(10, 50.0), np.full(10, 48.0))
    t, v = rolling_mae(log, window_s=14 * DAY)
    assert np.allclose(v, 2.0)
    assert np.array_equal(t, log.t)


def test_rolling_single_entry_equals_its_error():
    log = make_log([80.0], [100.0])
    _, v = rolling_mae(log, window_s=14 * DAY)
    assert v[0] == pytest.approx(20.0)


def test_rolling_matches_brute_force_window():
    rng = np.random.default_rng(4)
    n = 60
    t = np.cumsum(rng.uniform(0.2, 1.4, n)) * DAY
    y = rng.uniform(10, 100, n)
    yp = y + rng.normal(0, 5, n)
    log = make_log(y, yp, t=t)
    window = 5 * DAY
    _, v = rolling_mae(log, window_s=window)
    err = np.abs(y - yp)
    for i in range(n):
        sel = (t > t[i] - window) & (t <= t[i])
        assert v[i] == pytest.approx(err[sel].mean(), rel=1e-12)


def test_rolling_window_covering_everything_is_cumulative_mean():
    log = make_log([10, 20, 30, 40.0], [11, 18, 33, 36.0])
    _, v = rolling_mae(log, window_s=1e12)
    err = np.abs(log.y_true - log.y_pred)
    expected = np.cumsum(err) / np.arange(1, 5)
    assert np.allclose(v, expected)


# ------------------------------------------------------------------- summaries


def test_report_percentiles_are_sorted_and_match_numpy():
    wells = [1, 2, 3, 4, 5]
    y, yp, w = [], [], []
    rng = np.random.default_rng(11)
    for i, wid in enumerate(wells):
        yy = rng.uniform(20, 200, 40)
        y.append(yy)
        yp.append(yy * (1 + 0.01 * (i + 1)))
        w.append(np.full(40, wid))
    log = make_log(np.concatenate(y), np.concatenate(yp),
                   t=DAY * np.arange(200), well=np.concatenate(w))
    rep = metric_report(log)
    per = np.array(sorted(rep.per_well_mape.values()))
    assert rep.percentiles == tuple(np.percentile(per, (10, 25, 50, 75, 90)))
    assert list(rep.percentiles) == sorted(rep.percentiles)
    assert rep.cross_well_mean == pytest.approx(per.mean())


def _nanpercentile_oracle(a, qs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # all-NaN columns
        return np.stack([np.nanpercentile(a, q, axis=0) for q in qs])


@pytest.mark.parametrize("seed", range(40))
def test_column_percentiles_equal_nanpercentile_bit_for_bit(seed):
    """NaN patterns, ties (values rounded to one decimal), all-NaN columns
    and columns with a single value."""
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 8)), int(rng.integers(3, 50))
    a = rng.standard_normal((rows, cols))
    if seed % 2:
        a = np.round(a, 1)
    a[rng.random((rows, cols)) < rng.uniform(0.0, 0.8)] = np.nan
    a[:, 0] = np.nan
    a[:, 1] = np.nan
    a[rows - 1, 1] = 1.5
    a[:, 2] = 0.25
    for qs in [(25, 75), PERCENTILES]:
        got = _column_nanpercentiles(a, qs)
        assert np.array_equal(got, _nanpercentile_oracle(a, qs), equal_nan=True)
        assert np.all(np.isnan(got[:, 0]))
        assert np.all(got[:, 1] == 1.5)


def test_report_bands_equal_nanpercentile_of_per_well_rolling_errors():
    """Wells of different lengths leave NaNs at the start of the shorter ones."""
    rng = np.random.default_rng(5)
    t = DAY * np.arange(300)
    well = rng.integers(1, 5, 300)
    well[:60] = 1
    y = rng.uniform(20, 200, 300)
    log = make_log(y, y * rng.uniform(0.8, 1.2, 300), t=t, well=well)
    rep = metric_report(log)
    per_well = np.stack([
        _rolling_mean(t[well == w], np.abs(log.y_true - log.y_pred)[well == w],
                      DEFAULT_WINDOW_S, t)
        for w in log.well_ids()])
    assert np.isnan(per_well).any()
    want = _nanpercentile_oracle(per_well, (25, 75))
    _, _, p25, p75 = rep.rolling_series
    assert np.array_equal(p25, want[0], equal_nan=True)
    assert np.array_equal(p75, want[1], equal_nan=True)


def test_summary_single_cell_all_equals_that_mape():
    log = make_log([100.0, 100.0], [90.0, 90.0])
    table = summarize({("OL", "lr"): log})
    assert table.cell("OL", "lr") == pytest.approx(10.0)
    assert table.all_column[0] == pytest.approx(10.0)


def test_summary_two_wells_mean_and_benchmark_exclusion():
    log_a = make_log([100, 100], [96, 96], well=[1, 1])
    log_b = make_log([100, 100], [94, 94], well=[2, 2])
    both = PredictionLog.concat([log_a.for_well(1), log_b.for_well(2)])
    table = summarize({
        ("OL", "lr"): both,
        ("OL", "benchmark"): make_log([100, 100], [50, 50]),
    })
    assert table.cell("OL", "lr") == pytest.approx(5.0)
    # the naive predictor is reported but kept out of the All average
    assert table.all_column[0] == pytest.approx(5.0)
    assert table.cell("OL", "benchmark") == pytest.approx(50.0)


def test_summary_empty_input_raises():
    with pytest.raises(DataError):
        summarize({})


# --------------------------------------------------------------- serialization


def test_log_round_trip_preserves_all_columns(tmp_path):
    rng = np.random.default_rng(9)
    y = rng.uniform(5, 50, 12)
    log = make_log(y, y * 1.05, well=rng.integers(1, 4, 12),
                   version=np.arange(12))
    p = tmp_path / "log.csv"
    write_log(log, p)
    back = read_log(p)
    assert np.array_equal(back.t, log.t)
    assert np.array_equal(back.well, log.well)
    assert np.array_equal(back.y_true, log.y_true)
    assert np.array_equal(back.y_pred, log.y_pred)
    assert np.array_equal(back.model_version, log.model_version)
    assert np.array_equal(back.source, log.source)


def test_summary_and_rolling_csv_shapes(tmp_path):
    log = make_log([100.0, 100.0], [90.0, 110.0])
    table = summarize({("OL", "lr"): log})
    sp = tmp_path / "summary.csv"
    write_summary_csv(table, sp)
    lines = sp.read_text().strip().splitlines()
    assert lines[0] == "method,lr,All"
    assert lines[1].startswith("OL,10,")
    rp = tmp_path / "rolling.csv"
    write_rolling_csv(table.reports[("OL", "lr")], rp)
    rl = rp.read_text().strip().splitlines()
    assert rl[0] == "t,rolling_mae,p25,p75"
    assert len(rl) == 3


def test_log_rejects_unsorted_or_ragged_columns():
    with pytest.raises(DataError):
        make_log([1.0, 2.0], [1.0, 2.0], t=[5.0, 1.0])
    with pytest.raises(DataError):
        PredictionLog(t=np.array([0.0]), well=np.array([1, 2]),
                      y_true=np.array([1.0]), y_pred=np.array([1.0]),
                      model_version=np.array([0]), source=np.array([0]))
