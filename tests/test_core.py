"""Datasets, splits, scaling, CSV ingestion, and seeded substreams."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfmlab import (
    DataSplit,
    EmptyDatasetError,
    FeatureScaler,
    SchemaError,
    Source,
    WellDataset,
    chronological_split,
    fit_scaler,
    ingest_csv,
    ingest_csv_report,
    substream,
    write_csv,
)
from vfmlab.core import INVARIANT_REASONS, EmptySplitWarning, invariant_codes, parse_timestamp

from conftest import make_dataset, make_x


# ---------------------------------------------------------------- observations


def _violation(t, x, y):
    """The reason invariant_codes gives the one row (t, x, y), None if valid."""
    code = invariant_codes(np.array([t]), x[None, :], np.array([y]))[0]
    return None if code < 0 else INVARIANT_REASONS[code]


def test_valid_observation_has_no_violation():
    assert _violation(0.0, make_x(), 50.0) is None


@pytest.mark.parametrize(
    "field_patch, reason",
    [
        (dict(u=-0.1), "u_range"),
        (dict(u=1.2), "u_range"),
        (dict(p1=-5.0), "p1_nonpositive"),
        (dict(p2=0.0), "p2_nonpositive"),
        (dict(T1=0.0), "T1_nonpositive"),
        (dict(eta_oil=-0.01), "fraction_negative"),
        (dict(eta_oil=0.7, eta_gas=0.4), "fraction_sum"),
    ],
)
def test_observation_flags_each_invalid_field(field_patch, reason):
    assert _violation(0.0, make_x(**field_patch), 1.0) == reason


def test_observation_rejects_negative_flow_and_nonfinite():
    assert _violation(0.0, make_x(), -1.0) == "y_negative"
    nan_x = make_x()
    nan_x[2] = np.nan
    assert _violation(0.0, nan_x, 1.0) == "non_finite"


# -------------------------------------------------------------------- datasets


def test_dataset_rejects_decreasing_timestamps():
    ds = make_dataset(5)
    with pytest.raises(ValueError):
        WellDataset(ds.t[::-1].copy(), ds.X, ds.y, ds.source, ds.well)


def test_dataset_rejects_column_length_mismatch():
    ds = make_dataset(5)
    with pytest.raises(ValueError):
        WellDataset(ds.t[:4], ds.X, ds.y, ds.source, ds.well)


def test_merge_interleaves_chronologically_and_is_stable():
    a = make_dataset(5, well_id=1, t0=0.0, dt=100.0)
    b = make_dataset(5, well_id=2, t0=50.0, dt=100.0)
    m = WellDataset.merge([a, b])
    assert len(m) == 10
    assert np.all(np.diff(m.t) >= 0)
    assert len(m.well_ids) > 1
    assert m.well_ids == (1, 2)
    # equal timestamps keep input order: rebuild with identical clocks
    c = make_dataset(3, well_id=3, t0=0.0, dt=100.0)
    d = make_dataset(3, well_id=4, t0=0.0, dt=100.0)
    md = WellDataset.merge([c, d])
    assert list(md.well[:2]) == [3, 4]


def test_well_id_raises_on_mixed_and_empty():
    mixed = WellDataset.merge([make_dataset(3, well_id=1), make_dataset(3, well_id=2)])
    with pytest.raises(ValueError):
        mixed.well_id
    with pytest.raises(EmptyDatasetError):
        WellDataset.empty().well_id


def test_source_and_well_filters():
    ds = make_dataset(14, well_id=7)
    wt = ds.only_source(Source.WELLTEST)
    assert len(wt) == 2
    assert np.all(wt.source == 1)


def test_columns_are_read_only():
    ds = make_dataset(4)
    with pytest.raises(ValueError):
        ds.y[0] = 99.0


# ---------------------------------------------------------------------- splits


def test_split_boundary_row_goes_to_test_side():
    ds = WellDataset(np.array([1.0, 2.0, 3.0]), np.tile(make_x(), (3, 1)), np.ones(3),
                     np.zeros(3), np.ones(3))
    sp = chronological_split(ds, 3.0)
    assert list(sp.train.t) == [1.0, 2.0]
    assert list(sp.test.t) == [3.0]


def test_split_flags_empty_sides():
    ds = make_dataset(3, dt=1.0)
    with pytest.warns(EmptySplitWarning):
        sp = chronological_split(ds, -1.0)
    assert len(sp.train) == 0 and len(sp.test) == 3
    with pytest.warns(EmptySplitWarning):
        sp = chronological_split(ds, 99.0)
    assert len(sp.test) == 0


def test_split_of_empty_dataset_raises():
    with pytest.raises(EmptyDatasetError):
        chronological_split(WellDataset.empty(), 0.0)


def test_datasplit_validates_side_ordering():
    ds = make_dataset(4, dt=1.0)
    with pytest.raises(ValueError):
        DataSplit(train=ds, test=ds, split_time=2.0)


@given(st.integers(min_value=1, max_value=40), st.floats(min_value=-10, max_value=50))
@settings(max_examples=60, deadline=None)
def test_split_preserves_observation_multiset(n, cut):
    ds = make_dataset(n, dt=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySplitWarning)
        sp = chronological_split(ds, cut)
    assert len(sp.train) + len(sp.test) == n
    joined = np.concatenate([sp.train.y, sp.test.y])
    assert sorted(joined) == sorted(ds.y)


# ---------------------------------------------------------------------- scaler


def test_scaler_hand_example_mean_one_std_one():
    # u=2 violates ingestion ranges but the scaler itself is range-agnostic
    ds = WellDataset(np.array([0.0, 1.0]), np.stack([make_x(u=0.0), make_x(u=2.0)]),
                     np.array([1.0, 3.0]), np.zeros(2), np.ones(2))
    s = fit_scaler(ds)
    assert s.mean[0] == pytest.approx(1.0)
    assert s.std[0] == pytest.approx(1.0)
    z = s.transform(make_x(u=2.0))
    assert z[0] == pytest.approx(1.0)
    assert s.target_mean == pytest.approx(2.0)
    assert s.target_scale == pytest.approx(1.0)


def test_scaler_constant_column_coerced_to_unit_std():
    ds = make_dataset(6)
    X = ds.X.copy()
    X[:, 3] = 350.0
    ds2 = WellDataset(ds.t, X, ds.y, ds.source, ds.well)
    s = fit_scaler(ds2)
    assert s.std[3] == 1.0
    assert np.allclose(s.transform(ds2.X)[:, 3], 0.0)


def test_scaler_standardizes_fitting_window():
    ds = make_dataset(50)
    s = fit_scaler(ds)
    Z = s.transform(ds.X)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(Z.std(axis=0), 1.0, atol=1e-12)


def test_scaler_rejects_nonpositive_std_or_scale():
    with pytest.raises(ValueError):
        FeatureScaler(np.zeros(6), np.zeros(6))
    with pytest.raises(ValueError):
        FeatureScaler(np.zeros(6), np.ones(6), 0.0, 0.0)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=6, max_size=6))
@settings(max_examples=80, deadline=None)
def test_scaler_round_trip_recovers_input(vals):
    s = fit_scaler(make_dataset(30, seed=3))
    x = np.array(vals)
    back = s.transform(x) * s.std + s.mean
    assert np.allclose(back, x, rtol=1e-12, atol=1e-9)


def test_scaler_on_empty_dataset_raises():
    with pytest.raises(EmptyDatasetError):
        fit_scaler(WellDataset.empty())


# ------------------------------------------------------------------- ingestion


def _write_rows(path, rows, header=None):
    cols = header or [
        "well_id", "t", "u", "p1", "p2", "T1", "eta_oil", "eta_gas", "q_total", "source",
    ]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        w.writerows(rows)


def _row(well=1, t="100", u="0.5", p1="15000000", p2="9000000", T1="350",
         eo="0.3", eg="0.5", q="55.5", src="MPFM"):
    return [well, t, u, p1, p2, T1, eo, eg, q, src]


def test_ingest_groups_by_well_and_sorts(tmp_path):
    f = tmp_path / "wells.csv"
    _write_rows(f, [_row(well=2, t="300"), _row(well=1, t="200"), _row(well=1, t="100")])
    out = ingest_csv(f)
    assert [d.well_id for d in out] == [1, 2]
    assert list(out[0].t) == [100.0, 200.0]


def test_ingest_drops_invalid_rows_and_counts_reasons(tmp_path):
    f = tmp_path / "wells.csv"
    _write_rows(f, [
        _row(t="1"),
        _row(t="2", p1="-5"),
        _row(t="3", q="not_a_number"),
        _row(t="4", u="1.5"),
    ])
    out, rep = ingest_csv_report(f)
    assert rep.n_read == 4
    assert rep.n_accepted == 1
    assert rep.n_rejected == 3
    assert rep.reject_reasons == {"p1_nonpositive": 1, "unparseable": 1, "u_range": 1}
    sidecar = tmp_path / "wells.csv.rejects.csv"
    assert sidecar.exists()
    lines = sidecar.read_text().strip().splitlines()
    assert len(lines) == 4  # header + 3 rejects
    assert lines[0].endswith("reason")


def test_ingest_missing_column_is_schema_error(tmp_path):
    f = tmp_path / "bad.csv"
    _write_rows(f, [_row()], header=["well_id", "t", "u", "p1", "p2", "T1",
                                     "eta_oil", "eta_gas", "q_total"])
    with pytest.raises(SchemaError):
        ingest_csv(f)


def test_ingest_empty_file_is_schema_error(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("")
    with pytest.raises(SchemaError):
        ingest_csv(f)


def test_ingest_all_rows_invalid_is_empty_dataset_error(tmp_path):
    f = tmp_path / "junk.csv"
    _write_rows(f, [_row(p1="-1"), _row(p2="-1")])
    with pytest.raises(EmptyDatasetError):
        ingest_csv(f)


def test_ingest_accepts_iso_timestamps(tmp_path):
    f = tmp_path / "iso.csv"
    _write_rows(f, [
        _row(t="2020-01-01T00:00:00Z"),
        _row(t="2020-01-01T01:00:00Z"),
    ])
    (ds,), rep = ingest_csv_report(f)
    assert rep.n_accepted == 2
    assert ds.t[1] - ds.t[0] == 3600.0
    assert parse_timestamp("2020-01-01T00:00:00Z") == ds.t[0]


def test_ingest_write_ingest_is_idempotent(tmp_path):
    f1 = tmp_path / "a.csv"
    _write_rows(f1, [
        _row(well=1, t="100.5", q="55.125"),
        _row(well=2, t="50", src="WellTest"),
        _row(well=1, t="200", eo="0.25"),
    ])
    first = ingest_csv(f1)
    f2 = tmp_path / "b.csv"
    write_csv(f2, first)
    second = ingest_csv(f2)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.well_id == b.well_id
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.source, b.source)


def test_source_string_round_trip():
    assert Source.from_str("MPFM") is Source.MPFM
    assert Source.from_str("welltest") is Source.WELLTEST
    assert Source.from_str("well_test") is Source.WELLTEST
    assert Source.WELLTEST.to_str() == "WellTest"
    with pytest.raises(ValueError):
        Source.from_str("sonar")


# ------------------------------------------------------------------------- rng


def test_substream_is_deterministic_and_name_separated():
    a = substream(42, "scenario", 0).standard_normal(4)
    b = substream(42, "scenario", 0).standard_normal(4)
    c = substream(42, "init", 0).standard_normal(4)
    d = substream(42, "scenario", 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
