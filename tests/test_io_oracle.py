"""The columnar ingest and writers against the row-at-a-time reference in
``tests/loop_io.py``: the same datasets byte for byte, the same
``IngestReport``, the same rejects sidecar and the same written bytes."""

import csv
import datetime as dt

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import loop_io
from vfmlab import MetricReport, PredictionLog, ShiftReport, WellDataset
from vfmlab.core import CSV_HEADER, INVARIANT_REASONS, ingest_csv_report

# each column's valid spellings first; then values that break one invariant
# or do not parse
FIELDS = {
    "u": ["0.5", "0", "1", " 0.25", "1.5", "-0.1", "nan"],
    "p1": ["15000000", "1.2e7", "-5", "0", "inf", "1_000"],
    "p2": ["9000000", "8e6", "0", "-1e6", "abc"],
    "T1": ["350", "340.5", "0", "-1"],
    "eta_oil": ["0.3", "0", "-0.0", "-0.01", "0.7", "-inf"],
    "eta_gas": ["0.5", "0.2", "0.4", "-1e-9", "inf", "0.6"],
    "q_total": ["55.5", "0", "-0.0", "1e3", "-1", "nan", "1.2.3"],
    "source": ["MPFM", "WellTest", "welltest", " well-test ", "Venturi", ""],
    "well_id": ["1", "2", " 3", "-4", "1.0", "x"],
    "note": ["", "a", "b,c"],
}
BLANK_LINES = ([], ["", "  "], [" "] * 11)
T0 = dt.datetime(2020, 1, 1, tzinfo=dt.timezone.utc)


def _time_field(iso: bool):
    # small integers, so rows tie and arrive out of order
    step = st.integers(0, 40)
    if iso:
        good = step.map(lambda h: (T0 + dt.timedelta(hours=h)).isoformat().replace("+00:00", "Z"))
        naive = step.map(lambda h: (T0 + dt.timedelta(minutes=h)).replace(tzinfo=None).isoformat())
        return st.one_of(good, good, naive, st.sampled_from(["2020-13-01T00:00:00", "100"]))
    whole = step.map(str)
    return st.one_of(whole, whole, step.map(lambda s: f"{s}.5"),
                     st.sampled_from(["nan", "-inf", "1e3", "2020-01-01T00:00:00Z", "t"]))


@st.composite
def csv_files(draw):
    """The rows of one well CSV: a header in any column order (with an extra
    column), then data rows, blank lines and short rows."""
    header = draw(st.permutations(list(CSV_HEADER) + ["note"]))
    iso = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["valid", "valid", "valid", "mutated", "mutated",
                                     "blank", "short"]))
        if kind == "blank":
            rows.append(list(draw(st.sampled_from(BLANK_LINES))))
            continue
        values = {name: opts[0] for name, opts in FIELDS.items()}
        values["t"] = draw(_time_field(iso))
        if kind == "mutated":
            for name in draw(st.lists(st.sampled_from(sorted(FIELDS)), min_size=1, max_size=3)):
                values[name] = draw(st.sampled_from(FIELDS[name]))
        row = [values[name] for name in header]
        if kind == "short":
            row = row[:draw(st.integers(0, len(row) - 1))]
        rows.append(row)
    return [header] + rows


def _write(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=csv_files())
def test_ingest_matches_the_row_at_a_time_reference(tmp_path, rows):
    path = tmp_path / "wells.csv"
    _write(path, rows)
    assert loop_io.ingest_differences(path) == []


def test_every_reject_reason_and_unparseable_field_matches_the_reference(tmp_path):
    header = list(CSV_HEADER)
    good = dict(well_id="1", t="100", u="0.5", p1="15000000", p2="9000000", T1="350",
                eta_oil="0.3", eta_gas="0.5", q_total="55.5", source="MPFM")
    patches = [
        {}, dict(u="nan"), dict(u="1.5"), dict(p1="-5"), dict(p2="0"), dict(T1="-1"),
        dict(eta_oil="-0.01"), dict(eta_oil="0.7", eta_gas="0.4"), dict(q_total="-1"),
        dict(u="1.5", p1="-5"), dict(q_total="not_a_number"), dict(source="Venturi"),
        dict(well_id="1.0"), dict(t="50", well_id="2"), dict(t="20", source="WellTest"),
        dict(t="20"),
    ]
    rows = [header] + [[{**good, **p}[c] for c in header] for p in patches]
    rows.insert(3, [])
    rows.append(rows[1][:4])  # a short row
    path = tmp_path / "wells.csv"
    _write(path, rows)
    assert loop_io.ingest_differences(path) == []
    datasets, report = ingest_csv_report(path)
    assert set(report.reject_reasons) == set(INVARIANT_REASONS) | {"unparseable"}
    assert report.reject_reasons["unparseable"] == 4
    assert [list(ds.t) for ds in datasets] == [[20.0, 20.0, 100.0], [50.0]]
    assert list(datasets[0].source) == [1, 0, 0]


def test_iso_times_are_decided_on_the_first_row_with_a_time_field(tmp_path):
    header = list(CSV_HEADER)
    row = ["1", "2020-01-01T01:00:00Z", "0.5", "15000000", "9000000", "350", "0.3", "0.5",
           "55.5", "MPFM"]
    rows = [header, row[:1], row, [*row[:1], "2020-01-01T00:00:00", *row[2:]],
            [*row[:1], "3600", *row[2:]]]
    path = tmp_path / "wells.csv"
    _write(path, rows)
    assert loop_io.ingest_differences(path) == []
    (ds,), report = ingest_csv_report(path)
    assert list(ds.t) == [1577836800.0, 1577840400.0]
    assert report.reject_reasons == {"unparseable": 2}


# -------------------------------------------------------------------- writers

SPECIAL = [0.0, -0.0, 0.5, 1.0 / 3.0, 100.0, 1e-300, 1e300, 2.0**53, -2.0**53,
           2.0**53 + 2.0, 2.0**60, float("nan"), float("inf"), -float("inf")]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True),
                   st.integers(-10**6, 10**6).map(float))


@st.composite
def columns(draw, n_cols):
    n = draw(st.integers(0, 12))
    cols = [np.array(draw(st.lists(FLOATS, min_size=n, max_size=n))) for _ in range(n_cols)]
    t = np.sort(np.array(draw(st.lists(st.one_of(st.sampled_from(SPECIAL[:10]),
                                                    st.floats(-1e12, 1e12)),
                                          min_size=n, max_size=n))))
    codes = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
    ints = np.array(draw(st.lists(st.integers(-3, 10**6), min_size=n, max_size=n)),
                    dtype=np.int64)
    return t, cols, codes, ints


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=columns(9))
def test_writers_match_the_row_at_a_time_reference(tmp_path, data):
    t, cols, codes, ints = data
    n = len(t)
    ds = WellDataset(t, np.column_stack(cols[:6]) if n else np.zeros((0, 6)), cols[6], codes,
                     ints)
    log = PredictionLog(t, ints, cols[6], cols[7], np.abs(ints), codes,
                        metadata={"n": n})
    rolling = MetricReport(per_well_mape={}, cross_well_mean=0.0, percentiles=(),
                           rolling_series=(t, cols[0], cols[1], cols[2]))
    shift = ShiftReport(t, cols[3], cols[4], cols[5], cols[8] > 0.0, None)
    assert loop_io.writer_differences(tmp_path, [ds], [log], [rolling], [shift]) == []
