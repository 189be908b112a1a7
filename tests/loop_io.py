"""The row-at-a-time text I/O as it stood before the columnar rewrite,
frozen as an oracle.

``ingest_csv_report`` is the package's ingest as it was then: one
``Observation`` per row (the package's row record then, kept here since the
package dropped it), each row's invariants checked on its own
(``invariant_violation``, the per-row check ``Observation`` made then), each
well's rows sorted by time in Python.  ``write_csv``, ``write_log``,
``write_rolling_csv`` and ``write_shift_csv`` are the writers as they were
then, formatting one element at a time.  ``read_log`` is the prediction-log
reader as it was then: one ``float``, ``int`` or ``Source.from_str`` call per
field.  ``test_io_oracle`` and ``tools/io_layer.py --smoke`` assert that the
package's ingest returns the same datasets byte for byte, the same
``IngestReport`` and the same rejects sidecar bytes, that its writers write
the same bytes, and that its ``read_log`` reads the same log or raises the
same error.  Do not edit these bodies to follow a change in the package:
they are the reference.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vfmlab.core import (COLUMNS, CSV_HEADER, D_INPUT, IngestReport, Source, WellDataset,
                         parse_timestamp)
from vfmlab.errors import EmptyDatasetError, SchemaError
from vfmlab.learning import PredictionLog


@dataclass(frozen=True)
class Observation:
    """One timestamped sample of a well."""

    t: float
    x: np.ndarray  # shape (6,), (u, p1, p2, T1, eta_oil, eta_gas)
    y: float
    source: Source
    well_id: int


def invariant_violation(obs: Observation) -> str | None:
    x = obs.x
    if x.shape != (D_INPUT,):
        return "x_dim"
    if not (np.all(np.isfinite(x)) and np.isfinite(obs.y) and np.isfinite(obs.t)):
        return "non_finite"
    u, p1, p2, t1, eo, eg = x
    if not 0.0 <= u <= 1.0:
        return "u_range"
    if p1 <= 0.0:
        return "p1_nonpositive"
    if p2 <= 0.0:
        return "p2_nonpositive"
    if t1 <= 0.0:
        return "T1_nonpositive"
    if eo < 0.0 or eg < 0.0:
        return "fraction_negative"
    if eo + eg > 1.0:
        return "fraction_sum"
    if obs.y < 0.0:
        return "y_negative"
    return None


def from_observations(obs) -> WellDataset:
    obs = sorted(obs, key=lambda o: o.t)
    n = len(obs)
    t = np.array([o.t for o in obs], dtype=np.float64)
    X = np.array([o.x for o in obs], dtype=np.float64).reshape(n, D_INPUT)
    y = np.array([o.y for o in obs], dtype=np.float64)
    src = np.array([int(o.source) for o in obs], dtype=np.uint8)
    well = np.array([o.well_id for o in obs], dtype=np.int64)
    return WellDataset(t, X, y, src, well)


def ingest_csv_report(path: str | Path) -> tuple[list[WellDataset], IngestReport]:
    path = Path(path)
    report = IngestReport()
    rejects: list[tuple[list[str], str]] = []
    rows_by_well: dict[int, list[Observation]] = {}

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        missing = [c for c in CSV_HEADER if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        col = {name: header.index(name) for name in CSV_HEADER}

        iso_time: bool | None = None  # decided on the first data row
        for raw in reader:
            if not raw or all(not c.strip() for c in raw):
                continue
            report.n_read += 1
            reason = None
            obs = None
            try:
                tfield = raw[col["t"]].strip()
                if iso_time is None:
                    try:
                        float(tfield)
                        iso_time = False
                    except ValueError:
                        iso_time = True
                t = parse_timestamp(tfield) if iso_time else float(tfield)
                x = np.array([float(raw[col[c]]) for c in COLUMNS], dtype=np.float64)
                obs = Observation(
                    t=t, x=x, y=float(raw[col["q_total"]]),
                    source=Source.from_str(raw[col["source"]]),
                    well_id=int(raw[col["well_id"]]),
                )
                if not -2**63 <= obs.well_id < 2**63:
                    raise ValueError("well id beyond int64")
            except (ValueError, IndexError):
                reason = "unparseable"
            if reason is None:
                reason = invariant_violation(obs)
            if reason is None:
                rows_by_well.setdefault(obs.well_id, []).append(obs)
                report.n_accepted += 1
            else:
                report.n_rejected += 1
                report.reject_reasons[reason] = report.reject_reasons.get(reason, 0) + 1
                rejects.append((list(raw), reason))

    reject_path = path.with_name(path.name + ".rejects.csv")
    with open(reject_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(CSV_HEADER) + ["reason"])
        for raw, reason in rejects:
            writer.writerow(raw + [reason])

    if not rows_by_well:
        raise EmptyDatasetError(f"{path}: no valid observations")
    datasets = [from_observations(rows_by_well[w]) for w in sorted(rows_by_well)]
    return datasets, report


def time_value(t: float) -> int | float:
    t = float(t)
    return int(t) if t.is_integer() else t


def _format_float(v: float) -> str:
    # shortest round-trip decimal; integral values print without the mantissa
    if float(v).is_integer() and abs(v) < 2**53:
        return str(int(v))
    return repr(float(v))


def write_csv(path: str | Path, datasets) -> None:
    merged = WellDataset.merge(list(datasets))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for i in range(len(merged)):
            x = merged.X[i]
            writer.writerow(
                [int(merged.well[i]), _format_float(merged.t[i])]
                + [_format_float(v) for v in x]
                + [_format_float(merged.y[i]), Source(int(merged.source[i])).to_str()]
            )


_LOG_HEADER = "t,well_id,y_true,y_pred,model_version,source"


def write_log(log, path: str | Path) -> None:
    path = Path(path)
    lines = [_LOG_HEADER]
    for i in range(len(log)):
        lines.append(f"{time_value(log.t[i])!r},{int(log.well[i])},"
                     f"{float(log.y_true[i])!r},{float(log.y_pred[i])!r},"
                     f"{int(log.model_version[i])},{Source(int(log.source[i])).to_str()}")
    path.write_text("\n".join(lines) + "\n")
    sidecar = path.with_name(path.name + ".meta.json")
    sidecar.write_text(json.dumps(log.metadata, indent=2, sort_keys=True) + "\n")


def read_log(path: str | Path) -> PredictionLog:
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: cannot read: {e}") from None
    if not lines or lines[0] != _LOG_HEADER:
        raise SchemaError(f"{path}: not a prediction log")
    rows = [ln.split(",") for ln in lines[1:] if ln]
    if any(len(r) != 6 for r in rows):
        raise SchemaError(f"{path}: a log row needs 6 fields")
    t, w, yt, yp, v, src = zip(*rows) if rows else [()] * 6
    try:
        cols = (np.array([float(x) for x in t]), np.array([int(x) for x in w], dtype=np.int64),
                np.array([float(x) for x in yt]), np.array([float(x) for x in yp]),
                np.array([int(x) for x in v], dtype=np.int64),
                np.array([int(Source.from_str(x)) for x in src], dtype=np.uint8))
    except (ValueError, OverflowError) as e:
        raise SchemaError(f"{path}: a log field does not parse ({e})") from None
    sidecar = path.with_name(path.name + ".meta.json")
    try:
        meta = json.loads(sidecar.read_text()) if sidecar.exists() else {}
    except ValueError as e:   # not UTF-8, or not JSON
        raise SchemaError(f"{sidecar}: not valid JSON ({e})") from None
    if not isinstance(meta, dict):
        raise SchemaError(f"{sidecar}: log metadata must be a JSON object")
    return PredictionLog(*cols, meta)


def write_rolling_csv(report, path: str | Path) -> None:
    t, v, p25, p75 = report.rolling_series
    lines = ["t,rolling_mae,p25,p75"]
    for i in range(len(t)):
        lines.append(f"{time_value(t[i])!r},{float(v[i])!r},"
                     f"{float(p25[i])!r},{float(p75[i])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_shift_csv(report, path: str | Path) -> None:
    lines = ["t,ht2,f_stat,f_crit,detected"]
    for i in range(len(report)):
        lines.append(f"{time_value(report.t[i])!r},{float(report.ht2[i])!r},"
                     f"{float(report.f_stat[i])!r},{float(report.f_crit[i])!r},"
                     f"{int(report.detected[i])}")
    Path(path).write_text("\n".join(lines) + "\n")


# --------------------------------------------------- comparison with vfmlab


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def ingest_differences(path: str | Path) -> list[str]:
    """How ``vfmlab.core.ingest_csv_report`` on one file differs from the
    reference: the datasets byte for byte (or the error raised), the
    ``IngestReport`` with the order of its reasons, the rejects sidecar
    bytes.  An empty list when they agree."""
    from vfmlab import core

    path = Path(path)
    sidecar = path.with_name(path.name + ".rejects.csv")
    got = {}
    for side, ingest in (("reference", ingest_csv_report), ("vfmlab", core.ingest_csv_report)):
        try:
            result = ingest(path)
        except EmptyDatasetError as e:
            result = (type(e).__name__, str(e))
        got[side] = (result, sidecar.read_bytes())
    (want, want_rejects), (have, have_rejects) = got["reference"], got["vfmlab"]
    out = []
    if have_rejects != want_rejects:
        out.append(f"{path.name}: rejects sidecar bytes differ")
    if isinstance(want[0], str) or isinstance(have[0], str):
        if have != want:
            out.append(f"{path.name}: raised or returned {have[0]!r}, reference {want[0]!r}")
        return out
    (want_ds, want_rep), (have_ds, have_rep) = want, have
    if have_rep != want_rep or list(have_rep.reject_reasons) != list(want_rep.reject_reasons):
        out.append(f"{path.name}: report {have_rep}, reference {want_rep}")
    if len(have_ds) != len(want_ds):
        out.append(f"{path.name}: {len(have_ds)} wells, reference {len(want_ds)}")
    for a, b in zip(have_ds, want_ds):
        for name in ("t", "X", "y", "source", "well"):
            if not _same_array(getattr(a, name), getattr(b, name)):
                out.append(f"{path.name}: well {b.well_id} column {name} differs")
    return out


def log_differences(path: str | Path) -> list[str]:
    """How ``vfmlab.learning.read_log`` on one log differs from the
    reference: each column byte for byte and the metadata, or the error
    raised, its type and message.  An empty list when they agree."""
    from vfmlab import learning
    from vfmlab.errors import VfmlabError

    path = Path(path)
    got = {}
    for side, read in (("reference", read_log), ("vfmlab", learning.read_log)):
        try:
            log = read(path)
        except VfmlabError as e:
            got[side] = f"{type(e).__name__}: {e}"
        else:
            got[side] = {name: getattr(log, name) for name in (
                "t", "well", "y_true", "y_pred", "model_version", "source", "metadata")}
    want, have = got["reference"], got["vfmlab"]
    if isinstance(want, str) or isinstance(have, str):
        return [] if have == want else [f"{path.name}: read_log gave {str(have)[:200]}, "
                                        f"reference {str(want)[:200]}"]
    return [f"{path.name}: read_log column {name} differs" for name in want
            if (have[name] != want[name] if name == "metadata"
                else not _same_array(have[name], want[name]))]


def writer_differences(out_dir: str | Path, datasets, logs, rolling, shifts) -> list[str]:
    """How the bytes of ``vfmlab``'s four writers differ from the reference's
    on the same inputs, written under ``out_dir``; an empty list when they
    agree.  ``logs``, ``rolling`` and ``shifts`` are lists of prediction
    logs, metric reports and shift reports."""
    from vfmlab import core, drift, learning, metrics

    out_dir = Path(out_dir)
    calls = [("wells.csv", list(datasets), lambda ds, p: core.write_csv(p, ds),
              lambda ds, p: write_csv(p, ds))]
    calls += [(f"log_{i}.csv", log, learning.write_log, write_log) for i, log in enumerate(logs)]
    calls += [(f"rolling_{i}.csv", rep, metrics.write_rolling_csv, write_rolling_csv)
              for i, rep in enumerate(rolling)]
    calls += [(f"shift_{i}.csv", rep, drift.write_shift_csv, write_shift_csv)
              for i, rep in enumerate(shifts)]
    out = []
    for name, arg, have, want in calls:
        written = {}
        for side, writer in (("reference", want), ("vfmlab", have)):
            path = out_dir / side / name
            path.parent.mkdir(parents=True, exist_ok=True)
            writer(arg, path)
            # the file and any sidecar next to it (a log's .meta.json)
            written[side] = sorted((q.name, q.read_bytes()) for q in path.parent.iterdir()
                                   if q.name.startswith(name))
        if written["vfmlab"] != written["reference"]:
            out.append(f"{name}: bytes differ")
    return out
