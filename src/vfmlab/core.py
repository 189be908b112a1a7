"""Domain types, chronological datasets, CSV ingestion, and feature scaling.

Conventions used across the package:

* Explanatory vector ``x`` has d = 6 components, ordered
  ``(u, p1, p2, T1, eta_oil, eta_gas)``: choke opening in [0, 1], upstream
  pressure [Pa], downstream pressure [Pa], upstream temperature [K], oil and
  gas volume fractions at standard conditions.  The water fraction is derived,
  ``eta_wat = max(0, 1 - eta_oil - eta_gas)``.
* Target ``y`` is the total volumetric flow rate [Sm3/h].
* Timestamps are seconds since the Unix epoch (float64 internally).  CSV
  files may carry ISO-8601 strings or numeric epoch seconds; the format is
  auto-detected from the first row and applied to the whole column.
* All randomness flows from one global integer seed, fanned out to named
  substreams (see :func:`substream`) backed by numpy's PCG64 generator.
"""

from __future__ import annotations

import csv
import datetime as _dt
import enum
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataError, EmptyDatasetError, SchemaError

D_INPUT = 6
COLUMNS = ("u", "p1", "p2", "T1", "eta_oil", "eta_gas")
CSV_HEADER = ("well_id", "t", "u", "p1", "p2", "T1", "eta_oil", "eta_gas", "q_total", "source")

SECONDS_PER_DAY = 86400.0

# the row invariants, in the order a rejected row takes its reason:
# the first one it breaks
INVARIANT_REASONS = ("non_finite", "u_range", "p1_nonpositive", "p2_nonpositive",
                     "T1_nonpositive", "fraction_negative", "fraction_sum", "y_negative")


def invariant_codes(t: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per row of the columns ``(t, X, y)``, the index in
    :data:`INVARIANT_REASONS` of the first invariant the row breaks, -1 for a
    valid row."""
    u, p1, p2, t1, eo, eg = X.T
    with np.errstate(invalid="ignore"):  # inf - inf in a fraction sum
        broken = (~(np.isfinite(X).all(axis=1) & np.isfinite(y) & np.isfinite(t)),
                  ~((0.0 <= u) & (u <= 1.0)), p1 <= 0.0, p2 <= 0.0, t1 <= 0.0,
                  (eo < 0.0) | (eg < 0.0), eo + eg > 1.0, y < 0.0)
    return np.select(broken, range(len(broken)), -1)


class Source(enum.IntEnum):
    """Measurement source tag. Stored columnar as uint8 codes."""

    MPFM = 0
    WELLTEST = 1

    @classmethod
    def from_str(cls, s: str) -> "Source":
        key = s.strip().lower()
        if key == "mpfm":
            return cls.MPFM
        if key in ("welltest", "well_test", "well-test"):
            return cls.WELLTEST
        raise ValueError(f"unknown source {s!r}")

    def to_str(self) -> str:
        return SOURCE_NAMES[self]


SOURCE_NAMES = ("MPFM", "WellTest")  # the file spelling of each Source code


class EmptySplitWarning(UserWarning):
    """A chronological split produced an empty train or test side."""


# -------------------------------------------------------------------- datasets


def _as_f64(a) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class WellDataset:
    """Chronologically ordered observations, stored columnar.

    Normally all rows share one ``well_id`` (enforced on the ingestion and
    split paths).  A merged multi-well stream, used by the multi-task driver
    and cross-well tooling, is the same container built via :meth:`merge`;
    the :attr:`well_id` property raises on such mixed instances.
    """

    t: np.ndarray        # (n,) float64, nondecreasing
    X: np.ndarray        # (n, 6) float64
    y: np.ndarray        # (n,) float64
    source: np.ndarray   # (n,) uint8 Source codes
    well: np.ndarray     # (n,) int64

    def __post_init__(self):
        t = _as_f64(self.t)
        X = _as_f64(self.X)
        y = _as_f64(self.y)
        src = np.asarray(self.source, dtype=np.uint8)
        src.flags.writeable = False
        well = np.asarray(self.well, dtype=np.int64)
        well.flags.writeable = False
        n = t.shape[0]
        if X.shape != (n, D_INPUT) or y.shape != (n,) or src.shape != (n,) or well.shape != (n,):
            raise ValueError("column length mismatch")
        if n > 1 and np.any(np.diff(t) < 0.0):
            raise ValueError("timestamps must be nondecreasing")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "source", src)
        object.__setattr__(self, "well", well)

    # -- construction ---------------------------------------------------------

    @classmethod
    def empty(cls) -> "WellDataset":
        z = np.zeros(0)
        return cls(z, np.zeros((0, D_INPUT)), z, np.zeros(0, dtype=np.uint8),
                   np.zeros(0, dtype=np.int64))

    @classmethod
    def merge(cls, datasets: Iterable["WellDataset"]) -> "WellDataset":
        """Merge several wells into one chronological stream (stable in time)."""
        parts = [d for d in datasets if len(d) > 0]
        if not parts:
            return cls.empty()
        t = np.concatenate([d.t for d in parts])
        order = np.argsort(t, kind="stable")
        return cls(
            t[order],
            np.concatenate([d.X for d in parts])[order],
            np.concatenate([d.y for d in parts])[order],
            np.concatenate([d.source for d in parts])[order],
            np.concatenate([d.well for d in parts])[order],
        )

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        return self.t.shape[0]

    @property
    def well_id(self) -> int:
        ids = np.unique(self.well)
        if ids.size == 0:
            raise EmptyDatasetError("empty dataset has no well_id")
        if ids.size > 1:
            raise ValueError("mixed-well stream has no single well_id")
        return int(ids[0])

    @property
    def well_ids(self) -> tuple[int, ...]:
        return tuple(int(w) for w in np.unique(self.well))

    def take(self, idx) -> "WellDataset":
        return WellDataset(self.t[idx], self.X[idx], self.y[idx], self.source[idx], self.well[idx])

    def before(self, t: float) -> "WellDataset":
        return self.take(self.t < t)

    def from_time(self, t: float) -> "WellDataset":
        return self.take(self.t >= t)

    def only_source(self, source: Source) -> "WellDataset":
        return self.take(self.source == int(source))


# ---------------------------------------------------------------------- splits


@dataclass(frozen=True)
class DataSplit:
    """Train/test partition at a fixed time: train t < split_time <= test t."""

    train: WellDataset
    test: WellDataset
    split_time: float

    def __post_init__(self):
        if len(self.train) and self.train.t[-1] >= self.split_time:
            raise ValueError("train side crosses split_time")
        if len(self.test) and self.test.t[0] < self.split_time:
            raise ValueError("test side precedes split_time")


def chronological_split(ds: WellDataset, split_time: float) -> DataSplit:
    """Split at a timestamp; the boundary observation goes to the test side.

    An empty side is allowed but flagged with :class:`EmptySplitWarning`.
    """
    if len(ds) == 0:
        raise EmptyDatasetError("cannot split an empty dataset")
    train = ds.before(split_time)
    test = ds.from_time(split_time)
    if len(train) == 0:
        warnings.warn("chronological_split: empty train side", EmptySplitWarning, stacklevel=2)
    if len(test) == 0:
        warnings.warn("chronological_split: empty test side", EmptySplitWarning, stacklevel=2)
    return DataSplit(train=train, test=test, split_time=float(split_time))


# ---------------------------------------------------------------------- scaler


@dataclass(frozen=True)
class FeatureScaler:
    """Componentwise standardization x -> (x - mean)/std.

    Uses the population standard deviation (ddof=0).  Components with zero
    empirical std get std 1, so constant columns scale to 0.

    Also carries the location/scale of the target variable from the same
    fitting window.  Purely data-driven predictors regress in this
    standardized target space (and map back on prediction), which keeps their
    parameters O(1) regardless of the engineering units of the flow rate;
    physical-output models ignore the target stats.
    """

    mean: np.ndarray
    std: np.ndarray
    target_mean: float = 0.0
    target_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "mean", _as_f64(self.mean))
        object.__setattr__(self, "std", _as_f64(self.std))
        object.__setattr__(self, "target_mean", float(self.target_mean))
        object.__setattr__(self, "target_scale", float(self.target_scale))
        if np.any(self.std <= 0.0):
            raise ValueError("scaler std must be positive")
        if not self.target_scale > 0.0:
            raise ValueError("scaler target_scale must be positive")

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std


def fit_scaler(ds: WellDataset) -> FeatureScaler:
    if len(ds) == 0:
        raise EmptyDatasetError("cannot fit scaler on empty dataset")
    mean = ds.X.mean(axis=0)
    std = ds.X.std(axis=0)  # ddof=0
    std = np.where(std == 0.0, 1.0, std)
    ym = float(ds.y.mean())
    ys = float(ds.y.std())
    return FeatureScaler(mean, std, ym, ys if ys > 0.0 else 1.0)


# ------------------------------------------------------------------ timestamps


def parse_timestamp(s: str) -> float:
    """Parse one ISO-8601 string to epoch seconds (naive times read as UTC)."""
    text = s.strip().replace("Z", "+00:00")
    dt = _dt.datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=_dt.timezone.utc)
    return dt.timestamp()


def time_value(t: float) -> int | float:
    """A timestamp as files and log metadata record it: an int when it is
    whole seconds, so whole-second data write as they always have, else the
    float."""
    t = float(t)
    return int(t) if t.is_integer() else t


def time_strings(t: np.ndarray) -> list[str]:
    """Each timestamp of a column as :func:`time_value` records it, in text."""
    return [repr(time_value(v)) for v in np.asarray(t, dtype=np.float64).tolist()]


def float_strings(col: np.ndarray) -> list[str]:
    """The shortest round-trip decimal of each value of a column."""
    return list(map(float.__repr__, np.asarray(col, dtype=np.float64).tolist()))


def int_strings(col: np.ndarray) -> list[str]:
    return list(map(str, np.asarray(col).astype(np.int64, copy=False).tolist()))


def source_strings(codes: np.ndarray) -> list[str]:
    return list(map(SOURCE_NAMES.__getitem__, np.asarray(codes).tolist()))


def text_table(header: str, *columns: list[str], end: str = "\n") -> str:
    """A header line and one comma-joined line per row of the string columns,
    each line ended by ``end``."""
    return end.join([header, *map(",".join, zip(*columns))]) + end


def _value_strings(col: np.ndarray) -> list[str]:
    # shortest round-trip decimal; integral values print without the mantissa
    return [str(int(v)) if v.is_integer() and abs(v) < 2.0**53 else repr(v)
            for v in col.tolist()]


# ------------------------------------------------------------------- ingestion


@dataclass
class IngestReport:
    """Counts from one ingestion pass."""

    n_read: int = 0
    n_accepted: int = 0
    n_rejected: int = 0
    reject_reasons: dict = field(default_factory=dict)


REJECT_REASONS = INVARIANT_REASONS + ("unparseable",)


def ingest_csv_report(path: str | Path) -> tuple[list[WellDataset], IngestReport]:
    """Ingest a CSV file; return per-well datasets plus the reject report.

    One ``csv.reader`` pass reads each row's fields into a list of floats,
    and marks the row ``unparseable`` when a field does not parse: a bad
    number or time, an unknown source, a well id that is not an integer, a
    short row.  Blank lines are skipped.  The time column holds ISO-8601
    strings or numeric epoch seconds, decided on the first data row.  The
    row invariants then run as array masks over the parsed
    ``(t, X, y)`` columns (:func:`invariant_codes`): a row that breaks several
    takes the first reason of ``non_finite``, ``u_range``, ``p1_nonpositive``,
    ``p2_nonpositive``, ``T1_nonpositive``, ``fraction_negative``,
    ``fraction_sum``, ``y_negative``.  Each well's rows are ordered by one
    stable argsort on t, so rows at one time keep their file order.

    Rejected rows are dropped and counted; every run writes a sidecar
    ``<input>.rejects.csv`` with the offending rows, in file order, and a
    reason column.  A file that cannot be opened or is not UTF-8 raises
    :class:`DataError`, a missing header or column :class:`SchemaError`, and
    a file without a valid row :class:`EmptyDatasetError`.
    """
    path = Path(path)
    raws: list[list[str]] = []      # every non-blank row, in file order
    unparseable: list[int] = []     # positions in raws
    values: list[list[float]] = []  # per row that parses: t, the COLUMNS, q_total, source
    wells: list[int] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
            i_t, i_source, i_well = col["t"], col["source"], col["well_id"]
            i_floats = [col[c] for c in COLUMNS + ("q_total",)]
            iso_time: bool | None = None  # decided on the first data row
            for raw in reader:
                if not raw or not "".join(raw).strip():
                    continue
                raws.append(raw)
                try:
                    tfield = raw[i_t].strip()
                    if iso_time is None:
                        try:
                            float(tfield)
                            iso_time = False
                        except ValueError:
                            iso_time = True
                    t = parse_timestamp(tfield) if iso_time else float(tfield)
                    row = [t, *[float(raw[i]) for i in i_floats],
                           float(Source.from_str(raw[i_source]))]
                    well = int(raw[i_well])
                except (ValueError, IndexError):
                    unparseable.append(len(raws) - 1)
                else:
                    values.append(row)
                    wells.append(well)
    except OSError as e:
        raise DataError(f"{path}: cannot read: {e.strerror or e}") from None
    except (UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"{path}: cannot read: {e}") from None

    cols = np.array(values, dtype=np.float64).reshape(len(values), D_INPUT + 3)
    t, X, y = cols[:, 0], cols[:, 1:1 + D_INPUT], cols[:, 1 + D_INPUT]
    broken = invariant_codes(t, X, y)
    reason = np.full(len(raws), -1)
    reason[unparseable] = REJECT_REASONS.index("unparseable")
    reason[reason < 0] = broken
    rejected = np.flatnonzero(reason >= 0).tolist()
    names = [REJECT_REASONS[r] for r in reason[rejected].tolist()]
    counts: dict[str, int] = {}
    for name in names:
        counts[name] = counts.get(name, 0) + 1
    report = IngestReport(n_read=len(raws), n_accepted=len(raws) - len(rejected),
                          n_rejected=len(rejected), reject_reasons=counts)

    reject_path = path.with_name(path.name + ".rejects.csv")
    with open(reject_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(CSV_HEADER) + ["reason"])
        writer.writerows(raws[i] + [name] for i, name in zip(rejected, names))

    rows_by_well: dict[int, list[int]] = {}
    for j in np.flatnonzero(broken < 0).tolist():
        rows_by_well.setdefault(wells[j], []).append(j)
    if not rows_by_well:
        raise EmptyDatasetError(f"{path}: no valid observations")
    source_codes = cols[:, -1].astype(np.uint8)
    datasets = []
    for w in sorted(rows_by_well):
        idx = np.array(rows_by_well[w])
        idx = idx[np.argsort(t[idx], kind="stable")]
        datasets.append(WellDataset(t[idx], X[idx], y[idx], source_codes[idx],
                                    np.full(idx.size, w, dtype=np.int64)))
    return datasets, report


def ingest_csv(path: str | Path) -> list[WellDataset]:
    datasets, _ = ingest_csv_report(path)
    return datasets


def write_csv(path: str | Path, datasets: Iterable[WellDataset]) -> None:
    """Write wells to one CSV in the ingestion schema (merged, time-ordered)."""
    merged = WellDataset.merge(list(datasets))
    # no field needs quoting, so this is csv.writer's text: "\r\n" line ends
    text = text_table(",".join(CSV_HEADER), int_strings(merged.well), _value_strings(merged.t),
                      *(_value_strings(merged.X[:, j]) for j in range(D_INPUT)),
                      _value_strings(merged.y), source_strings(merged.source), end="\r\n")
    with open(path, "w", newline="") as fh:
        fh.write(text)


# ------------------------------------------------------------------------- rng


def substream(seed: int, name: str, index: int = 0) -> np.random.Generator:
    """Named, reproducible PCG64 substream of one global seed.

    The (name, index) pair maps to a SeedSequence spawn key via CRC-32, so
    distinct names give statistically independent streams and the same name
    always gives the same stream.
    """
    key = zlib.crc32(name.encode("utf-8"))
    ss = np.random.SeedSequence(int(seed), spawn_key=(key, int(index)))
    return np.random.Generator(np.random.PCG64(ss))
