"""Prequential metrics: MAPE, rolling absolute error, cross-well summaries.

Zero-target entries cannot be percentage-scored, and non-finite predictions
(a diverged model, or the benchmark on a well it has not seen) have no error;
both are excluded and counted rather than silently dropped: the study writes
the counts next to its table (``write_excluded_csv``), so a model that
diverged part-way is not hidden behind a MAPE over its finite rows.  Percentiles
interpolate linearly between closest ranks.  The summary table follows the
study layout: one row per learning method, one column per model kind, plus an
"All" column that averages the trainable kinds (the naive previous-value
predictor is reported but not averaged).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import SECONDS_PER_DAY
from .errors import ConfigError, DataError
from .learning import PredictionLog
from .models import ModelKind

DEFAULT_WINDOW_S = 14 * SECONDS_PER_DAY
PERCENTILES = (10, 25, 50, 75, 90)


@dataclass(frozen=True)
class MetricReport:
    per_well_mape: dict
    cross_well_mean: float
    percentiles: tuple  # P10, P25, P50, P75, P90 of per-well MAPEs
    rolling_series: tuple  # (t, rolling_mae, p25_band, p75_band) arrays
    n_excluded: int = 0    # zero targets and non-finite predictions


def mape_details(log: PredictionLog, well_id: int | None = None) -> tuple[float, int, int]:
    """(MAPE %, scored count, excluded count), the excluded entries being the
    zero targets and the non-finite predictions."""
    sel = np.ones(len(log), dtype=bool) if well_id is None else log.well == well_id
    ok = sel & (log.y_true != 0.0) & np.isfinite(log.y_pred)
    n = int(np.sum(ok))
    if n == 0:
        raise DataError("no scoreable entries")
    val = 100.0 * float(np.mean(np.abs(log.y_true[ok] - log.y_pred[ok])
                                / np.abs(log.y_true[ok])))
    return val, n, int(np.sum(sel)) - n


def mape(log: PredictionLog, well_id: int | None = None) -> float:
    return mape_details(log, well_id)[0]


def _rolling_mean(t: np.ndarray, v: np.ndarray, window_s: float,
                  at: np.ndarray) -> np.ndarray:
    """Mean of v over (at_i - window, at_i] for each query time; nan on empty."""
    out = np.full(len(at), np.nan)
    csum = np.concatenate([[0.0], np.cumsum(v)])
    lo = np.searchsorted(t, at - window_s, side="right")
    hi = np.searchsorted(t, at, side="right")
    nz = hi > lo
    out[nz] = (csum[hi[nz]] - csum[lo[nz]]) / (hi[nz] - lo[nz])
    return out


def rolling_mae(log: PredictionLog, window_s: float = DEFAULT_WINDOW_S) -> tuple:
    """(t, value) rolling mean absolute error over all entries, trailing window."""
    if len(log) == 0:
        raise DataError("empty log")
    err = np.abs(log.y_true - log.y_pred)
    return log.t.copy(), _rolling_mean(log.t, err, window_s, log.t)


def _column_nanpercentiles(a: np.ndarray, q) -> np.ndarray:
    """``np.nanpercentile(a, q, axis=0)`` for a list of q, bit for bit, without
    one quantile call per column: the columns are sorted once (NaNs last),
    then the columns with c non-NaN rows take the percentiles of their first
    c rows in one call per distinct c.  All-NaN columns give NaN."""
    s = np.sort(a, axis=0)
    counts = np.count_nonzero(~np.isnan(a), axis=0)
    out = np.full((len(q), a.shape[1]), np.nan)
    for c in np.unique(counts[counts > 0]):
        cols = counts == c
        out[:, cols] = np.percentile(s[:c, cols], q, axis=0)
    return out


def metric_report(log: PredictionLog, window_s: float = DEFAULT_WINDOW_S) -> MetricReport:
    wells = log.well_ids()
    per_well = {}
    n_excluded = 0
    for w in wells:
        val, _, n_out = mape_details(log, w)
        per_well[w] = val
        n_excluded += n_out
    vals = np.array(sorted(per_well.values()), dtype=np.float64)
    pct = tuple(float(p) for p in np.percentile(vals, PERCENTILES))
    t_all, pooled = rolling_mae(log, window_s)
    per_well_rolling = np.full((len(wells), len(t_all)), np.nan)
    for j, w in enumerate(wells):
        m = log.well == w
        per_well_rolling[j] = _rolling_mean(log.t[m], np.abs(log.y_true[m] - log.y_pred[m]),
                                            window_s, t_all)
    p25, p75 = _column_nanpercentiles(per_well_rolling, (25, 75))
    return MetricReport(per_well_mape=per_well,
                        cross_well_mean=float(np.mean(vals)),
                        percentiles=pct,
                        rolling_series=(t_all, pooled, p25, p75),
                        n_excluded=n_excluded)


@dataclass(frozen=True)
class SummaryTable:
    """Rows = learning methods, columns = model kinds, plus the All average."""

    methods: tuple
    kinds: tuple
    cells: np.ndarray           # cross-well MAPE per (method, kind)
    all_column: np.ndarray      # mean over trainable kinds per method
    excluded: np.ndarray        # entries left out of each cell's MAPE
    reports: dict = field(default_factory=dict)

    def cell(self, method: str, kind: str) -> float:
        return float(self.cells[self.methods.index(method), self.kinds.index(kind)])


def summarize(logs: dict, window_s: float = DEFAULT_WINDOW_S) -> SummaryTable:
    """Aggregate {(method, kind): PredictionLog} into the study table."""
    if not logs:
        raise DataError("no logs to summarize")
    methods = tuple(dict.fromkeys(k[0] for k in logs))
    kinds = tuple(dict.fromkeys(k[1] for k in logs))
    cells = np.full((len(methods), len(kinds)), np.nan)
    excluded = np.zeros((len(methods), len(kinds)), dtype=np.int64)
    reports = {}
    for (method, kind), log in logs.items():
        rep = metric_report(log, window_s)
        reports[(method, kind)] = rep
        cells[methods.index(method), kinds.index(kind)] = rep.cross_well_mean
        excluded[methods.index(method), kinds.index(kind)] = rep.n_excluded
    averaged = [k for k in kinds if str(k).lower() != ModelKind.BENCHMARK.value.lower()]
    idx = [kinds.index(k) for k in averaged]
    all_col = np.array([float(np.nanmean(cells[i, idx])) if idx else np.nan
                        for i in range(len(methods))])
    return SummaryTable(methods=methods, kinds=kinds, cells=cells,
                        all_column=all_col, excluded=excluded, reports=reports)


def write_summary_csv(table: SummaryTable, path: str | Path) -> None:
    lines = ["method," + ",".join(table.kinds) + ",All"]
    for i, m in enumerate(table.methods):
        cells = ",".join(f"{table.cells[i, j]:.6g}" for j in range(len(table.kinds)))
        lines.append(f"{m},{cells},{table.all_column[i]:.6g}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_excluded_csv(table: SummaryTable, path: str | Path) -> None:
    """The summary's layout without the All column: per cell, the count of
    zero targets and non-finite predictions left out of its MAPE."""
    lines = ["method," + ",".join(table.kinds)]
    for i, m in enumerate(table.methods):
        lines.append(f"{m}," + ",".join(str(int(v)) for v in table.excluded[i]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_rolling_csv(report: MetricReport, path: str | Path) -> None:
    t, v, p25, p75 = report.rolling_series
    lines = ["t,rolling_mae,p25,p75"]
    for i in range(len(t)):
        lines.append(f"{int(t[i])},{v[i]!r},{p25[i]!r},{p75[i]!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_plot(table: SummaryTable, path: str | Path) -> None:
    """Rolling-error curves per method plus a per-well MAPE box summary (SVG/PDF)."""
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as e:
        raise ConfigError("plotting needs the optional matplotlib dependency") from e
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(11, 4))
    for (method, kind), rep in table.reports.items():
        t, v, _, _ = rep.rolling_series
        ax1.plot((t - t[0]) / SECONDS_PER_DAY, v, label=f"{method}/{kind}", lw=0.8)
    ax1.set_xlabel("days")
    ax1.set_ylabel("rolling MAE")
    ax1.legend(fontsize=6)
    data = [[rep.per_well_mape[w] for w in sorted(rep.per_well_mape)]
            for rep in table.reports.values()]
    labels = [f"{m}/{k}" for m, k in table.reports]
    ax2.boxplot(data)
    ax2.set_xticks(range(1, len(labels) + 1))
    ax2.set_xticklabels(labels)
    ax2.set_ylabel("per-well MAPE %")
    ax2.tick_params(axis="x", rotation=90, labelsize=6)
    fig.tight_layout()
    fig.savefig(path)
    plt.close(fig)
