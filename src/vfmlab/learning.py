"""Passive-learning drivers over a chronological stream.

Two schedules share one prequential loop (predict first, then consume):

* periodic batch learning: every period boundary after the split, refit from
  prior initialization on all history observed so far (optionally a trailing
  window), re-fitting the input scaler;
* online learning: after every prediction, take k warm-started optimizer
  steps on that single observation, with the physical parameters regularized
  toward their initial priors and the scaler frozen.

Version bookkeeping: the logged model_version is the version that produced
the prediction, and it increments exactly once per successful refit or
per-observation update.  A degenerate schedule (infinite period, or k = 0)
therefore logs a constant version, and the two schedules produce
bit-identical logs in that case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import Source, DataSplit, WellDataset, fit_scaler
from .errors import ConfigError, DataError, NumericError, SchemaError
from .models import ModelKind, ModelSpec, build_plan, plan_predict, scale_inputs, task_columns
from .optim import (EarlyStoppingConfig, LossSpec, OptimizerConfig, PriorMode, TrainingStep,
                    fit_map, optimizer_step)


@dataclass(frozen=True)
class ScheduleConfig:
    """How a model follows the stream: batch period or per-observation steps."""

    mode: str                              # "pbl" | "ol"
    ocfg: OptimizerConfig
    loss: LossSpec
    period_s: float | None = None          # PBL period; math.inf disables retraining
    ol_steps: int | None = None            # OL step count; None = ocfg.steps
    window_s: float | None = None          # None = all history
    escfg: EarlyStoppingConfig = field(default_factory=EarlyStoppingConfig)
    update_sources: tuple[str, ...] | None = None  # None = every arrival updates

    def __post_init__(self):
        if self.mode not in ("pbl", "ol"):
            raise ConfigError(f"unknown schedule mode {self.mode!r}")
        if self.mode == "pbl":
            if self.period_s is None or not self.period_s > 0:
                raise ConfigError("pbl needs a positive period")
        else:
            if self.steps_per_obs() < 0:
                raise ConfigError("ol step count must be >= 0")
        if self.window_s is not None and not self.window_s > 0:
            raise ConfigError("window_s must be positive when set")

    def steps_per_obs(self) -> int:
        return self.ocfg.steps if self.ol_steps is None else self.ol_steps


@dataclass(frozen=True)
class PredictionLog:
    """Prequential record: each y_pred was emitted before its observation
    was consumed by any update."""

    t: np.ndarray
    well: np.ndarray
    y_true: np.ndarray
    y_pred: np.ndarray
    model_version: np.ndarray
    source: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.t)
        for name in ("well", "y_true", "y_pred", "model_version", "source"):
            if len(getattr(self, name)) != n:
                raise DataError(f"column {name} has mismatched length")
        if n and np.any(np.diff(self.t) < 0):
            raise DataError("log must be chronological")

    def __len__(self) -> int:
        return len(self.t)

    def well_ids(self) -> tuple[int, ...]:
        return tuple(int(w) for w in np.unique(self.well))

    def for_well(self, well_id: int) -> "PredictionLog":
        """Rows of one well.  When the log also holds other wells, the counts
        and event lists that describe the whole log are dropped."""
        m = self.well == well_id
        meta = dict(self.metadata)
        if not m.all():
            for key in _SUMMED_META + _JOINED_META:
                meta.pop(key, None)
        return PredictionLog(self.t[m], self.well[m], self.y_true[m],
                             self.y_pred[m], self.model_version[m],
                             self.source[m], meta)

    @classmethod
    def concat(cls, logs: "list[PredictionLog]") -> "PredictionLog":
        """Merge logs of one schedule and kind (typically one per well) into
        one chronological log; the metadata is merged by :func:`_merge_metadata`."""
        if not logs:
            raise DataError("nothing to concatenate")
        meta = _merge_metadata([l.metadata for l in logs])
        t = np.concatenate([l.t for l in logs])
        order = np.argsort(t, kind="stable")
        return cls(t[order],
                   np.concatenate([l.well for l in logs])[order],
                   np.concatenate([l.y_true for l in logs])[order],
                   np.concatenate([l.y_pred for l in logs])[order],
                   np.concatenate([l.model_version for l in logs])[order],
                   np.concatenate([l.source for l in logs])[order], meta)


_SUMMED_META = ("n_updates", "n_retrains")
_JOINED_META = ("skipped_updates", "failed_periods")


def _merge_metadata(metas: list[dict]) -> dict:
    """Metadata of a concatenation, each part describing its own rows.

    Counts are summed and event lists joined and sorted; any other key is
    kept when every part has it with one value, and dropped otherwise.  Parts
    of different modes or kinds cannot be merged.
    """
    for key in ("mode", "kind"):
        values = {m.get(key) for m in metas}
        if len(values) > 1:
            raise DataError(f"cannot concatenate logs of different {key}: "
                            f"{sorted(map(str, values))}")
    merged = {}
    for key in metas[0]:
        if not all(key in m for m in metas):
            continue
        values = [m[key] for m in metas]
        if key in _SUMMED_META:
            merged[key] = sum(values)
        elif key in _JOINED_META:
            merged[key] = sorted(v for part in values for v in part)
        elif all(v == values[0] for v in values[1:]):
            merged[key] = values[0]
    return merged


class _LogBuilder:
    def __init__(self):
        self.rows: list[tuple] = []

    def add(self, t, well, y_true, y_pred, version, source):
        self.rows.append((t, well, y_true, y_pred, version, source))

    def build(self, metadata: dict) -> PredictionLog:
        if self.rows:
            cols = list(zip(*self.rows))
        else:
            cols = [[]] * 6
        return PredictionLog(
            np.asarray(cols[0], dtype=np.int64), np.asarray(cols[1], dtype=np.int64),
            np.asarray(cols[2], dtype=np.float64), np.asarray(cols[3], dtype=np.float64),
            np.asarray(cols[4], dtype=np.int64), np.asarray(cols[5], dtype=np.uint8),
            metadata)


def _predict_one(m: ModelSpec, plan, x_row: np.ndarray, well_id: int) -> float:
    X = x_row[None, :]
    Xs = scale_inputs(plan, X)
    return float(plan_predict(plan, m.params.values, X, Xs, task_columns(m, well_id))[0])


def _history_dataset(split: DataSplit, consumed: int) -> WellDataset:
    tr, te = split.train, split.test
    if consumed == 0:
        return tr
    return WellDataset(t=np.concatenate([tr.t, te.t[:consumed]]),
                       X=np.concatenate([tr.X, te.X[:consumed]]),
                       y=np.concatenate([tr.y, te.y[:consumed]]),
                       source=np.concatenate([tr.source, te.source[:consumed]]),
                       well=np.concatenate([tr.well, te.well[:consumed]]))


def _updates_allowed(cfg: ScheduleConfig, source: np.ndarray) -> np.ndarray:
    """Per row, whether its source code may update the model."""
    if cfg.update_sources is None:
        return np.ones(len(source), dtype=bool)
    return np.isin(source, [int(s) for s in Source if s.to_str() in cfg.update_sources])


def _prev_y_by_well(train: WellDataset) -> dict[int, float]:
    prev: dict[int, float] = {}
    for w in train.well_ids:
        mask = train.well == w
        prev[int(w)] = float(train.y[mask][-1])
    return prev


def run_pbl(m0: ModelSpec, split: DataSplit, cfg: ScheduleConfig) -> PredictionLog:
    """Periodic batch learning: full refits at period boundaries after the split.

    A refit happens at the first arrival crossing one or more boundaries and
    uses every observation consumed before that arrival; a failed refit keeps
    the previous model and flags the period.
    """
    if cfg.mode != "pbl":
        raise ConfigError("run_pbl needs a pbl schedule")
    te = split.test
    builder = _LogBuilder()
    current = m0
    plan = build_plan(current)
    prev_y = _prev_y_by_well(split.train) if m0.kind is ModelKind.BENCHMARK else {}
    next_boundary = split.split_time + cfg.period_s
    n_retrains = 0
    failed_periods: list[int] = []
    allowed = _updates_allowed(cfg, np.concatenate([split.train.source, te.source]))

    for i in range(len(te)):
        t_i = int(te.t[i])
        if t_i >= next_boundary and m0.kind is not ModelKind.BENCHMARK:
            history = _history_dataset(split, i)
            if cfg.update_sources is not None:
                history = history.take(np.flatnonzero(allowed[:len(history)]))
            if cfg.window_s is not None and len(history):
                history = history.from_time(float(history.t[-1]) - cfg.window_s)
            try:
                scaler = fit_scaler(history)
                start = replace(m0, scaler=scaler)  # fresh from prior init
                fitted = fit_map(start, history, cfg.loss, cfg.ocfg, cfg.escfg)
                current = replace(fitted, version=current.version + 1)
                plan = build_plan(current)
                n_retrains += 1
            except (NumericError, DataError):
                failed_periods.append(t_i)
            while next_boundary <= t_i:
                next_boundary += cfg.period_s

        w = int(te.well[i])
        if m0.kind is ModelKind.BENCHMARK:
            y_hat = prev_y.get(w, math.nan)
            prev_y[w] = float(te.y[i])
        else:
            y_hat = _predict_one(current, plan, te.X[i], w)
        builder.add(t_i, w, float(te.y[i]), y_hat, current.version, int(te.source[i]))

    meta = {"mode": "pbl", "period_s": cfg.period_s, "window_s": cfg.window_s,
            "kind": m0.kind.value, "n_retrains": n_retrains,
            "failed_periods": failed_periods}
    return builder.build(meta)


def run_ol(m0: ModelSpec, split: DataSplit, cfg: ScheduleConfig) -> PredictionLog:
    """Online learning: k warm-started steps per observation, prior-anchored
    physical parameters, frozen scaler.

    A non-finite update is skipped (flagged) and the previous parameters
    carry on.  k = 0 degenerates to pure prediction with m0.
    """
    if cfg.mode != "ol":
        raise ConfigError("run_ol needs an ol schedule")
    te = split.test
    builder = _LogBuilder()
    step = TrainingStep(m0, cfg.loss.noise_std, PriorMode.PHYSICAL_ONLY)
    plan = step.plan
    y = step.targets(te.y)
    allowed = _updates_allowed(cfg, te.source)
    steps = cfg.steps_per_obs()
    theta = m0.params.values
    version = m0.version
    prev_y = _prev_y_by_well(split.train) if m0.kind is ModelKind.BENCHMARK else {}
    n_updates = 0
    skipped: list[int] = []

    for i in range(len(te)):
        t_i = int(te.t[i])
        w = int(te.well[i])
        if m0.kind is ModelKind.BENCHMARK:
            y_hat = prev_y.get(w, math.nan)
            prev_y[w] = float(te.y[i])
            builder.add(t_i, w, float(te.y[i]), y_hat, version, int(te.source[i]))
            continue

        # the plan (and its scaler) is frozen, so one row's arrays serve both
        # the prediction and the update
        X1 = te.X[i][None, :]
        Xs1 = scale_inputs(plan, X1)
        wells1 = task_columns(m0, w)
        y_hat = float(plan_predict(plan, theta, X1, Xs1, wells1)[0])
        builder.add(t_i, w, float(te.y[i]), y_hat, version, int(te.source[i]))

        if steps == 0 or not allowed[i]:
            continue
        y1 = y[i:i + 1]
        state = step.start(theta)
        ok = True
        for k in range(1, steps + 1):
            grad = step.grad(state.values, X1, Xs1, y1, wells1)
            try:
                optimizer_step(state, grad, cfg.ocfg, k)
            except NumericError:
                ok = False
                break
        if ok and np.isfinite(state.values).all():
            theta = state.values
            version += 1
            n_updates += 1
        else:
            skipped.append(t_i)

    meta = {"mode": "ol", "steps": steps, "kind": m0.kind.value,
            "n_updates": n_updates, "skipped_updates": skipped}
    return builder.build(meta)


def run_schedule(m0: ModelSpec, split: DataSplit, cfg: ScheduleConfig) -> PredictionLog:
    return (run_pbl if cfg.mode == "pbl" else run_ol)(m0, split, cfg)


# ------------------------------------------------------------------ log I/O

_LOG_HEADER = "t,well_id,y_true,y_pred,model_version,source"


def write_log(log: PredictionLog, path: str | Path) -> None:
    path = Path(path)
    lines = [_LOG_HEADER]
    for i in range(len(log)):
        lines.append(f"{int(log.t[i])},{int(log.well[i])},{float(log.y_true[i])!r},"
                     f"{float(log.y_pred[i])!r},{int(log.model_version[i])},"
                     f"{Source(int(log.source[i])).to_str()}")
    path.write_text("\n".join(lines) + "\n")
    sidecar = path.with_name(path.name + ".meta.json")
    sidecar.write_text(json.dumps(log.metadata, indent=2, sort_keys=True) + "\n")


def read_log(path: str | Path) -> PredictionLog:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0] != _LOG_HEADER:
        raise SchemaError(f"{path}: not a prediction log")
    rows = []
    for ln in lines[1:]:
        if not ln:
            continue
        t, w, yt, yp, v, src = ln.split(",")
        rows.append((int(t), int(w), float(yt), float(yp), int(v),
                     int(Source.from_str(src))))
    sidecar = path.with_name(path.name + ".meta.json")
    meta = json.loads(sidecar.read_text()) if sidecar.exists() else {}
    b = _LogBuilder()
    b.rows = rows
    return b.build(meta)
