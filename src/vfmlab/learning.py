"""Passive-learning drivers over a chronological stream.

Two schedules, each scored prequentially (every prediction is logged before
its observation is consumed):

* periodic batch learning: every period boundary after the split, refit on
  all history observed so far (optionally a trailing window), starting each
  refit from the initial fit's values and priors with the input scaler
  refitted on that history.  The model is frozen between boundaries, so each
  period's rows are predicted in one call;
* online learning: after every prediction, take k warm-started optimizer
  steps on that single observation, with the physical parameters regularized
  toward their initial priors and the scaler frozen.

The previous-value benchmark learns nothing: both drivers log each test
row's previous observation of its well, in one pass.

:func:`run_schedules` drives several units (one schedule x kind x well, as
``vfmlab run`` has one per well) at once: it walks every PBL unit's periods,
fits all their refits in one lockstep (``optim.fit_maps``), and assembles
each unit's log, which equals :func:`run_schedule` on that unit alone.

Version bookkeeping: the logged model_version is the version that produced
the prediction, and it increments exactly once per successful refit or
per-observation update.  A degenerate schedule (infinite period, or k = 0)
therefore logs a constant version, and the two schedules' logs then agree in
every column, with y_pred equal up to the rounding of a batched forward
against one row at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import (Source, DataSplit, WellDataset, fit_scaler, float_strings, int_strings,
                   source_strings, text_table, time_strings, time_value)
from .errors import ConfigError, DataError, SchemaError
from .models import (ModelKind, ModelSpec, build_plan, check_inputs, plan_predict,
                     scale_inputs, task_columns)
from .optim import (EarlyStoppingConfig, LossSpec, OptimizerConfig, PriorMode, TrainingStep,
                    fit_maps)


@dataclass(frozen=True)
class ScheduleConfig:
    """How a model follows the stream: batch period or per-observation steps."""

    mode: str                              # "pbl" | "ol"
    ocfg: OptimizerConfig
    loss: LossSpec
    period_s: float | None = None          # PBL period; math.inf disables retraining
    steps: int | None = None               # OL optimizer steps per observation
    window_s: float | None = None          # None = all history
    escfg: EarlyStoppingConfig = field(default_factory=EarlyStoppingConfig)
    update_sources: tuple[str, ...] | None = None  # None = every arrival updates;
                                                   # any Source.from_str spelling

    def __post_init__(self):
        if self.mode not in ("pbl", "ol"):
            raise ConfigError(f"unknown schedule mode {self.mode!r}")
        if self.mode == "pbl":
            if self.period_s is None or not self.period_s > 0:
                raise ConfigError("pbl needs a positive period")
            if self.steps is not None:
                raise ConfigError("steps applies to ol schedules only")
        else:
            if self.steps is None or self.steps < 0:
                raise ConfigError("ol needs a step count >= 0")
            if self.period_s is not None or self.window_s is not None:
                raise ConfigError("a period or window applies to pbl schedules only")
        if self.window_s is not None and not self.window_s > 0:
            raise ConfigError("window_s must be positive when set")
        if self.update_sources is not None:
            try:
                names = tuple(Source.from_str(str(s)).to_str() for s in self.update_sources)
            except ValueError as e:
                raise ConfigError(f"update_sources: {e}") from None
            object.__setattr__(self, "update_sources", names)


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


def _test_log(te: WellDataset, y_pred: np.ndarray, version: np.ndarray,
              metadata: dict) -> PredictionLog:
    return PredictionLog(te.t, te.well, te.y, y_pred, version, te.source, metadata)


def _updates_allowed(cfg: ScheduleConfig, source: np.ndarray) -> np.ndarray:
    """Per row, whether its source code may update the model."""
    if cfg.update_sources is None:
        return np.ones(len(source), dtype=bool)
    return np.isin(source, [int(s) for s in Source if s.to_str() in cfg.update_sources])


def _previous_values(split: DataSplit) -> np.ndarray:
    """The previous-value benchmark: per test row, the last y of its well
    before it, train rows included; NaN for a well not seen before."""
    y = np.concatenate([split.train.y, split.test.y])
    well = np.concatenate([split.train.well, split.test.well])
    order = np.argsort(well, kind="stable")   # per well, in stream order
    same = well[order[1:]] == well[order[:-1]]
    prev = np.full(len(y), np.nan)
    prev[order[1:][same]] = y[order[:-1][same]]
    return prev[len(split.train):]


def run_pbl(m0: ModelSpec, split: DataSplit, cfg: ScheduleConfig) -> PredictionLog:
    """Periodic batch learning: full refits at period boundaries after the split.

    A refit happens at the first arrival crossing one or more boundaries and
    uses every observation consumed before that arrival; a failed refit keeps
    the previous model and flags the period.  The arrivals up to the next
    boundary are then predicted in one call.  A mechanistic kind's train or
    test row with nonpositive p1, p2 or T1 raises NumericError up front.

    Every refit starts from m0, on a history and scaler that follow from the
    arrival times and the period alone, so the unit's refits are listed up
    front and fitted together, in lockstep (``optim.fit_maps``).  This is
    the one-unit case of :func:`run_schedules`.
    """
    if cfg.mode != "pbl":
        raise ConfigError("run_pbl needs a pbl schedule")
    return run_schedules([(m0, split, cfg)])[0]


def _pbl_walk(m0: ModelSpec, split: DataSplit, cfg: ScheduleConfig) -> tuple:
    """The period walk of :func:`run_pbl`.  Returns (fits, finish): the
    unit's refits as ``optim.fit_maps`` takes them, and the function that
    turns fit_maps's results for them into the unit's log."""
    te = split.test
    version = np.full(len(te), m0.version, dtype=np.int64)
    meta = {"mode": "pbl", "period_s": cfg.period_s, "window_s": cfg.window_s,
            "kind": m0.kind.value, "n_retrains": 0, "failed_periods": []}
    if m0.kind is ModelKind.BENCHMARK:
        return [], lambda fitted: _test_log(te, _previous_values(split), version, meta)
    # train then test rows; the history of test row i is its first n_train + i rows
    past = WellDataset.merge([split.train, te])
    check_inputs(m0, past.X)
    n_train = len(split.train)
    allowed = _updates_allowed(cfg, past.source)

    # the arrivals that refit, and the rows of each frozen period with the
    # number of refits before it
    arrivals, periods = [], []
    next_boundary = split.split_time + cfg.period_s
    i = 0
    while i < len(te):
        t_i = float(te.t[i])
        if t_i >= next_boundary:
            arrivals.append(i)
            while next_boundary <= t_i:
                next_boundary += cfg.period_s
        stop = int(np.searchsorted(te.t, next_boundary))
        periods.append((slice(i, stop), len(arrivals)))
        i = stop

    fits = []
    for i in arrivals:
        history = past.take(slice(0, n_train + i))
        if cfg.update_sources is not None:
            history = history.take(np.flatnonzero(allowed[:len(history)]))
        if cfg.window_s is not None and len(history):
            history = history.from_time(float(history.t[-1]) - cfg.window_s)
        # an empty history fails in fit_maps, as every one of fewer than 2 rows
        scaler = fit_scaler(history) if len(history) else None
        fits.append((replace(m0, scaler=scaler), history, cfg.loss))

    def finish(fitted: list) -> PredictionLog:
        models = [(m0, build_plan(m0))]
        for i, f in zip(arrivals, fitted):
            if isinstance(f, Exception):
                meta["failed_periods"].append(time_value(float(te.t[i])))
                models.append(models[-1])
            else:
                current = replace(f, version=models[-1][0].version + 1)
                models.append((current, build_plan(current)))
                meta["n_retrains"] += 1
        y_pred = np.empty(len(te))
        for rows, r in periods:
            model, plan = models[r]
            X = te.X[rows]
            y_pred[rows] = plan_predict(plan, model.params.values, X, scale_inputs(plan, X),
                                        task_columns(model, te.well[rows]))
            version[rows] = model.version
        return _test_log(te, y_pred, version, meta)

    return fits, finish


def run_ol(m0: ModelSpec, split: DataSplit, cfg: ScheduleConfig) -> PredictionLog:
    """Online learning: k warm-started steps per observation, prior-anchored
    physical parameters, frozen scaler.

    Each observation is predicted first, then taken as one update
    (``optim.TrainingStep.online_update``): LR and MM run its k steps on
    Python floats, the other kinds as array steps in buffers, and network
    layer views, that the unit binds once (``TrainingStep.bind``).  An
    update's first step computes the forward at the parameters that
    predict the row, so it hands back the prediction, bit for bit what
    ``models.plan_predict`` gives; ``plan_predict`` runs only for the rows
    that take no update: every row at k = 0 and a row whose source may not
    update.  A non-finite update is skipped (flagged) and the previous
    parameters carry on.  k = 0 degenerates to pure prediction with m0.  A
    mechanistic kind's test row with nonpositive p1, p2 or T1 raises
    NumericError up front.
    """
    if cfg.mode != "ol":
        raise ConfigError("run_ol needs an ol schedule")
    te = split.test
    steps = cfg.steps
    version = np.full(len(te), m0.version, dtype=np.int64)
    meta = {"mode": "ol", "steps": steps, "kind": m0.kind.value,
            "n_updates": 0, "skipped_updates": []}
    if m0.kind is ModelKind.BENCHMARK:
        return _test_log(te, _previous_values(split), version, meta)
    y_pred = np.empty(len(te))
    step = TrainingStep(m0, cfg.loss.noise_std, PriorMode.PHYSICAL_ONLY)
    plan = step.plan
    # the plan (and its scaler) is frozen, so the unit's arrays are built once
    # and row i of each serves both its prediction and its update
    X, Xs, y, wells = step.rows(m0, te)
    # the update's coefficients, or its buffers and network views, bound once per unit
    unit = step.bind(cfg.ocfg, steps)
    allowed = _updates_allowed(cfg, te.source)
    theta = m0.params.values
    v = m0.version

    for i in range(len(te)):
        rows = slice(i, i + 1)
        X1, Xs1, wells1 = X[rows], Xs[rows], wells[rows]
        version[i] = v
        if steps == 0 or not allowed[i]:
            y_pred[i] = plan_predict(plan, theta, X1, Xs1, wells1)[0]
            continue
        values, y_pred[i] = step.online_update(unit, theta, X1, Xs1, y[rows], wells1, cfg.ocfg,
                                               steps)
        if values is None:
            meta["skipped_updates"].append(time_value(float(te.t[i])))
        else:
            theta = values
            v += 1
            meta["n_updates"] += 1
    return _test_log(te, y_pred, version, meta)


def run_schedule(m0: ModelSpec, split: DataSplit, cfg: ScheduleConfig) -> PredictionLog:
    return (run_pbl if cfg.mode == "pbl" else run_ol)(m0, split, cfg)


def run_schedules(units) -> list[PredictionLog]:
    """One log per ``(m0, split, ScheduleConfig)`` unit of `units`, each the
    log :func:`run_schedule` gives that unit alone, bit for bit.

    OL units run :func:`run_ol` one by one.  The refits of every PBL unit go
    to one ``optim.fit_maps`` call, so the PBL units with refits must share
    what it stacks: kind, structure, priors, bounds, and the optimizer and
    early-stopping settings (ConfigError otherwise).  Units are checked and
    OL units run in order, so a failing unit raises as it would alone.
    """
    logs, walks = [], {}
    for u, (m0, split, cfg) in enumerate(units):
        if cfg.mode == "pbl":
            walks[u] = (cfg, *_pbl_walk(m0, split, cfg))
            logs.append(None)
        else:
            logs.append(run_ol(m0, split, cfg))
    refitting = [cfg for cfg, fits, _ in walks.values() if fits]
    fitted = iter(())
    if refitting:
        cfg = refitting[0]
        if any((c.ocfg, c.escfg) != (cfg.ocfg, cfg.escfg) for c in refitting):
            raise ConfigError("PBL units that refit together must share their optimizer "
                              "and early-stopping settings")
        fitted = iter(fit_maps([f for _, fits, _ in walks.values() for f in fits],
                               cfg.ocfg, cfg.escfg))
    for u, (_, fits, finish) in walks.items():
        logs[u] = finish([next(fitted) for _ in fits])
    return logs


# ------------------------------------------------------------------ log I/O

_LOG_HEADER = "t,well_id,y_true,y_pred,model_version,source"


def write_log(log: PredictionLog, path: str | Path) -> None:
    path = Path(path)
    path.write_text(text_table(_LOG_HEADER, time_strings(log.t), int_strings(log.well),
                               float_strings(log.y_true), float_strings(log.y_pred),
                               int_strings(log.model_version), source_strings(log.source)))
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
