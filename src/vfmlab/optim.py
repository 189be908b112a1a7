"""MAP objective, SGD/Adam steps, scheduling, early stopping, grid search.

The objective is

    L(theta) = sum_i (y_i - yhat_i)^2 / sigma_eps^2
             + sum_{j in enabled priors} (theta_j - mu_j)^2 / sigma_j^2

with the prior sum controlled by :class:`PriorMode`: all parameters, only the
physical (mechanistic) ones, or none.  Multiplied by sigma_eps^2/N and with
priors off, this is plain MSE.

Optimizers work on the flat parameter vector.  Physical entries are clipped to
their hard bounds after every step.  The learning-rate schedule is
gamma_k = gamma0 / k^a (power decay) or constant; the step index k restarts at
1 for every fit and for every per-observation online update.

:func:`fit_map` and ``learning.run_ol`` share one :class:`TrainingStep`,
built once per fit or online-learning unit.  It takes the kernel plan, the
prior arrays, the target transform and the bounds once; per optimizer step
it runs the kind's gradient kernel and adds the prior gradient in place, and
per validation pass it takes the loss alone (``models.plan_loss``).
:func:`optimizer_step` applies each step, after its finiteness check.
"""

from __future__ import annotations

import enum
import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .core import WellDataset, as_columns, substream
from .errors import ConfigError, DataError, NumericError
from .models import (ModelKind, ModelSpec, ParameterSet, build_plan, check_inputs, plan_loss,
                     plan_loss_grad, scale_inputs, task_columns)


class PriorMode(enum.Enum):
    FULL = "Full"
    PHYSICAL_ONLY = "PhysicalOnly"
    NONE = "None"

    @classmethod
    def from_str(cls, s: str) -> "PriorMode":
        for p in cls:
            if p.value.lower() == s.strip().lower():
                return p
        raise ConfigError(f"unknown prior mode {s!r}")


class Method(enum.Enum):
    SGD = "SGD"
    ADAM = "Adam"

    @classmethod
    def from_str(cls, s: str) -> "Method":
        for m in cls:
            if m.value.lower() == s.strip().lower():
                return m
        raise ConfigError(f"unknown optimizer method {s!r}")


@dataclass(frozen=True)
class LossSpec:
    """Noise level and prior selection of the MAP objective."""

    noise_std: float
    prior_mode: PriorMode = PriorMode.FULL

    def __post_init__(self):
        if not self.noise_std > 0:
            raise ConfigError("noise_std must be positive")

    @classmethod
    def from_data(cls, train: WellDataset, rel: float = 0.05,
                  prior_mode: PriorMode = PriorMode.FULL) -> "LossSpec":
        """Default sigma_eps = rel * mean(train y)."""
        _, _, y, _ = as_columns(train)
        if y.size == 0:
            raise DataError("cannot derive noise_std from an empty dataset")
        mean_y = float(np.mean(np.abs(y)))
        if mean_y == 0.0:
            raise DataError("cannot derive noise_std from all-zero targets")
        return cls(rel * mean_y, prior_mode)


@dataclass(frozen=True)
class OptimizerConfig:
    method: Method = Method.ADAM
    gamma0: float = 1e-3
    schedule: str = "constant"       # "constant" | "power"
    power_a: float = 1.0
    batch_size: int | None = 32      # None = full batch
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not self.gamma0 > 0:
            raise ConfigError("gamma0 must be positive")
        if self.schedule not in ("constant", "power"):
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1 or None (full batch)")
        # kernels.adam_step divides by 1 - beta**k and by sqrt(vhat) + eps,
        # on Python floats for short vectors, where a zero divisor raises
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ConfigError("adam_beta1 and adam_beta2 must lie in [0, 1)")
        if not self.adam_eps > 0:
            raise ConfigError("adam_eps must be positive")


@dataclass(frozen=True)
class EarlyStoppingConfig:
    val_fraction: float = 0.2
    patience: int = 10
    max_epochs: int = 200

    def __post_init__(self):
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError("val_fraction must lie in (0, 1)")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")


def gamma_at(cfg: OptimizerConfig, k: int) -> float:
    """Learning rate at step k >= 1 under the configured schedule."""
    if cfg.schedule == "power":
        return cfg.gamma0 / float(k) ** cfg.power_a
    return cfg.gamma0


# ------------------------------------------------------------ optimizer state


@dataclass
class OptimizerState:
    """Mutable optimizer state over one fit or one online update event."""

    values: np.ndarray
    m: np.ndarray
    v: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    k: int = 0  # steps taken


def optimizer_step(state: OptimizerState, grad: np.ndarray,
                   cfg: OptimizerConfig, k: int) -> OptimizerState:
    """Apply one SGD or Adam step at schedule index k (1-based).

    Non-finite gradients raise and leave the state untouched.  Physical
    parameters are clipped to their hard bounds.
    """
    if k < 1:
        raise ConfigError("step index k must be >= 1")
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient; parameters untouched")
    g = gamma_at(cfg, k)
    if cfg.method is Method.SGD:
        state.values = kernels.sgd_step(state.values, grad, g, state.lower, state.upper)
    else:
        state.values = kernels.adam_step(state.values, grad, state.m, state.v,
                                         k, g, cfg.adam_beta1, cfg.adam_beta2,
                                         cfg.adam_eps, state.lower, state.upper)
    state.k = k
    return state


# -------------------------------------------------------------------- losses


class _Prior:
    """The prior term of the objective, its arrays taken once: the entries
    it covers (all, or the physical ones), their means and their stds."""

    def __init__(self, params: ParameterSet, mode: PriorMode):
        if mode is PriorMode.NONE or len(params) == 0:
            idx = None
        elif mode is PriorMode.PHYSICAL_ONLY:
            idx = np.flatnonzero(params.is_physical)
            idx = idx if idx.size else None
        else:
            idx = slice(None)
        self.idx = idx
        if idx is not None:
            self.mean = params.prior_mean[idx]
            self.std = params.prior_std[idx]

    def loss(self, theta: np.ndarray) -> float:
        if self.idx is None:
            return 0.0
        z = (theta[self.idx] - self.mean) / self.std
        return float(np.sum(z ** 2))

    def add_grad(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """Add the prior's gradient to grad in place."""
        if self.idx is not None:
            z = (theta[self.idx] - self.mean) / self.std
            grad[self.idx] += 2.0 * z / self.std


def prior_loss_and_grad(params: ParameterSet, theta: np.ndarray,
                        mode: PriorMode) -> tuple[float, np.ndarray]:
    prior = _Prior(params, mode)
    grad = np.zeros_like(theta)
    prior.add_grad(theta, grad)
    return prior.loss(theta), grad


class TrainingStep:
    """The objective of one fit or one online-learning unit, set up once.

    It holds the model's kernel plan (and through it the kind's kernels),
    the prior arrays, the inverse noise variance in the kernels' target
    space and the parameter bounds.  LR, NN and MTL regress in
    standardized target space: their kernels see (y - y_loc)/y_scale, from
    :meth:`targets` once per dataset, and inv_var*y_scale^2, which leaves
    the raw-unit data term and its gradient; for the other kinds both
    transforms are exact no-ops.  :meth:`grad` gives the gradient of one
    optimizer step, :meth:`loss` the objective of a validation pass.
    """

    def __init__(self, m: ModelSpec, noise_std: float, prior_mode: PriorMode):
        self.plan = plan = build_plan(m)
        self.inv_var = 1.0 / (noise_std * noise_std) * plan.y_scale * plan.y_scale
        self.prior = _Prior(m.params, prior_mode)
        self.lower = m.params.lower
        self.upper = m.params.upper

    def targets(self, y: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray((y - self.plan.y_loc) / self.plan.y_scale)

    def start(self, values: np.ndarray) -> OptimizerState:
        """Fresh optimizer state at values; the bounds are shared, not copied
        (optimizer_step replaces values and never writes the bounds)."""
        n = values.shape[0]
        return OptimizerState(values, np.zeros(n), np.zeros(n), self.lower, self.upper)

    def grad(self, theta, X, Xs, y, wells) -> np.ndarray:
        """Gradient of the objective on rows (X, Xs, y from targets, wells)."""
        _, grad = plan_loss_grad(self.plan, theta, X, Xs, y, self.inv_var, wells)
        self.prior.add_grad(theta, grad)
        return grad

    def loss(self, theta, X, Xs, y, wells) -> float:
        """The objective on rows (X, Xs, y from targets, wells)."""
        return plan_loss(self.plan, theta, X, Xs, y, self.inv_var, wells) + self.prior.loss(theta)


# ------------------------------------------------------------------- fitting


def fit_map(m: ModelSpec, train: WellDataset, loss: LossSpec,
            ocfg: OptimizerConfig, escfg: EarlyStoppingConfig,
            curve_sink: list | None = None) -> ModelSpec:
    """MAP fit with mini-batches and chronological-tail early stopping.

    The last val_fraction of `train` (by time) is held out; training stops
    when its loss has not improved for `patience` epochs, and the
    best-validation parameters are returned.  An empty tail (too little data)
    falls back to a fixed run of max_epochs with a warning.  A mechanistic
    kind's row with nonpositive p1, p2 or T1 raises NumericError.
    """
    if m.kind is ModelKind.BENCHMARK:
        raise ConfigError("benchmark predictor has no parameters to fit")
    if len(train) < 2:
        raise DataError("fit_map needs at least 2 observations")

    step = TrainingStep(m, loss.noise_std, loss.prior_mode)
    _, X, y, well = as_columns(train)
    X = np.ascontiguousarray(X)
    check_inputs(m, X)
    Xs = scale_inputs(step.plan, X)
    y = step.targets(y)
    wells = task_columns(m, well)
    n = X.shape[0]
    n_val = int(math.floor(escfg.val_fraction * n))
    n_tr = n - n_val
    degenerate = n_val == 0 or n_tr == 0
    if degenerate:
        warnings.warn("degenerate validation split; fixed epoch count", stacklevel=2)
        n_tr, n_val = n, 0
    Xt, Xst, yt, wt = X[:n_tr], Xs[:n_tr], y[:n_tr], wells[:n_tr]
    Xv, Xsv, yv, wv = X[n_tr:], Xs[n_tr:], y[n_tr:], wells[n_tr:]

    state = step.start(m.params.values)
    rng = substream(ocfg.seed, "batches")
    bs = n_tr if ocfg.batch_size is None else min(ocfg.batch_size, n_tr)

    best_values = state.values
    best_val = math.inf
    since_improve = 0
    k = 0
    for epoch in range(1, escfg.max_epochs + 1):
        order = rng.permutation(n_tr) if bs < n_tr else np.arange(n_tr)
        for start in range(0, n_tr, bs):
            idx = order[start:start + bs]
            k += 1
            grad = step.grad(state.values, Xt[idx], Xst[idx], yt[idx], wt[idx])
            optimizer_step(state, grad, ocfg, k)
        if degenerate:
            val_loss = math.nan
            if curve_sink is not None:
                curve_sink.append((epoch, step.loss(state.values, Xt, Xst, yt, wt), val_loss))
            best_values = state.values
            continue
        val_loss = step.loss(state.values, Xv, Xsv, yv, wv)
        if curve_sink is not None:
            curve_sink.append((epoch, step.loss(state.values, Xt, Xst, yt, wt), val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_values = state.values
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= escfg.patience:
                break
    return m.with_values(best_values)


# --------------------------------------------------------------- grid search


# the keys each mode's run reads, in search order: OL's initial fit takes the
# study's initial optimizer and its updates one row each (no batch size), and
# a PBL schedule has no step count
_GRID_KEYS = {"ol": ("gamma0", "steps", "method", "schedule"),
              "pbl": ("gamma0", "method", "schedule", "batch_size")}


def check_grids(grids: dict) -> None:
    """Refuse grids keyed by anything but a schedule mode ("ol", "pbl"), a
    grid that is not a nonempty list, and a key that the mode never reads."""
    if not isinstance(grids, dict):
        raise ConfigError("grids must map schedule modes to their grids")
    for mode, grid in grids.items():
        if mode not in _GRID_KEYS:
            raise ConfigError(f"grids: unknown schedule mode {mode!r}")
        if not isinstance(grid, dict) or not grid or any(
                not isinstance(v, (list, tuple)) or not v for v in grid.values()):
            raise ConfigError(f"grids.{mode}: grids must be nonempty lists")
        unknown = set(grid) - set(_GRID_KEYS[mode])
        if unknown:
            raise ConfigError(f"grids.{mode}: keys {sorted(unknown)} mean nothing under {mode}")


def grid_search(grids: dict, protocol, score):
    """Exhaustive search over a schedule's hyperparameters.

    Each combination of `grids` replaces the given learning protocol's (a
    ScheduleConfig, PBL or OL) ``steps`` and optimizer settings, and
    ``score(schedule)`` rates the result, lower being better.  A combination
    whose score raises NumericError or FloatingPointError, or is not finite,
    scores inf.  Ties break toward smaller gamma0, then fewer steps.  Returns
    (best ScheduleConfig, its score); NumericError when every combination
    scores inf.
    """
    check_grids({protocol.mode: grids})
    keys = [k for k in _GRID_KEYS[protocol.mode] if k in grids]
    diagnostics = []
    best = None
    best_score = math.inf

    for combo in itertools.product(*(grids[k] for k in keys)):
        override = dict(zip(keys, combo))
        if "method" in override and isinstance(override["method"], str):
            override["method"] = Method.from_str(override["method"])
        opt = dict(override)   # the step count is the schedule's, the rest the optimizer's
        steps = opt.pop("steps", protocol.steps)
        sched = replace(protocol, ocfg=replace(protocol.ocfg, **opt), steps=steps)
        try:
            value = score(sched)
        except (NumericError, FloatingPointError):
            value = math.inf
        if not math.isfinite(value):
            value = math.inf
        diagnostics.append((override, value))
        better = value < best_score
        if not better and best is not None and value == best_score and math.isfinite(value):
            better = (sched.ocfg.gamma0, sched.steps or 0) < (best.ocfg.gamma0, best.steps or 0)
        if better or best is None:
            best, best_score = sched, value

    if not math.isfinite(best_score):
        raise NumericError(f"all grid combinations diverged: {diagnostics}")
    return best, best_score
