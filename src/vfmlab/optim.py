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

:func:`fit_maps` runs several MAP fits of one kind together, in lockstep:
the initial fits of every well (``cli``), or the refits of every well's
periodic-batch unit, listed up front by ``learning.run_schedules``.  Each fit
has its own start values and noise level.  Up to ``LOCKSTEP_FITS`` fits are
live, one row each of a stacked state; at each tick every live fit takes its
own next step, gathered from the call's one row store (only the columns the
kind's kernels read), full mini-batches go through stacked kernel calls
(``kernels``: the leading fit axis) and one optimizer step updates every
row, each at its fit's own step index.  A fit that stops hands its row to
the next pending fit.  Each fit keeps its own batch stream, step index,
validation and early stopping, and its result is the one it would reach
alone, bit for bit.  :func:`fit_map` is its one-fit
case.  In a process that may run on several CPUs, a call is split into
one share per worker, at most one worker per CPU: from two fits up when
each fit has at least ``SPLIT_PARAMS`` parameters (the network kinds), and
one worker per ``LOCKSTEP_FITS`` fits below that (LR, MM).  Its fits are
dealt longest first, each to the share with the fewest mini-batches so far;
this process runs the first share and a forked child each other share, each
in the same lockstep (``_fork``, the one fork path, which ``cli``'s ``tune``
also deals its jobs with).  A child sends back only each fit's
best-validation vector or error, its learning curve and the share's radicand
clamp count.  Since a fit's result does not depend on the fits beside it,
the split changes no bit.

Each fit, and each ``learning.run_ol`` unit, has one :class:`TrainingStep`.
It takes the kernel plan, the prior arrays, the target transform and the
bounds once, and builds the rows the kernels take (:meth:`TrainingStep.rows`);
per validation pass it takes the loss alone (``models.plan_loss``).  A
lockstep tick and a step of an online update write the kind's gradient
into the gradient buffer of an :class:`OptimizerState` through the kind's
binding of it (``models.plan_bound_grad``), then run one step body
(``_train_step``): the prior's gradient added in place, a finiteness check
and the SGD or Adam step written into the values.  An online-learning
update (``TrainingStep.online_update``) takes these roundings and checks
in one of two forms: LR and MM on Python floats, one fused pass per step;
the other kinds in buffers that the unit binds once
(:meth:`TrainingStep.bind`).  Both take the row's prediction from the
first step's forward.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .core import WellDataset, substream
from .errors import ConfigError, DataError, NumericError, enum_from_str
from .models import (MM_DIAGNOSTICS, ModelKind, ModelSpec, ParameterSet, build_plan,
                     check_inputs, plan_bound_grad, plan_loss, plan_loss_grad, scale_inputs,
                     task_columns)


class PriorMode(enum.Enum):
    FULL = "Full"
    PHYSICAL_ONLY = "PhysicalOnly"
    NONE = "None"

    @classmethod
    def from_str(cls, s: str) -> "PriorMode":
        return enum_from_str(cls, s, "prior mode")


class Method(enum.Enum):
    SGD = "SGD"
    ADAM = "Adam"

    @classmethod
    def from_str(cls, s: str) -> "Method":
        return enum_from_str(cls, s, "optimizer method")


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
        if len(train) == 0:
            raise DataError("cannot derive noise_std from an empty dataset")
        mean_y = float(np.mean(np.abs(train.y)))
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
        # Adam divides by 1 - beta**k and by sqrt(vhat) + eps; an online update
        # of LR or MM does so on Python floats (kernels.adam_floats), where a
        # zero divisor raises
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ConfigError("adam_beta1 and adam_beta2 must lie in [0, 1)")
        if not self.adam_eps > 0:
            raise ConfigError("adam_eps must be positive")
        # a decay: a negative power_a would grow the rate, a NaN one make it NaN
        if not self.power_a >= 0:
            raise ConfigError("power_a must be >= 0")


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
    """Learning rate at step k >= 1 under the schedule; 0.0 where k**power_a overflows."""
    if cfg.schedule == "power":
        try:
            return cfg.gamma0 / float(k) ** cfg.power_a
        except OverflowError:
            return 0.0
    return cfg.gamma0


# ------------------------------------------------------------ optimizer state


@dataclass
class OptimizerState:
    """Mutable optimizer state: arrays that every step writes into.

    Each :func:`optimizer_step` writes the new values into ``values`` and
    updates the Adam moments ``m`` and ``v`` in place.  ``scratch`` is the
    pair of arrays of ``values``' shape that the step and the prior's
    gradient work in (``kernels.adam_step``, ``_Prior.add_grad``; made per
    step when None), and ``grad`` the gradient buffer that each step's
    gradient is written into.  :meth:`TrainingStep.start` makes them for
    the stacked fits of ``fit_maps``' lockstep, whose buffers shrink with
    :meth:`keep`, and :meth:`TrainingStep.bind` once per online-learning
    unit of an array kind.  ``net``, the kind's binding of ``values`` and
    ``grad`` (:meth:`bound`, ``KindEntry.bind``), and ``row_nets``, each
    stacked row's (:meth:`bound_row`), are bound on first use and serve until
    :meth:`keep` replaces the arrays: a step, or a pending fit taking a
    row, writes into them.
    """

    values: np.ndarray
    m: np.ndarray
    v: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    grad: np.ndarray | None = None
    net: tuple | None = None
    scratch: tuple | None = None
    row_nets: list | None = None

    def bound(self, plan) -> tuple:
        """The binding of values and grad for plan's kind
        (``KindEntry.bind``)."""
        if self.net is None:
            self.net = plan.entry.bind(plan, self.values, self.grad)
        return self.net

    def bound_row(self, i: int, plan) -> tuple:
        """(values[i], grad[i], their binding for plan's kind)."""
        if self.row_nets is None:
            self.row_nets = [None] * len(self.values)
        row = self.row_nets[i]
        if row is None:
            theta, grad = self.values[i], self.grad[i]
            row = self.row_nets[i] = theta, grad, plan.entry.bind(plan, theta, grad)
        return row

    def keep(self, rows: list) -> None:
        """Keep the stacked rows where `rows` is true, in order: values and
        moments as new arrays, the gradient and scratch buffers as views of
        their leading rows; the old arrays' bindings are dropped."""
        self.values, self.m, self.v = self.values[rows], self.m[rows], self.v[rows]
        n = len(self.values)
        self.grad = self.grad[:n]
        self.scratch = tuple(s[:n] for s in self.scratch)
        self.net = self.row_nets = None


_NON_FINITE = "non-finite gradient; parameters untouched"


def optimizer_step(state: OptimizerState, grad: np.ndarray,
                   cfg: OptimizerConfig, k: int | list[int]) -> OptimizerState:
    """Apply one SGD or Adam step at schedule index k (1-based), in place;
    stacked fits give k as a list, one index per row.

    Non-finite gradients raise and leave the state untouched.  Physical
    parameters are clipped to their hard bounds.
    """
    if (min(k) if isinstance(k, list) else k) < 1:
        raise ConfigError("step index k must be >= 1")
    if not np.isfinite(grad).all():
        raise NumericError(_NON_FINITE)
    _step(state, grad, cfg, k)
    return state


def _step(state: OptimizerState, grad: np.ndarray, cfg: OptimizerConfig,
          k: int | list[int]) -> None:
    """One SGD or Adam step at k, written into state's arrays; no checks."""
    if isinstance(k, list):
        g = np.array([gamma_at(cfg, j) for j in k])[:, None]
    else:
        g = gamma_at(cfg, k)
    if cfg.method is Method.SGD:
        kernels.sgd_step(state.values, grad, g, state.lower, state.upper, state.scratch)
    else:
        kernels.adam_step(state.values, grad, state.m, state.v, k, g, cfg.adam_beta1,
                          cfg.adam_beta2, cfg.adam_eps, state.lower, state.upper, state.scratch)


def _train_step(state: OptimizerState, prior, cfg: OptimizerConfig, k) -> bool:
    """One training step in state's arrays, of one fit at a scalar k or of
    stacked fits at a list of k, on the data gradient that the caller has
    written into ``state.grad`` (``models.plan_bound_grad``): it adds the
    prior's gradient and, if every entry is finite, writes the step at k
    into the values.  Returns whether the gradient was finite."""
    grad = state.grad
    prior.add_grad(state.values, grad, state.scratch[0])
    if not np.isfinite(grad).all():
        return False
    _step(state, grad, cfg, k)
    return True


# -------------------------------------------------------------------- losses


class _Prior:
    """The prior term of the objective, its arrays taken once: the entries
    it covers (all, or the physical ones), their means and their stds."""

    def __init__(self, params: ParameterSet, mode: PriorMode):
        if mode is PriorMode.NONE or len(params) == 0:
            idx = None
        elif mode is PriorMode.PHYSICAL_ONLY:
            idx = np.flatnonzero(params.is_physical)
            if idx.size == 0:
                idx = None
            elif idx[-1] - idx[0] + 1 == idx.size:
                # one block (the physical entries lead the vector): a slice
                # takes a view, several times faster than an index array
                idx = slice(int(idx[0]), int(idx[-1]) + 1)
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

    def add_grad(self, theta: np.ndarray, grad: np.ndarray,
                 scratch: np.ndarray | None = None) -> None:
        """Add the prior's gradient to grad in place (one row per fit when
        stacked), working in scratch, an array of theta's shape, where one
        is given (its entries are a view where the prior's are a slice, a
        copy where they are an index array)."""
        if self.idx is not None:
            idx = self.idx
            z = np.subtract(theta[..., idx], self.mean,
                            out=None if scratch is None else scratch[..., idx])
            z /= self.std
            z *= 2.0
            z /= self.std   # 2 * ((theta - mean) / std) / std
            grad[..., idx] += z

    def per_entry(self, n: int) -> list:
        """Per entry of a vector of n, (mean, std) as Python floats where the
        prior covers it, else None."""
        out = [None] * n
        if self.idx is not None:
            for j, mean, std in zip(np.arange(n)[self.idx].tolist(), self.mean.tolist(),
                                    self.std.tolist()):
                out[j] = (mean, std)
        return out


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
    transforms are exact no-ops.  A fit's step takes the kind's gradient
    and the prior's (``prior.add_grad``) in ``fit_maps``' lockstep,
    :meth:`loss` is the objective of a validation pass and
    :meth:`online_update` one online-learning update, in the buffers of
    :meth:`bind`; a lockstep tick of any kind and an array kind's online
    step run one step body, ``_train_step``.
    """

    def __init__(self, m: ModelSpec, noise_std: float, prior_mode: PriorMode):
        self.plan = plan = build_plan(m)
        self.inv_var = 1.0 / (noise_std * noise_std) * plan.y_scale * plan.y_scale
        self.prior = _Prior(m.params, prior_mode)
        self.lower = m.params.lower
        self.upper = m.params.upper
        # the map of the target space to engineering units that plan_predict
        # applies, for online_update's prediction
        self.y_map = ((float(plan.y_loc), float(plan.y_scale)) if plan.entry.standardized
                      else None)
        # what online_update's float form reads, as Python floats
        self.floats = None
        if plan.entry.row_grad is not None:
            self.floats = (self.lower.tolist(), self.upper.tolist(),
                           self.prior.per_entry(len(self.lower)),
                           None if plan.geom is None else plan.geom.tolist(),
                           float(self.inv_var))

    def targets(self, y: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray((y - self.plan.y_loc) / self.plan.y_scale)

    def rows(self, m: ModelSpec, ds: WellDataset) -> tuple:
        """The raw and scaled inputs, targets and task columns of ds, after
        ``models.check_inputs``."""
        X = np.ascontiguousarray(ds.X)
        check_inputs(m, X)
        return X, scale_inputs(self.plan, X), self.targets(ds.y), task_columns(m, ds.well)

    def start(self, values: np.ndarray) -> OptimizerState:
        """Fresh optimizer state at values (one row per fit when stacked),
        which its steps write into, with its gradient and scratch buffers;
        the bounds are shared, not copied (a step never writes them)."""
        shape = values.shape
        return OptimizerState(values, np.zeros(shape), np.zeros(shape), self.lower, self.upper,
                              np.empty(shape), scratch=(np.empty(shape), np.empty(shape)))

    def loss(self, theta, X, Xs, y, wells) -> float:
        """The objective on rows (X, Xs, y from targets, wells)."""
        return plan_loss(self.plan, theta, X, Xs, y, self.inv_var, wells) + self.prior.loss(theta)

    def bind(self, ocfg: OptimizerConfig, steps: int) -> tuple | OptimizerState:
        """What one online-learning unit of `steps` steps per update under
        ocfg binds once, for :meth:`online_update`.  A kind whose updates
        run on Python floats (LR, MM) gets its per-step coefficients:
        (gamma_k, 1 - beta1**k, 1 - beta2**k) for k = 1 .. steps, computed
        as :func:`gamma_at` and ``kernels.adam_step`` compute them.  Any
        other kind gets its buffers (:meth:`start` at zeros of the unit's
        parameter count) and its layer views of the values and the gradient
        (``KindEntry.bind``)."""
        if self.floats is not None:
            beta1, beta2 = ocfg.adam_beta1, ocfg.adam_beta2
            return tuple((gamma_at(ocfg, k), 1.0 - beta1 ** k, 1.0 - beta2 ** k)
                         for k in range(1, steps + 1))
        unit = self.start(np.zeros(len(self.lower)))
        unit.bound(self.plan)
        return unit

    def online_update(self, unit: tuple | OptimizerState, theta, X, Xs, y, wells,
                      ocfg: OptimizerConfig, steps: int) -> tuple:
        """One online-learning update: `steps` optimizer steps at k = 1, 2,
        ... on one row (X, Xs, y from targets, wells), warm-started at theta
        with zero Adam moments, in the `unit` that :meth:`bind` gave for
        ocfg and steps.  Returns (values, prediction): values are the new
        values, or None when a gradient, the final values or the final Adam
        second moment v are not finite (the update is skipped).  A finite
        gradient entry above about 1.3e154 overflows v to inf; that entry's
        step is then exactly 0, so v is checked too.  The prediction is the
        row's at theta, in engineering units, skipped update or not.  Both
        forms take it from the first step's forward, which is at theta:
        mapped as ``models.plan_predict`` maps it, bit for bit, with that
        step's radicand clamps counted twice, once for the prediction and
        once for the step.  Every rounding is that of the array steps and
        the array prediction, and the radicand clamps go to
        ``models.MM_DIAGNOSTICS`` alike.

        An array kind (NN, MTL, HEM, HAM) steps in the unit's buffers:
        theta is copied into its values and its moments are zeroed, then
        each step writes the kind's gradient into the gradient buffer
        (``models.plan_bound_grad``, on the layer views bound to the
        buffers) and takes a fit's step body, ``_train_step`` at a scalar
        k: it adds the prior's, checks it is finite and writes the SGD or
        Adam step (``kernels.sgd_step``, ``kernels.adam_step``) into the
        values, working in the unit's scratch; v is checked once, after the
        last step, since it cannot come back from inf.  The result is
        returned as a copy, which later updates leave alone.

        A kind with a float row gradient (``KindEntry.row_grad``: LR, MM)
        runs the whole update on Python floats: theta and the row are
        converted once, then each step takes the row gradient and one fused
        pass (``kernels.sgd_floats`` or ``kernels.adam_floats``) that adds
        the prior's gradient, checks each entry is finite and writes the
        step with its clip, at the unit's coefficients; the result becomes
        an array once.
        """
        if self.floats is None:
            th = unit.values
            th[...] = theta
            unit.m.fill(0.0)
            unit.v.fill(0.0)
            plan, inv_var, prior, y_map = self.plan, self.inv_var, self.prior, self.y_map
            pred = None
            for k in range(1, steps + 1):
                _, z, clamps = plan_bound_grad(plan, unit.net, th, X, Xs, y, inv_var, wells,
                                               unit.grad)
                if pred is None:
                    pred = z[0] if y_map is None else y_map[0] + y_map[1] * z[0]
                    MM_DIAGNOSTICS.count += clamps   # once more, for the prediction
                if not _train_step(unit, prior, ocfg, k):
                    return None, pred
            ok = np.isfinite(th).all() and np.isfinite(unit.v).all()
            return (th.copy() if ok else None), pred
        lower, upper, prior, geom, inv_var = self.floats
        y_map = self.y_map
        row_grad = self.plan.entry.row_grad
        adam = ocfg.method is not Method.SGD
        beta1, beta2, eps = ocfg.adam_beta1, ocfg.adam_beta2, ocfg.adam_eps
        th = theta.tolist()
        x, xs, y = X[0].tolist(), Xs[0].tolist(), float(y[0])
        n = len(th)
        m = v = [0.0] * n
        pred = None
        for gamma_k, c1, c2 in unit:
            g = [0.0] * n
            _, z, clamps = row_grad(th, x, xs, geom, y, inv_var, g)
            if pred is None:
                pred = z if y_map is None else y_map[0] + y_map[1] * z
                clamps += clamps
            MM_DIAGNOSTICS.count += clamps
            if adam:
                stepped = kernels.adam_floats(th, g, prior, lower, upper, gamma_k, m, v, c1, c2,
                                              beta1, beta2, eps)
                if stepped is None:
                    return None, pred
                th, m, v = stepped
            else:
                th = kernels.sgd_floats(th, g, prior, lower, upper, gamma_k)
                if th is None:
                    return None, pred
        ok = all(map(math.isfinite, th)) and all(map(math.isfinite, v))
        return (np.array(th) if ok else None), pred


# ------------------------------------------------------------------- fitting


# fit_maps keeps at most this many fits live in its stack: the stacked arrays,
# and a tick's kernel, Adam and prior cost, grow with the live fits.  At caps
# of 8, 16 and 32, the 39 PBL-2w refits of well 1 at fixed epochs (the
# pbl-refit workload's) took 1.29-1.40, 1.41-1.48 and 1.23-1.34 s for NN and
# 0.45-0.46, 0.31-0.37 and 0.30-0.36 s for MM (two runs, min of 3 each), and
# the default study's 195 PBL-2w refits took 9.7, 9.3 and 8.2 s for HEM and
# 7.3, 4.8 and 5.2 s for NN (one run each; 2 cores, tools/pbl_lockstep.py
# --cap; one process, before calls were split).  No cap is steadily faster on
# that host.  The cap changes no result.  It also sets the split of fits
# below SPLIT_PARAMS parameters: one worker per this many pending fits, at
# most one per CPU.
LOCKSTEP_FITS = 16

# fit_maps gives fits of at least this many parameters one worker each, at
# most one per CPU.  The cutoff only separates LR (7 parameters) and MM (6)
# from the network kinds (NN 1313, HEM 1319, HAM 1318, MTL 4629): any value
# from 8 to 1313 splits the same calls.  A network tick grows with the stack
# (an MTL gradient at 64 rows took 156, 243 and 300 us at 1, 2 and 3 fits),
# so a second core cuts wall time from two fits up: the first 2, 3 and 5
# initial fits and PBL-2w refits of `tools/pbl_lockstep.py --wells 5
# --early-stopping`'s lists took 18-35% less on two workers than on one for
# NN, HEM and HAM (fit_maps with _cpus set to 1 and 2 in one unpinned
# process, alternating, medians of 9; 2-core VM), study-cli's MTL call of 3
# PBL-6m refits 0.951 -> 0.673 s (BENCH_27.json), and pbl-refit, whose NN
# calls hold 39 refits, 1.780 -> 1.101 s wall (BENCH_26.json).  An LR or MM
# tick costs about the same whatever the stack holds, so those keep one
# worker per LOCKSTEP_FITS fits.
SPLIT_PARAMS = 16


# glibc's mallopt parameter M_TOP_PAD (malloc.h), and the pad fit_maps sets:
# how much free memory above the last block in use the heap keeps when it
# shrinks.  A lockstep tick frees the stacked gradients' temporaries (of 128
# KiB and more) at the top of the heap; unpadded, glibc gives that memory
# back to the kernel, and the next tick faults it in again.  Minor faults of one
# lockstep call over well 1's PBL-2w refits (tools/pbl_lockstep.py, this
# process / its worker, 2 cores), with no pad set: NN 63k / 64k, HEM 78k /
# 71k, MTL 210k / 217k; at 1 MiB NN still 24k / 23k; at 2 MiB NN, HEM and
# HAM 2.1k to 2.7k, but MTL 67k / 66k; at 3 MiB MTL 5.1k / 6.2k; at 4 MiB
# every kind 2.1k to 4.3k.  So 4 MiB, the smallest of these that holds every
# kind's faults down; it costs each process at most that much resident
# memory.  Setting it also stops glibc from raising its mmap threshold.
_M_TOP_PAD = -2
_TOP_PAD = 4 << 20


@functools.cache
def _pad_heap() -> None:
    """Set the heap's top pad, once per process and before any fork, so
    that the workers inherit it; where the C library has no ``mallopt``
    (not glibc), nothing."""
    import ctypes   # here, so that importing vfmlab stays light
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _TOP_PAD)


class _Fit:
    """One fit of :func:`fit_maps`: its ``n`` rows from ``base`` in the row
    store, a training head of ``n_tr`` and a chronological validation tail,
    its own mini-batch stream, step index and early-stopping state."""

    def __init__(self, j: int, start: ModelSpec, train: WellDataset, loss: LossSpec,
                 ocfg: OptimizerConfig, escfg: EarlyStoppingConfig, sink: list | None):
        if len(train) < 2:
            raise DataError("fit_map needs at least 2 observations")
        self.j, self.start, self.sink = j, start, sink
        self.step = TrainingStep(start, loss.noise_std, loss.prior_mode)
        self.rows = self.step.rows(start, train)
        self.n = n = len(train)
        n_val = int(math.floor(escfg.val_fraction * n))
        n_tr = n - n_val
        self.degenerate = n_val == 0 or n_tr == 0
        if self.degenerate:
            # stacklevel: fit_maps, then its caller (fit_map), then the caller's
            warnings.warn("degenerate validation split; fixed epoch count", stacklevel=4)
            n_tr = n
        self.n_tr = n_tr
        self.rng = substream(ocfg.seed, "batches")
        self.bs = n_tr if ocfg.batch_size is None else min(ocfg.batch_size, n_tr)
        self.batches = -(-n_tr // self.bs)   # mini-batches per epoch
        self.k = 0               # steps taken
        self.epoch = 0
        self.pos = n_tr          # the first batch starts an epoch
        self.best_values = start.params.values
        self.error = None        # the DataError or NumericError that ended the fit
        self.best_val = math.inf
        self.since_improve = 0

    def next_batch(self) -> np.ndarray:
        """Store indices of the fit's next training batch; the first step of
        an epoch draws that epoch's order."""
        if self.pos >= self.n_tr:
            self.epoch += 1
            self.order = self.base + (self.rng.permutation(self.n_tr) if self.bs < self.n_tr
                                      else np.arange(self.n_tr))
            self.pos = 0
        idx = self.order[self.pos:self.pos + self.bs]
        self.pos += self.bs
        return idx

    def end_epoch(self, values: np.ndarray, escfg: EarlyStoppingConfig, store: list) -> bool:
        """Validate after the epoch's last step; True once the fit is done.
        The learning curve's training loss is a diagnostic: its radicand
        clamps are not counted."""
        if self.sink is not None:
            clamps = MM_DIAGNOSTICS.count
            loss = self.step.loss(values, *_gather(store, slice(self.base,
                                                                self.base + self.n_tr)))
            MM_DIAGNOSTICS.count = clamps
        if self.degenerate:
            val_loss = math.nan
            self.best_values = values.copy()
        else:
            val_loss = self.step.loss(values, *_gather(store, slice(self.base + self.n_tr,
                                                                    self.base + self.n)))
            if val_loss < self.best_val:
                self.best_val = val_loss
                self.best_values = values.copy()
                self.since_improve = 0
            else:
                self.since_improve += 1
        if self.sink is not None:
            self.sink.append((self.epoch, loss, val_loss))
        return self.since_improve >= escfg.patience or self.epoch == escfg.max_epochs


def fit_maps(fits, ocfg: OptimizerConfig, escfg: EarlyStoppingConfig,
             curve_sinks=None) -> list:
    """MAP fits in lockstep, one per ``(start, train, loss)`` triple of `fits`.

    Each fit starts from its own ModelSpec (values and input scaler), with
    its own noise level, and trains as :func:`fit_map` describes; its result
    does not depend on the other fits, bit for bit.  The fits share the
    first fit's kernel plan, prior and bounds: a fit that differs from it in
    kind, structure (network widths, choke geometry, MTL layout), prior mode,
    physical flags, prior means or stds, or bounds is a ConfigError, raised
    before any fit runs.

    At most ``LOCKSTEP_FITS`` fits are live, one row each of the stacked
    parameters and Adam moments.  At each tick every live fit takes its own
    next step, on a mini-batch gathered from the row store, which holds every
    fit's rows end to end in the columns that the kind's kernels read
    (``KindEntry.columns``).  The mini-batches due at a tick that share a
    length of at least ``kernels.COLUMN_ROWS`` rows go through one stacked
    kernel call (theta (R, P), X and Xs (R, n, 6), y and wells (R, n),
    inv_var (R, 1)); every other batch (an epoch's partial last one, a fit
    alone at its length) and every validation pass runs one fit at a time.
    A stacked call that takes every live fit, and a one-fit call, write the
    gradient straight into the stack's gradient buffer through the kind's
    binding of the stack or the row (``OptimizerState.bound``,
    ``bound_row``), bound until the stack shrinks.  A stacked call over part
    of the stack and a validation pass bind their arguments per call
    (``models.plan_loss_grad``, ``plan_loss``), and the gradient of the
    first is copied into the stack's.  One optimizer step then updates
    every live row at its fit's own step index k, from a list: gamma_k and
    Adam's bias corrections are (R, 1) columns of the floats one fit would
    use.  A fit leaves the stack when it stops early, runs out of epochs,
    or meets a non-finite gradient, and the next pending fit takes its row,
    at k = 1 with zero moments.  On the tick a fit fails, its row takes a
    zero gradient in the stack's one step; Adam and SGD step each row on
    its own, so the other fits keep their bits.
    Pending fits go live with the most mini-batches per epoch first, ties in
    list order, so that the longest fits do not finish alone at the end.
    The stack's values, moments, gradient and scratch are arrays of its
    :class:`OptimizerState` that every tick writes into (``_train_step``);
    they shrink when the pending fits run out.

    Adam's overflow rule for fits: a finite gradient entry above about
    1.3e154 makes that entry's bias-corrected second moment overflow to
    inf.  The fit takes the step all the same, and that entry's step is
    exactly 0 (so is every later one, since v cannot come back from inf);
    only a non-finite gradient ends a fit.  An online-learning update skips
    such a step instead (:meth:`TrainingStep.online_update`).

    In a process that may run on more than one CPU, a call splits its
    pending fits across workers: min(CPUs, fits) of them when each fit has at
    least ``SPLIT_PARAMS`` parameters, whose ticks grow with the stack, and
    min(CPUs, ceil(fits / LOCKSTEP_FITS)) below that, where a tick costs
    about the same whatever the stack holds.  The fits, longest first, are
    dealt by the longest-processing-time rule: each goes to the share with
    the fewest mini-batches per epoch so far, the lowest share on a tie
    (``_deal``).  The shares run through the fork helper that ``cli``'s
    ``tune`` also deals its jobs with (``_fork``): this process runs the
    first share and a child forked per other share runs its own, each in
    the lockstep above.  Before either, the call sets the heap's top pad
    once per process (``_pad_heap``), so that the ticks of this process and
    of the children reuse the memory that the last tick freed.  A child
    sends back, per fit, only its best-validation vector or the DataError
    or NumericError that ended it, and its learning-curve entries, and once
    its radicand clamp count, which goes to ``models.MM_DIAGNOSTICS``; the
    ModelSpecs are built here from each fit's own start, so they keep its
    scaler.  Since no fit's result depends on the fits beside it, the split
    changes no bit.  A call of one fit, a call of at most ``LOCKSTEP_FITS``
    fits below ``SPLIT_PARAMS`` parameters, a process pinned to one CPU, a
    call inside a share of ``_fork`` (which counts one CPU) and a platform
    without ``fork`` run in this process alone.

    Returns, in list order, per fit its start with its best-validation
    values (version start.version + 1), or the DataError or NumericError
    that ended it: fewer than 2 rows, a mechanistic row with nonpositive p1,
    p2 or T1, or a non-finite gradient.
    """
    if not fits:
        return []
    _check_stack(fits)
    if fits[0][0].kind is ModelKind.BENCHMARK:
        raise ConfigError("benchmark predictor has no parameters to fit")
    results: list = [None] * len(fits)
    pending = []
    for j, (start, train, loss) in enumerate(fits):
        try:
            pending.append(_Fit(j, start, train, loss, ocfg, escfg,
                                None if curve_sinks is None else curve_sinks[j]))
        except (DataError, NumericError) as e:
            results[j] = e
    if not pending:
        return results
    _pad_heap()
    shares = _deal(pending, _workers(len(pending), len(fits[0][0].params)),
                   lambda f: f.batches)
    done = _fork(functools.partial(_fit_share, ocfg=ocfg, escfg=escfg), shares)
    for share, outcomes in zip(shares, done):
        for f, (outcome, curve) in zip(share, outcomes):
            results[f.j] = outcome if isinstance(outcome, Exception) else \
                f.start.with_values(outcome)
            if curve_sinks is not None:
                curve_sinks[f.j].extend(curve)
    return results


# True in a process while it runs a share of _fork, and for good in its
# forked children: the process then counts one CPU, so a fit_maps call inside
# a share runs in that share's process (a daemonic multiprocessing child may
# not start children, and the shares already hold every CPU)
_in_share = False


def _cpus() -> int:
    """The CPUs this process may run on; 1 while it runs a share of
    :func:`_fork`."""
    if _in_share:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _workers(n: int, params: int) -> int:
    """How many processes run n >= 1 pending fits of `params` parameters
    each: one per fit from ``SPLIT_PARAMS`` parameters up, one per
    ``LOCKSTEP_FITS`` fits below; at most one per CPU, and one where fork
    is missing."""
    return _fork_workers(n if params >= SPLIT_PARAMS else -(-n // LOCKSTEP_FITS))


def _fork_workers(n: int) -> int:
    """How many processes run n jobs that may run at once: min(CPUs, n),
    at least 1, and 1 where fork is missing."""
    workers = min(_cpus(), max(n, 1))
    if workers > 1:
        import multiprocessing   # here, so that importing vfmlab stays light
        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
    return workers


def _deal(jobs: list, workers: int, cost) -> list:
    """The jobs, longest first (a stable sort by ``cost(job)``, so ties keep
    list order), dealt into `workers` shares by Graham's
    longest-processing-time rule: each goes to the share with the least
    cost so far, the lowest share on a tie."""
    shares = [[] for _ in range(workers)]
    load = [0] * workers
    for job in sorted(jobs, key=lambda j: -cost(j)):
        w = load.index(min(load))
        shares[w].append(job)
        load[w] += cost(job)
    return shares


def _fork(work, shares: list) -> list:
    """``work(share)`` for every share, in share order: the first share in
    this process and each other share in a forked child, all at once.  One
    share runs here alone, with no fork.

    While the shares run, :func:`_cpus` counts one CPU in this process and
    in the children.  A forked child inherits its share (rows, plans,
    scalers) as it is, so only work's result, which must pickle, crosses a
    pipe, with the radicand clamps the child counted; they go to
    ``models.MM_DIAGNOSTICS``, so the count moves as in one process.  The
    program starts no threads that a fork could catch holding a lock.

    A child whose work raises sends its error, which is raised here; a child
    that exits without sending is a RuntimeError naming its exit code.
    Whatever raises, here or in a child, the children are terminated and
    joined first; on success they are joined before this returns."""
    global _in_share
    if len(shares) == 1:
        return [work(shares[0])]
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    children = []
    done = False
    outer, _in_share = _in_share, True
    try:
        for share in shares[1:]:
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_child, args=(work, share, send), daemon=True)
            child.start()
            send.close()   # so that recv sees end of file if the child dies
            children.append((child, recv))
        results = [work(shares[0])]
        for child, recv in children:
            try:
                got = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"a forked worker exited with code {child.exitcode} "
                                   "before sending its result") from None
            if isinstance(got, BaseException):
                raise got
            result, clamps = got
            MM_DIAGNOSTICS.count += clamps
            results.append(result)
        done = True
    finally:
        _in_share = outer
        for child, recv in children:
            if not done:
                child.terminate()
            child.join()
            recv.close()
    return results


def _child(work, share, send) -> None:
    """A forked worker of :func:`_fork`: one message, ``work(share)`` and
    the radicand clamps counted, or the error that stopped it."""
    try:
        clamps0 = MM_DIAGNOSTICS.count
        result = work(share)
        send.send((result, MM_DIAGNOSTICS.count - clamps0))
    except Exception as e:
        send.send(e)
    finally:
        send.close()


def _fit_share(share: list, ocfg: OptimizerConfig, escfg: EarlyStoppingConfig) -> list:
    """The lockstep of one share of :func:`fit_maps`: per fit, its
    best-validation vector or the error that ended it, and its new
    learning-curve entries."""
    for f in share:
        if f.sink is not None:
            f.sink = []
    _lockstep(share, ocfg, escfg)
    return [(f.best_values if f.error is None else f.error, f.sink) for f in share]


def _lockstep(pending: list, ocfg: OptimizerConfig, escfg: EarlyStoppingConfig) -> None:
    """The lockstep of :func:`fit_maps` over its fits, longest first: each
    fit ends with its best-validation values, or with the error that ended
    it."""
    # the row store: X, Xs, targets and task columns, each of every fit end to
    # end, and None for a column that the kind's kernels do not read
    store = [np.concatenate([f.rows[c] for f in pending]) if read else None
             for c, read in enumerate(pending[0].step.plan.entry.columns)]
    base = 0
    for f in pending:
        f.base, base = base, base + f.n
        del f.rows
    queue = iter(pending)
    live = list(itertools.islice(queue, LOCKSTEP_FITS))
    state = live[0].step.start(np.stack([f.start.params.values for f in live]))
    prior = live[0].step.prior
    stacked = None    # _stacked(live), built again after each change of the live fits
    while live:
        for f in live:
            f.k += 1
        k = [f.k for f in live]
        batches = [f.next_batch() for f in live]
        by_len: dict = {}
        for i, idx in enumerate(batches):
            by_len.setdefault(idx.shape[0], []).append(i)
        grad = state.grad
        for n_rows, ix in by_len.items():
            if len(ix) > 1 and n_rows >= kernels.COLUMN_ROWS:
                if stacked is None:
                    stacked = _stacked(live)
                plan, inv_var = stacked
                X, Xs, y, wells = _gather(store, np.stack([batches[i] for i in ix]))
                if len(ix) == len(live):   # the whole stack, through its own binding
                    plan_bound_grad(plan, state.bound(plan), state.values, X, Xs, y, inv_var,
                                    wells, grad)
                else:   # part of it, a copy bound per call
                    _, grad[ix] = plan_loss_grad(replace(plan, nn_scale=plan.nn_scale[ix]),
                                                 state.values[ix], X, Xs, y, inv_var[ix], wells)
                continue
            for i in ix:   # into the row's gradient, through the row's binding
                step = live[i].step
                X, Xs, y, wells = _gather(store, batches[i])
                theta, g, net = state.bound_row(i, step.plan)
                plan_bound_grad(step.plan, net, theta, X, Xs, y, step.inv_var, wells, g)
        finite = _train_step(state, prior, ocfg, k)
        failed = [False] * len(live)
        if not finite:   # the fits whose gradient is not finite end here
            failed = (~np.isfinite(grad).all(axis=1)).tolist()
            error = NumericError(_NON_FINITE)
            for i in itertools.compress(range(len(live)), failed):
                live[i].error = error
            # their rows step on a zero gradient and are refilled or dropped
            # below; each row steps on its own, so the others keep their bits
            grad[failed] = 0.0
            _step(state, grad, ocfg, k)
        stop = [bad or (f.pos >= f.n_tr and f.end_epoch(state.values[i], escfg, store))
                for i, (f, bad) in enumerate(zip(live, failed))]
        if any(stop):
            for i in itertools.compress(range(len(live)), stop):
                f = live[i] = next(queue, None)
                if f is not None:   # the next pending fit takes the row
                    state.values[i] = f.start.params.values
                    state.m[i] = state.v[i] = 0.0
            keep = [f is not None for f in live]
            if not all(keep):
                state.keep(keep)
                live = [f for f in live if f is not None]
            stacked = None


def _gather(store: list, at) -> tuple:
    """Rows `at` of each column of the row store, None for a column that is
    None: a slice as views, the store indices of a batch (or of stacked
    batches, (R, n)) as copies."""
    if isinstance(at, slice):
        return tuple(None if c is None else c[at] for c in store)
    # take: the same copy as c[at], several times faster on the (R, n) index
    # into the (rows, 6) inputs
    return tuple(None if c is None else c.take(at, axis=0) for c in store)


def _check_stack(fits) -> None:
    """Refuse fits that cannot share the first fit's plan, prior and bounds."""
    m, _, loss = fits[0]
    p = m.params
    for j, (s, _, sloss) in enumerate(fits[1:], 1):
        q = s.params
        for what, same in (
                ("kind", s.kind is m.kind),
                ("structure", (s.shape, s.mtl, s.geometry) == (m.shape, m.mtl, m.geometry)),
                ("prior mode", sloss.prior_mode is loss.prior_mode),
                ("physical flags", np.array_equal(q.is_physical, p.is_physical)),
                ("prior means", np.array_equal(q.prior_mean, p.prior_mean)),
                ("prior stds", np.array_equal(q.prior_std, p.prior_std)),
                ("bounds", np.array_equal(q.lower, p.lower) and np.array_equal(q.upper, p.upper))):
            if not same:
                raise ConfigError(f"fit {j} cannot share a stack with fit 0: they differ in {what}")


def _stacked(live: list) -> tuple:
    """The plan and inv_var column of a stacked call over every live fit, one
    row per fit: HEM's network term is scaled by each fit's own target
    scale."""
    return (replace(live[0].step.plan,
                    nn_scale=np.array([f.step.plan.nn_scale for f in live])[:, None]),
            np.array([f.step.inv_var for f in live])[:, None])


def fit_map(m: ModelSpec, train: WellDataset, loss: LossSpec,
            ocfg: OptimizerConfig, escfg: EarlyStoppingConfig,
            curve_sink: list | None = None) -> ModelSpec:
    """MAP fit with mini-batches and chronological-tail early stopping.

    The last val_fraction of `train` (by time) is held out; training stops
    when its loss has not improved for `patience` epochs, and the
    best-validation parameters are returned.  An empty tail (too little data)
    falls back to a fixed run of max_epochs with a warning.  A mechanistic
    kind's row with nonpositive p1, p2 or T1 raises NumericError.  This is
    the one-fit case of :func:`fit_maps`.
    """
    fitted, = fit_maps([(m, train, loss)], ocfg, escfg,
                       None if curve_sink is None else [curve_sink])
    if isinstance(fitted, Exception):
        raise fitted
    return fitted


# --------------------------------------------------------------- grid search


# the keys each mode's run reads, in search order: OL's initial fit takes the
# study's initial optimizer and its updates one row each (no batch size), and
# a PBL schedule has no step count
_GRID_KEYS = {"ol": ("gamma0", "steps", "method", "schedule"),
              "pbl": ("gamma0", "method", "schedule", "batch_size")}


def _grid_value(key: str, value):
    """The setting one grid value makes (a method name becomes a Method)."""
    return Method.from_str(value) if key == "method" and not isinstance(value, Method) else value


def check_grids(grids: dict) -> None:
    """Refuse grids keyed by anything but a schedule mode ("ol", "pbl"), a
    grid that is not a nonempty list, a key that the mode never reads, and a
    value that tune could not run: each is built as grid_search builds it
    (a step count, or an OptimizerConfig setting)."""
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
        for key, values in grid.items():
            for value in values:
                try:
                    if key != "steps":
                        OptimizerConfig(**{key: _grid_value(key, value)})
                    elif isinstance(value, bool) or not isinstance(value, int) or value < 0:
                        raise ConfigError("steps must be an integer >= 0")
                except (ConfigError, TypeError, ValueError) as e:
                    raise ConfigError(f"grids.{mode}.{key}: {e}") from None


def grid_schedules(grids: dict, protocol) -> list:
    """Every combination of `grids`, in search order, as (override, schedule):
    the grid values by key (a method name becomes a Method) and the given
    learning protocol (a ScheduleConfig, PBL or OL) with its ``steps`` and
    optimizer settings replaced by them."""
    check_grids({protocol.mode: grids})
    keys = [k for k in _GRID_KEYS[protocol.mode] if k in grids]
    combos = []
    for combo in itertools.product(*(grids[k] for k in keys)):
        override = {k: _grid_value(k, v) for k, v in zip(keys, combo)}
        opt = dict(override)   # the step count is the schedule's, the rest the optimizer's
        steps = opt.pop("steps", protocol.steps)
        combos.append((override, replace(protocol, ocfg=replace(protocol.ocfg, **opt),
                                          steps=steps)))
    return combos


def grid_search(grids: dict, protocol, score):
    """Exhaustive search over a schedule's hyperparameters.

    Each combination of :func:`grid_schedules` is rated by
    ``score(schedule)``, in its order, lower being better.  A combination
    whose score raises NumericError or FloatingPointError, or is not finite,
    scores inf.  Ties break toward smaller gamma0, then fewer steps.  Returns
    (best ScheduleConfig, its score); NumericError when every combination
    scores inf.
    """
    diagnostics = []
    best = None
    best_score = math.inf

    for override, sched in grid_schedules(grids, protocol):
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
