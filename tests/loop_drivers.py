"""Frozen reference copies of the ``fit_map``, ``run_ol`` and ``run_pbl``
training loops.

These are the drivers as they were before ``optim.TrainingStep``: every
optimizer step goes through a per-kind if/elif ladder that rescales the
targets on each call, a prior term that masks the full parameter vector and
allocates a fresh gradient, and a new optimizer state (values and bounds
copied) per online-learning observation.  Validation losses come from the
gradient kernels, and predictions from a per-kind ladder.
``tests/test_training_step.py`` holds the drivers to
these loops bit for bit.  ``run_pbl`` is the periodic-batch driver as it was
before a frozen period's rows were predicted in one call: one prediction per
test row, and the previous-value benchmark as a per-row branch; the driver is
held to it bit for bit except for ``y_pred``, where a batched forward may
round differently.

Do not edit this file to follow a change in the package: it is the oracle.
The kernels it calls (``vfmlab.kernels``) have their own oracle in
``tests/loop_kernels.py``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np

from vfmlab import kernels
from vfmlab import optim
from vfmlab.core import WellDataset, as_columns, fit_scaler, substream, time_value
from vfmlab.errors import DataError, NumericError
from vfmlab.models import ModelKind, build_plan, scale_inputs, task_columns
from vfmlab.optim import Method, PriorMode, gamma_at


def plan_predict(plan, theta, X, Xs, wells):
    kind = plan.kind
    if kind is ModelKind.LR:
        return plan.y_loc + plan.y_scale * kernels.lr_predict(theta, Xs)
    if kind is ModelKind.NN:
        return plan.y_loc + plan.y_scale * kernels.nn_predict(theta, 0, plan.widths, Xs)
    if kind is ModelKind.MTL:
        return plan.y_loc + plan.y_scale * kernels.mtl_predict(theta, plan.dims, Xs, wells)
    if kind is ModelKind.MM:
        return kernels.mm_predict(theta, X, plan.geom)[0]
    if kind is ModelKind.HEM:
        return kernels.hem_predict(theta, plan.widths, X, Xs, plan.geom, plan.nn_scale)[0]
    return kernels.ham_predict(theta, plan.widths, X, Xs, plan.geom)[0]


def plan_loss_grad(plan, theta, X, Xs, y, inv_var, wells):
    kind = plan.kind
    if kind in (ModelKind.LR, ModelKind.NN, ModelKind.MTL):
        s = plan.y_scale
        if s != 1.0 or plan.y_loc != 0.0:
            y = np.ascontiguousarray((y - plan.y_loc) / s)
            inv_var = inv_var * s * s
        if kind is ModelKind.LR:
            return kernels.lr_loss_grad(theta, Xs, y, inv_var)
        if kind is ModelKind.NN:
            return kernels.nn_loss_grad(theta, 0, plan.widths, Xs, y, inv_var)
        return kernels.mtl_loss_grad(theta, plan.dims, Xs, wells, y, inv_var)
    if kind is ModelKind.MM:
        sse, grad, _ = kernels.mm_loss_grad(theta, X, plan.geom, y, inv_var)
    elif kind is ModelKind.HEM:
        sse, grad, _ = kernels.hem_loss_grad(theta, plan.widths, X, Xs, plan.geom,
                                             y, inv_var, plan.nn_scale)
    else:
        sse, grad, _ = kernels.ham_loss_grad(theta, plan.widths, X, Xs, plan.geom,
                                             y, inv_var)
    return sse, grad


def prior_loss_and_grad(params, theta, mode):
    grad = np.zeros_like(theta)
    if mode is PriorMode.NONE or len(params) == 0:
        return 0.0, grad
    z = (theta - params.prior_mean) / params.prior_std
    if mode is PriorMode.PHYSICAL_ONLY:
        mask = params.is_physical
        loss = float(np.sum(z[mask] ** 2))
        grad[mask] = 2.0 * z[mask] / params.prior_std[mask]
    else:
        loss = float(np.sum(z ** 2))
        grad[:] = 2.0 * z / params.prior_std
    return loss, grad


class State:
    def __init__(self, values, params):
        n = len(params)
        self.values = values.copy()
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.lower = params.lower.copy()
        self.upper = params.upper.copy()


def optimizer_step(state, grad, cfg, k):
    """Returns False (state untouched) on a non-finite gradient."""
    if not np.all(np.isfinite(grad)):
        return False
    g = gamma_at(cfg, k)
    if cfg.method is Method.SGD:
        state.values = kernels.sgd_step(state.values, grad, g, state.lower, state.upper)
    else:
        state.values = kernels.adam_step(state.values, grad, state.m, state.v,
                                         k, g, cfg.adam_beta1, cfg.adam_beta2,
                                         cfg.adam_eps, state.lower, state.upper)
    return True


def _loss_and_grad(m, plan, theta, X, Xs, y, wells, inv_var, prior_mode):
    sse, grad = plan_loss_grad(plan, theta, X, Xs, y, inv_var, wells)
    ploss, pgrad = prior_loss_and_grad(m.params, theta, prior_mode)
    return sse + ploss, grad + pgrad


def fit_map(m, train, loss, ocfg, escfg, curve_sink=None):
    """Returns the best-validation parameter values."""
    plan = build_plan(m)
    _, X, y, well = as_columns(train)
    X = np.ascontiguousarray(X)
    Xs = scale_inputs(plan, X)
    y = np.ascontiguousarray(y)
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

    inv_var = 1.0 / (loss.noise_std * loss.noise_std)
    state = State(m.params.values, m.params)
    rng = substream(ocfg.seed, "batches")
    bs = n_tr if ocfg.batch_size is None else min(ocfg.batch_size, n_tr)

    best_values = state.values.copy()
    best_val = math.inf
    since_improve = 0
    k = 0
    for epoch in range(1, escfg.max_epochs + 1):
        order = rng.permutation(n_tr) if bs < n_tr else np.arange(n_tr)
        for start in range(0, n_tr, bs):
            idx = order[start:start + bs]
            k += 1
            _, grad = _loss_and_grad(m, plan, state.values, Xt[idx], Xst[idx],
                                     yt[idx], wt[idx], inv_var, loss.prior_mode)
            assert optimizer_step(state, grad, ocfg, k)
        if degenerate:
            val_loss = math.nan
            if curve_sink is not None:
                tr_loss, _ = _loss_and_grad(m, plan, state.values, Xt, Xst, yt, wt,
                                            inv_var, loss.prior_mode)
                curve_sink.append((epoch, tr_loss, val_loss))
            best_values = state.values.copy()
            continue
        val_loss, _ = _loss_and_grad(m, plan, state.values, Xv, Xsv, yv, wv,
                                     inv_var, loss.prior_mode)
        if curve_sink is not None:
            tr_loss, _ = _loss_and_grad(m, plan, state.values, Xt, Xst, yt, wt,
                                        inv_var, loss.prior_mode)
            curve_sink.append((epoch, tr_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_values = state.values.copy()
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= escfg.patience:
                break
    return best_values


def run_ol(m0, split, cfg):
    """The online-learning loop over ``split.test`` without the log
    bookkeeping: returns (y_pred, model_version, final values, n_updates,
    skipped times)."""
    te = split.test
    params = m0.params
    values = params.values
    version = m0.version
    plan = build_plan(m0)
    steps = cfg.steps
    inv_var = 1.0 / (cfg.loss.noise_std * cfg.loss.noise_std)
    y_pred, versions, skipped = [], [], []
    n_updates = 0
    for i in range(len(te)):
        X1 = te.X[i][None, :]
        Xs1 = scale_inputs(plan, X1)
        wells1 = task_columns(m0, int(te.well[i]))
        y_pred.append(float(plan_predict(plan, values, X1, Xs1, wells1)[0]))
        versions.append(version)
        if steps == 0 or (cfg.update_sources is not None
                          and ("MPFM", "WellTest")[int(te.source[i])] not in cfg.update_sources):
            continue
        y1 = te.y[i:i + 1]
        state = State(values, params)
        ok = True
        for k in range(1, steps + 1):
            _, grad = plan_loss_grad(plan, state.values, X1, Xs1, y1, inv_var, wells1)
            _, pgrad = prior_loss_and_grad(params, state.values, PriorMode.PHYSICAL_ONLY)
            if not optimizer_step(state, grad + pgrad, cfg.ocfg, k):
                ok = False
                break
        if ok and np.all(np.isfinite(state.values)):
            values = state.values
            version += 1
            n_updates += 1
        else:
            skipped.append(int(te.t[i]))
    return np.array(y_pred), np.array(versions), values, n_updates, skipped


def run_pbl(m0, split, cfg):
    """The periodic-batch loop over ``split.test``, one row at a time, with
    the package's ``fit_map`` for its refits: returns (columns, metadata),
    the columns keyed by the ``PredictionLog`` field names."""
    te = split.test
    current = m0
    plan = build_plan(current)
    prev_y = {}
    if m0.kind is ModelKind.BENCHMARK:
        for w in split.train.well_ids:
            prev_y[int(w)] = float(split.train.y[split.train.well == w][-1])
    next_boundary = split.split_time + cfg.period_s
    n_retrains = 0
    failed_periods = []
    past = WellDataset.merge([split.train, te])
    n_train = len(split.train)
    rows = []
    for i in range(len(te)):
        t_i = float(te.t[i])
        if t_i >= next_boundary and m0.kind is not ModelKind.BENCHMARK:
            history = past.take(slice(0, n_train + i))
            if cfg.update_sources is not None:
                keep = [("MPFM", "WellTest")[int(s)] in cfg.update_sources
                        for s in history.source]
                history = history.take(np.flatnonzero(keep))
            if cfg.window_s is not None and len(history):
                history = history.from_time(float(history.t[-1]) - cfg.window_s)
            try:
                start = replace(m0, scaler=fit_scaler(history))
                fitted = optim.fit_map(start, history, cfg.loss, cfg.ocfg, cfg.escfg)
                current = replace(fitted, version=current.version + 1)
                plan = build_plan(current)
                n_retrains += 1
            except (NumericError, DataError):
                failed_periods.append(time_value(t_i))
            while next_boundary <= t_i:
                next_boundary += cfg.period_s
        w = int(te.well[i])
        if m0.kind is ModelKind.BENCHMARK:
            y_hat = prev_y.get(w, math.nan)
            prev_y[w] = float(te.y[i])
        else:
            X1 = te.X[i][None, :]
            y_hat = float(plan_predict(plan, current.params.values, X1,
                                       scale_inputs(plan, X1), task_columns(current, w))[0])
        rows.append((t_i, w, float(te.y[i]), y_hat, current.version, int(te.source[i])))
    names = ("t", "well", "y_true", "y_pred", "model_version", "source")
    columns = {name: np.array(col) for name, col in zip(names, zip(*rows))}
    meta = {"mode": "pbl", "period_s": cfg.period_s, "window_s": cfg.window_s,
            "kind": m0.kind.value, "n_retrains": n_retrains,
            "failed_periods": failed_periods}
    return columns, meta
