"""Frozen reference copies of the ``fit_map`` and ``run_ol`` training loops.

These are the drivers as they were before ``optim.TrainingStep``: every
optimizer step goes through a per-kind if/elif ladder that rescales the
targets on each call, a prior term that masks the full parameter vector and
allocates a fresh gradient, and a new optimizer state (values and bounds
copied) per online-learning observation.  Validation losses come from the
gradient kernels, and predictions from a per-kind ladder.
``tests/test_training_step.py`` holds the drivers to
these loops bit for bit.

Do not edit this file to follow a change in the package: it is the oracle.
The kernels it calls (``vfmlab.kernels``) have their own oracle in
``tests/loop_kernels.py``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from vfmlab import kernels
from vfmlab.core import as_columns, substream
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
    steps = cfg.steps_per_obs()
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
