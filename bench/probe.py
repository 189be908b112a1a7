"""Kernel probe: min-of-k timings of each kernel at n = 1, 64 and 1024 rows.

Rows are drawn from the default wells of the run's seed, and parameters
are each kind's initial values with a scaler fitted on the rows.  A sample
times a batch of calls long enough to dwarf the clock's resolution; the
probe reports the fastest sample per call, in microseconds.  The n = 1
against n = 64 and 1024 figures give the crossover point between
per-observation and batch calls.
"""

from __future__ import annotations

import time

import numpy as np

from vfmlab import kernels
from vfmlab.config import StudyConfig
from vfmlab.core import WellDataset, fit_scaler
from vfmlab.models import build_plan, init_model, scale_inputs

KINDS = ("lr", "nn", "mm", "hem", "mtl")
ROWS = (1, 64, 1024)
ADAM_KINDS = ("nn", "hem", "mtl")


def _best_us(call, samples: int, min_sample_s: float) -> float:
    """Fastest per-call time over ``samples`` batches of calls."""
    t0 = time.perf_counter()
    call()
    single = time.perf_counter() - t0
    reps = max(1, int(min_sample_s / max(single, 1e-7)))
    best = float("inf")
    for _ in range(samples):
        t0 = time.perf_counter()
        for _ in range(reps):
            call()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best * 1e6


def _kernel_calls(kind: str, plan, theta, X, Xs, y, wells):
    """(predict, loss_grad) closures calling the kernel itself."""
    inv_var = 1.0
    if kind == "lr":
        return (lambda: kernels.lr_predict(theta, Xs),
                lambda: kernels.lr_loss_grad(theta, Xs, y, inv_var))
    if kind == "nn":
        return (lambda: kernels.nn_predict(theta, 0, plan.widths, Xs),
                lambda: kernels.nn_loss_grad(theta, 0, plan.widths, Xs, y, inv_var))
    if kind == "mm":
        return (lambda: kernels.mm_predict(theta, X, plan.geom),
                lambda: kernels.mm_loss_grad(theta, X, plan.geom, y, inv_var))
    if kind == "hem":
        return (lambda: kernels.hem_predict(theta, plan.widths, X, Xs, plan.geom,
                                            plan.nn_scale),
                lambda: kernels.hem_loss_grad(theta, plan.widths, X, Xs, plan.geom, y,
                                              inv_var, plan.nn_scale))
    return (lambda: kernels.mtl_predict(theta, plan.dims, Xs, wells),
            lambda: kernels.mtl_loss_grad(theta, plan.dims, Xs, wells, y, inv_var))


def run_probe(seed: int, rows: tuple[int, ...] = ROWS, samples: int = 5,
              min_sample_s: float = 0.005) -> dict[str, float]:
    """``probe.<kind>.{predict_us,grad_us}.n<rows>`` and
    ``probe.adam_step_us.<kind>`` for the network kinds."""
    cfg = StudyConfig(seed=seed)
    data = WellDataset.merge(list(cfg.load_datasets().values()))
    pick = np.random.default_rng(seed).permutation(len(data))
    out = {}
    models = {}
    for kind in KINDS:
        mtl = cfg.mtl_params(data.well_ids) if kind == "mtl" else None
        m = init_model(kind, shape=cfg.network_shape(), mtl=mtl, seed=seed,
                       scaler=fit_scaler(data))
        models[kind] = m
        plan = build_plan(m)
        for n in rows:
            sel = data.take(np.sort(pick[:n]))
            X = np.ascontiguousarray(sel.X)
            Xs = scale_inputs(plan, X)
            y = np.ascontiguousarray((sel.y - plan.y_loc) / plan.y_scale)
            wells = np.array([m.mtl.col_of(w) for w in sel.well] if mtl else [0] * n,
                             dtype=np.int64)
            predict, grad = _kernel_calls(kind, plan, m.params.values, X, Xs, y, wells)
            out[f"probe.{kind}.predict_us.n{n}"] = _best_us(predict, samples, min_sample_s)
            out[f"probe.{kind}.grad_us.n{n}"] = _best_us(grad, samples, min_sample_s)
    rng = np.random.default_rng(seed)
    for kind in ADAM_KINDS:
        p = models[kind].params
        theta, grad = p.values.copy(), rng.standard_normal(len(p))
        m, v = np.zeros(len(p)), np.zeros(len(p))
        out[f"probe.adam_step_us.{kind}"] = _best_us(
            lambda: kernels.adam_step(theta, grad, m, v, 1, 1e-3, 0.9, 0.999, 1e-8,
                                      p.lower, p.upper), samples, min_sample_s)
    return out
