"""The training step: loss-only kernels, and fit_map, run_ol and run_pbl
against the frozen training loops of ``loop_drivers``.

The training step (``optim.TrainingStep``) takes the prior arrays and the
target transform once per fit or online-learning unit, validates with the
loss-only kernels and runs the network forward once per gradient.  None of
that may change a single rounding: fitted values, learning curves and
online-learning logs must equal the frozen loops bit for bit, for every
trainable kind, every prior mode and both optimizers.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import loop_drivers as loop
from conftest import make_dataset
from vfmlab.core import WellDataset, chronological_split, fit_scaler
from vfmlab import learning
from vfmlab.learning import ScheduleConfig, run_ol, run_pbl
from vfmlab.models import (TRAINABLE_KINDS, ModelKind, MtlParams, NetworkShape, build_plan, init_model,
                           mm_clamp_count, plan_loss, plan_loss_grad, predict, scale_inputs,
                           task_columns)
from vfmlab.optim import (EarlyStoppingConfig, LossSpec, Method, OptimizerConfig, PriorMode,
                          fit_map)

SHAPE = NetworkShape(hidden=(8, 8))
MTL = MtlParams(well_ids=(1, 2), task_dim=2, block_width=8, n_blocks=1)
ESCFG = EarlyStoppingConfig(val_fraction=0.25, patience=3, max_epochs=6)


def _data(n):
    """Two wells, interleaved; n rows each, with targets within 20% of the
    mechanistic model at its prior means."""
    ds = WellDataset.merge([make_dataset(n, well_id=1, seed=3),
                            make_dataset(n, well_id=2, seed=4, t0=1800.0)])
    y = predict(init_model("mm"), ds.X) * np.random.default_rng(n).uniform(0.8, 1.2, len(ds))
    return WellDataset(ds.t, ds.X, y, ds.source, ds.well)


def _model(kind, train):
    return init_model(kind, shape=SHAPE, mtl=MTL, seed=5, scaler=fit_scaler(train))


def _ocfg(method):
    gamma = 1e-3 if method is Method.SGD else 0.01
    # mini-batches of 6 rows and a remainder: both sides of kernels.COLUMN_ROWS
    return OptimizerConfig(method=method, gamma0=gamma, schedule="power", power_a=0.5,
                           steps=3, batch_size=6, seed=7)


@pytest.mark.parametrize("n", [1, 7, 8, 64])
@pytest.mark.parametrize("kind", TRAINABLE_KINDS, ids=lambda k: k.value)
def test_loss_kernel_equals_the_gradient_kernels_sse(kind, n):
    """On both sides of kernels.COLUMN_ROWS, with every third row's radicand
    clamped (p2 > p1) and parameters off their initial values."""
    ds = _data(32)
    rows = np.arange(n) % len(ds)
    X = ds.X[rows].copy()
    X[::3, 2] = X[::3, 1] * 1.1
    m = _model(kind, ds)
    theta = m.params.values * np.random.default_rng(n).uniform(0.9, 1.1, len(m.params))
    plan = build_plan(m)
    Xs = scale_inputs(plan, X)
    wells = task_columns(m, ds.well[rows])
    y = (ds.y[rows] - plan.y_loc) / plan.y_scale
    c0 = mm_clamp_count()
    sse, _ = plan_loss_grad(plan, theta, X, Xs, y, 0.3, wells)
    c1 = mm_clamp_count()
    assert plan_loss(plan, theta, X, Xs, y, 0.3, wells) == sse
    assert mm_clamp_count() - c1 == c1 - c0
    assert (c1 - c0 > 0) == kind.is_mechanistic


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
@pytest.mark.parametrize("mode", list(PriorMode), ids=lambda m: m.value)
@pytest.mark.parametrize("n", [1, 7, 25], ids=lambda n: f"rows{2 * n}")
@pytest.mark.parametrize("kind", TRAINABLE_KINDS, ids=lambda k: k.value)
def test_fit_map_equals_the_frozen_loop(kind, n, mode, method):
    """2 x 1 rows leave an empty validation split (fixed epochs); 2 x 7 rows
    validate on 3 rows, below COLUMN_ROWS; 2 x 25 rows on 12."""
    train = _data(n)
    m0 = _model(kind, train)
    loss = LossSpec.from_data(train, rel=0.5, prior_mode=mode)
    ocfg = _ocfg(method)
    sink, want_sink = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = fit_map(m0, train, loss, ocfg, ESCFG, curve_sink=sink)
        want = loop.fit_map(m0, train, loss, ocfg, ESCFG, curve_sink=want_sink)
    assert np.array_equal(got.params.values, want)
    assert not np.array_equal(want, m0.params.values)   # the fit moved
    assert len(sink) == len(want_sink) > 0
    for (e, tr, va), (we, wtr, wva) in zip(sink, want_sink):
        assert e == we
        assert tr == wtr
        assert va == wva or (np.isnan(va) and np.isnan(wva))


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
@pytest.mark.parametrize("mode", list(PriorMode), ids=lambda m: m.value)
@pytest.mark.parametrize("kind", TRAINABLE_KINDS, ids=lambda k: k.value)
def test_run_ol_equals_the_frozen_loop(kind, mode, method):
    """The prior mode is the initial fit's; online updates always anchor the
    physical parameters.  Adam units update on MPFM rows only."""
    sources = ("MPFM",) if method is Method.ADAM else None
    ds = _data(20)
    split = chronological_split(ds, float(ds.t[24]))
    m0 = _model(kind, split.train)
    loss = LossSpec.from_data(split.train, rel=0.5, prior_mode=mode)
    m0 = fit_map(m0, split.train, loss, _ocfg(method), ESCFG)
    cfg = ScheduleConfig(mode="ol", ocfg=_ocfg(method), loss=loss, update_sources=sources)
    log = run_ol(m0, split, cfg)
    y_pred, versions, _, n_updates, skipped = loop.run_ol(m0, split, cfg)
    assert np.array_equal(log.y_pred, y_pred)
    assert np.array_equal(log.model_version, versions)
    assert log.metadata["n_updates"] == n_updates > 0
    assert log.metadata["skipped_updates"] == skipped
    assert len(set(y_pred.tolist())) > 1


HOUR = 3600.0


@pytest.mark.parametrize("case", ["boundary_rows", "window", "sources", "gap"])
@pytest.mark.parametrize("kind", (ModelKind.BENCHMARK,) + tuple(TRAINABLE_KINDS),
                         ids=lambda k: k.value)
def test_run_pbl_equals_the_per_row_loop(kind, case, monkeypatch):
    """Rows arrive every half hour and the period is three hours, so every
    boundary falls on a row; "gap" drops the test rows of ten hours, a gap
    over several boundaries.  One prediction call per period with arrivals;
    y_pred to 1e-12 relative, everything else exactly."""
    ds = _data(30)
    split = chronological_split(ds, float(ds.t[24]))
    if case == "gap":
        te = split.test
        keep = (te.t < split.split_time + 4 * HOUR) | (te.t >= split.split_time + 14 * HOUR)
        split = dataclasses.replace(split, test=te.take(np.flatnonzero(keep)))
    m0 = init_model("benchmark") if kind is ModelKind.BENCHMARK else _model(kind, split.train)
    loss = LossSpec.from_data(split.train, rel=0.5, prior_mode=PriorMode.FULL)
    cfg = ScheduleConfig(mode="pbl", ocfg=_ocfg(Method.ADAM), loss=loss, period_s=3 * HOUR,
                         window_s=8 * HOUR if case == "window" else None, escfg=ESCFG,
                         update_sources=("MPFM",) if case == "sources" else None)
    calls = []
    plan_predict = learning.plan_predict
    monkeypatch.setattr(learning, "plan_predict",
                        lambda *a: calls.append(len(a[2])) or plan_predict(*a))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        log = run_pbl(m0, split, cfg)
        want, want_meta = loop.run_pbl(m0, split, cfg)
    for col in ("t", "well", "y_true", "model_version", "source"):
        assert np.array_equal(getattr(log, col), want[col]), col
    assert log.metadata == want_meta
    periods = np.unique((split.test.t - split.split_time) // cfg.period_s)
    if kind is ModelKind.BENCHMARK:
        assert np.array_equal(log.y_pred, want["y_pred"], equal_nan=True)
        assert calls == []
    else:
        np.testing.assert_allclose(log.y_pred, want["y_pred"], rtol=1e-12, atol=0)
        assert len(calls) == len(periods) and sum(calls) == len(split.test)
        assert want_meta["n_retrains"] == len(periods) - 1
        assert len(set(want["model_version"].tolist())) == len(periods)
