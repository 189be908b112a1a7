"""The training step: the loss alone, and fit_map, run_ol and run_pbl
against the frozen training loops of ``loop_drivers``.

The training step (``optim.TrainingStep``) takes the prior arrays and the
target transform once per fit or online-learning unit, validates with the
loss alone (``models.plan_loss``) and runs the network forward once per gradient.  None of
that may change a single rounding: fitted values, learning curves and
online-learning logs must equal the frozen loops bit for bit, for every
trainable kind, every prior mode and both optimizers.  ``run_pbl`` fits a
unit's refits in lockstep (``optim.fit_maps``); each refit must equal
``fit_map`` on that refit alone, bit for bit, whichever fits it was stacked
with, when they leave the stack, which pending refits take their rows (and
so step at other step indices beside them) and whichever of them fail.
``run_schedules`` stacks the refits of several units, and each unit's log
must equal ``run_schedule`` on that unit alone.  A ``fit_maps`` call split
across forked workers gives the same fits, and leaves no worker behind.
The online updates of NN, MTL, HEM and HAM step in buffers each unit binds
once (``TrainingStep.bind``), so the hazards of reuse are checked too: a
returned version is a copy that later updates leave alone, an update that
fails after a finite step leaves the next ones exact, and two units
interleaved in one process each give what they give alone.  A lockstep
binds its stack and each row until the stack shrinks, so a bound stack
that shrinks and refills is held to the public kernels.  Every update,
on floats or on bound buffers, hands back its row's prediction from its
first step, so ``run_ol``'s calls of ``plan_predict`` are counted; and an
update whose Adam second moment overflows is skipped on floats, on bound
buffers and in the frozen loop alike, while a fit steps on through it.
"""

import contextlib
import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import loop_drivers as loop
from conftest import make_dataset
from vfmlab.core import WellDataset, chronological_split, fit_scaler
from vfmlab.errors import DataError, NumericError
from vfmlab import kernels, learning, models, optim
from vfmlab.learning import ScheduleConfig, run_ol, run_pbl
from vfmlab.models import (TRAINABLE_KINDS, ModelKind, MtlParams, NetworkShape,
                           build_plan, init_model, mm_clamp_count, plan_loss, plan_loss_grad,
                           plan_predict, predict, scale_inputs, task_columns)
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
                           batch_size=6, seed=7)


@pytest.mark.parametrize("n", [1, 7, 8, 64])
@pytest.mark.parametrize("kind", TRAINABLE_KINDS, ids=lambda k: k.value)
def test_loss_kernel_equals_the_gradient_kernels_sse(kind, n):
    """On both sides of kernels.COLUMN_ROWS, with every third row's radicand
    clamped (p2 > p1) and parameters off their initial values, for one fit
    and, from COLUMN_ROWS rows, a stack of three: plan_loss_grad, which runs
    the kind's bind and bound_grad, equals the loss alone (sse and clamps)
    and the public loss-gradient kernel through the frozen
    ``loop_drivers.plan_loss_grad`` (sse and gradient), bit for bit."""
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
    calls = [(plan, theta, X, Xs, y, 0.3, wells)]
    if n >= kernels.COLUMN_ROWS:
        calls.append((dataclasses.replace(plan, nn_scale=np.full((3, 1), plan.nn_scale)),
                      theta * np.random.default_rng(0).uniform(0.9, 1.1, (3, len(theta))),
                      *(np.stack([a] * 3) for a in (X, Xs, y)), np.array([[0.3], [0.5], [0.7]]),
                      np.stack([wells] * 3)))
    for call in calls:
        c0 = mm_clamp_count()
        sse, grad = plan_loss_grad(*call)
        c1 = mm_clamp_count()
        assert np.asarray(plan_loss(*call)).tobytes() == np.asarray(sse).tobytes()
        assert mm_clamp_count() - c1 == c1 - c0
        assert (c1 - c0 > 0) == kind.is_mechanistic
        # y is in the target space already, where the frozen driver would map it
        want_sse, want = loop.plan_loss_grad(
            dataclasses.replace(call[0], y_loc=0.0, y_scale=1.0), *call[1:])
        assert np.asarray(want_sse).tobytes() == np.asarray(sse).tobytes()
        assert want.tobytes() == grad.tobytes()


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
    cfg = ScheduleConfig(mode="ol", ocfg=_ocfg(method), loss=loss, steps=3,
                         update_sources=sources)
    log = run_ol(m0, split, cfg)
    y_pred, versions, _, n_updates, skipped = loop.run_ol(m0, split, cfg)
    assert np.array_equal(log.y_pred, y_pred)
    assert np.array_equal(log.model_version, versions)
    assert log.metadata["n_updates"] == n_updates > 0
    assert log.metadata["skipped_updates"] == skipped
    assert len(set(y_pred.tolist())) > 1


@pytest.mark.parametrize("case", ["every_row", "sources", "no_steps"])
@pytest.mark.parametrize("kind", TRAINABLE_KINDS, ids=lambda k: k.value)
def test_a_float_update_is_the_rows_prediction(kind, case, monkeypatch):
    """Every kind takes a row's prediction from the first step of its
    update, on floats (LR, MM) or on bound buffers (NN, MTL, HEM, HAM), so
    run_ol calls plan_predict only for the rows it does not update: rows
    whose source may not update ("sources": MPFM rows only), and every row
    at k = 0 ("no_steps").  Each log equals the frozen loop's, which
    predicts every row, bit for bit."""
    m0, split, cfg = _ol_unit(kind, 20)
    if case == "sources":
        cfg = dataclasses.replace(cfg, update_sources=("MPFM",))
    elif case == "no_steps":
        cfg = dataclasses.replace(cfg, steps=0)
    calls = []
    plan_predict = learning.plan_predict
    monkeypatch.setattr(learning, "plan_predict",
                        lambda *a: calls.append(len(a[2])) or plan_predict(*a))
    log = run_ol(m0, split, cfg)
    y_pred, versions, _, n_updates, skipped = loop.run_ol(m0, split, cfg)
    assert log.y_pred.tobytes() == y_pred.tobytes()
    assert np.array_equal(log.model_version, versions)
    assert log.metadata["n_updates"] == n_updates
    assert log.metadata["skipped_updates"] == skipped == []
    te = split.test
    not_updated = {"every_row": 0, "sources": int(np.sum(te.source != 0)),
                   "no_steps": len(te)}[case]
    assert 0 < int(np.sum(te.source != 0)) < len(te)   # "sources" leaves rows on both sides
    assert n_updates == len(te) - not_updated
    assert calls == [1] * not_updated


def _frozen_run_ol(m0, split, cfg, monkeypatch):
    """loop.run_ol, and the radicand clamps that its MM kernel calls return
    (the frozen loop drops them)."""
    clamps = [0]
    with monkeypatch.context() as mp:
        for name in ("mm_predict", "mm_loss_grad"):
            def counted(*args, real=getattr(kernels, name)):
                out = real(*args)
                clamps[0] += out[-1]
                return out
            mp.setattr(kernels, name, counted)
        got = loop.run_ol(m0, split, cfg)
    return got, clamps[0]


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
@pytest.mark.parametrize("kind, case", [(ModelKind.LR, "overflow"), (ModelKind.MM, "overflow"),
                                        (ModelKind.MM, "clamped")],
                         ids=lambda v: getattr(v, "value", v))
def test_a_float_update_equals_the_frozen_loop_at_its_edges(kind, case, method, monkeypatch):
    """The kinds whose online update runs on Python floats, at its edges.
    "overflow": the target of one test row is 1e308, so the gradient of its
    first step is not finite and that update is skipped.  The row's flow is
    critical at every p_cr within its bounds (p2/p1 = 0.2), so that every
    entry of MM's gradient is infinite and none NaN: an SGD step would clip
    it back into the bounds, and only the finite check skips it.  LR takes a noise level at which
    its standardized target's gradient overflows too, and SGD a rate at
    which the other rows' steps stay finite.  "clamped":
    every third test row has p2 > p1, so its radicand is clamped in the
    prediction and in each step.  Predictions, versions, skipped times and
    the change in mm_clamp_count() equal the frozen loop's."""
    ds = _data(20)
    split = chronological_split(ds, float(ds.t[24]))
    te = split.test
    X, y = te.X.copy(), te.y.copy()
    if case == "overflow":
        y[5] = 1e308
        X[5, 2] = X[5, 1] * 0.2
    else:
        X[::3, 2] = X[::3, 1] * 1.1
    split = dataclasses.replace(split, test=WellDataset(te.t, X, y, te.source, te.well))
    m0 = _model(kind, split.train)
    loss = LossSpec.from_data(split.train, rel=0.5, prior_mode=PriorMode.PHYSICAL_ONLY)
    m0 = fit_map(m0, split.train, loss, _ocfg(method), ESCFG)
    ocfg = _ocfg(method)
    if kind is ModelKind.LR:
        loss = LossSpec(np.sqrt(build_plan(m0).y_scale) / 2)
        if method is Method.SGD:
            ocfg = dataclasses.replace(ocfg, gamma0=1e-8)
    cfg = ScheduleConfig(mode="ol", ocfg=ocfg, loss=loss, steps=3)
    with np.errstate(all="ignore"):
        c0 = mm_clamp_count()
        log = run_ol(m0, split, cfg)
        clamps = mm_clamp_count() - c0
        (y_pred, versions, _, n_updates, skipped), want_clamps = _frozen_run_ol(m0, split, cfg,
                                                                                monkeypatch)
    assert np.array_equal(log.y_pred, y_pred)
    assert np.array_equal(log.model_version, versions)
    assert log.metadata["n_updates"] == n_updates > 0
    assert log.metadata["skipped_updates"] == skipped
    assert clamps == want_clamps
    if case == "overflow":
        assert te.t[5] in skipped and clamps == 0
    else:
        assert skipped == [] and clamps > len(te) // 3
    assert len(set(y_pred.tolist())) > 1


# the kinds whose online updates step in buffers the unit owns, not on floats
ARRAY_KINDS = [k for k in TRAINABLE_KINDS if models.KIND_TABLE[k].row_grad is None]


def _ol_unit(kind, n, method=Method.ADAM):
    """An initial fit of `kind` on n rows per well and the OL schedule of
    three steps per observation that follows it: (m0, split, cfg)."""
    ds = _data(n)
    split = chronological_split(ds, float(ds.t[n + 4]))
    loss = LossSpec.from_data(split.train, rel=0.5)
    m0 = fit_map(_model(kind, split.train), split.train, loss, _ocfg(method), ESCFG)
    return m0, split, ScheduleConfig(mode="ol", ocfg=_ocfg(method), loss=loss, steps=3)


def _updates(m0, split, cfg):
    """run_ol's loop, one observation per next(): yields the prediction and
    the update's values (None when skipped), in a unit of its own."""
    step = optim.TrainingStep(m0, cfg.loss.noise_std, PriorMode.PHYSICAL_ONLY)
    X, Xs, y, wells = step.rows(m0, split.test)
    unit = step.bind(cfg.ocfg, cfg.steps)
    theta = m0.params.values
    for i in range(len(y)):
        r = slice(i, i + 1)
        values, pred = step.online_update(unit, theta, X[r], Xs[r], y[r], wells[r], cfg.ocfg,
                                          cfg.steps)
        if pred is None:
            pred = plan_predict(step.plan, theta, X[r], Xs[r], wells[r])[0]
        yield pred, values
        if values is not None:
            theta = values


@pytest.mark.parametrize("kind", ARRAY_KINDS, ids=lambda k: k.value)
def test_an_update_returns_values_apart_from_the_units_buffers(kind):
    """Each update's values are a copy: an earlier version keeps its bits
    after later updates step the unit's buffers, and no version shares
    memory with them."""
    m0, split, cfg = _ol_unit(kind, 20)
    updates = _updates(m0, split, cfg)
    first = next(updates)[1]
    kept = first.copy()
    later = [values for _, values in updates]
    assert first.tobytes() == kept.tobytes()
    assert len({v.tobytes() for v in [first, *later]}) == len(later) + 1   # each update moved
    assert not any(np.shares_memory(first, v) for v in later)


@pytest.mark.parametrize("kind", ARRAY_KINDS, ids=lambda k: k.value)
def test_an_update_that_fails_partway_leaves_the_next_ones_exact(kind, monkeypatch):
    """One test row's target is 1e150: the first SGD step of its update is
    finite but throws the network's weights so far that the second step's
    gradient is not, so the update is skipped with the unit's buffers left
    mid-update.  The updates after it start again from the last good
    values: predictions, versions and skipped times equal the frozen
    loop's, bit for bit."""
    m0, split, cfg = _ol_unit(kind, 20, Method.SGD)
    te = split.test
    y = te.y.copy()
    y[5] = 1e150
    split = dataclasses.replace(split, test=WellDataset(te.t, te.X, y, te.source, te.well))
    finite = []
    entry = models.KIND_TABLE[kind]

    def recorded(*args):
        out = entry.bound_grad(*args)
        finite.append(bool(np.isfinite(args[-1]).all()))
        return out
    monkeypatch.setitem(models.KIND_TABLE, kind, dataclasses.replace(entry, bound_grad=recorded))
    with np.errstate(all="ignore"):
        log = run_ol(m0, split, cfg)
        y_pred, versions, _, n_updates, skipped = loop.run_ol(m0, split, cfg)
    assert skipped == [te.t[5]] == log.metadata["skipped_updates"]
    assert finite[5 * cfg.steps:5 * cfg.steps + 2] == [True, False]   # failed at step 2
    assert log.y_pred.tobytes() == y_pred.tobytes()
    assert np.array_equal(log.model_version, versions)
    assert log.metadata["n_updates"] == n_updates == len(te) - 1


@pytest.mark.parametrize("kind", [ModelKind.LR, ModelKind.MM, ModelKind.NN, ModelKind.HEM],
                         ids=lambda k: k.value)
def test_an_overflowing_second_moment_skips_the_update(kind):
    """The first test row's target is 1e200: its first gradient is finite,
    but an entry above about 1.3e154 makes (1 - beta2) * g * g, and so
    Adam's v, overflow to inf.  That entry's step is then exactly 0, and the
    values stay finite; yet a non-finite v skips the update, as a non-finite
    gradient does, on floats (LR, MM) and on bound buffers (NN, HEM) alike,
    and in the frozen loop.  The next rows update from m0."""
    m0, split, cfg = _ol_unit(kind, 20)
    te = split.test
    y = te.y.copy()
    y[0] = 1e200
    split = dataclasses.replace(split, test=WellDataset(te.t, te.X, y, te.source, te.well))
    step = optim.TrainingStep(m0, cfg.loss.noise_std, PriorMode.PHYSICAL_ONLY)
    X, Xs, t, wells = step.rows(m0, split.test)
    with np.errstate(all="ignore"):   # the sse overflows
        _, grad = plan_loss_grad(step.plan, m0.params.values, X[:1], Xs[:1], t[:1],
                                 step.inv_var, wells[:1])
        step.prior.add_grad(m0.params.values, grad)
        assert np.isfinite(grad).all() and np.abs(grad).max() > 1.4e154
        log = run_ol(m0, split, cfg)
        y_pred, versions, _, n_updates, skipped = loop.run_ol(m0, split, cfg)
    assert log.metadata["skipped_updates"] == skipped == [te.t[0]]
    assert log.y_pred.tobytes() == y_pred.tobytes()
    assert np.array_equal(log.model_version, versions)
    assert log.metadata["n_updates"] == n_updates == len(te) - 1


@pytest.mark.parametrize("mode", list(PriorMode), ids=lambda m: m.value)
def test_a_fit_steps_on_through_an_overflowing_second_moment(mode):
    """Adam's overflow rule for fits: a finite gradient entry above about
    1.3e154 makes that entry's bias-corrected v overflow to inf, and a fit
    takes the step all the same, that entry's step being exactly 0 (an
    online update is skipped instead).  At a noise level of 1e-73, an MM
    fit's data gradient exceeds that in kappa, M_gas, p_cr and C_D and
    stays below it in the two densities: the fit ends with the densities
    moved and the other four exactly at their start, and equals the frozen
    loop's fit bit for bit."""
    ds = _data(20)
    m0 = _model(ModelKind.MM, ds)
    loss = LossSpec(1e-73, mode)
    step = optim.TrainingStep(m0, loss.noise_std, mode)
    X, Xs, y, wells = step.rows(m0, ds)
    _, grad = plan_loss_grad(step.plan, m0.params.values, X, Xs, y, step.inv_var, wells)
    assert np.isfinite(grad).all()
    assert (np.abs(grad) > 1.4e154).tolist() == [False, False, True, True, True, True]
    with np.errstate(all="ignore"):   # v overflows
        got = fit_map(m0, ds, loss, _ocfg(Method.ADAM), ESCFG)
        want = loop.fit_map(m0, ds, loss, _ocfg(Method.ADAM), ESCFG)
    assert got.params.values.tobytes() == want.tobytes()
    assert (got.params.values != m0.params.values).tolist() == [True, True] + [False] * 4


@pytest.mark.parametrize("kind", TRAINABLE_KINDS, ids=lambda k: k.value)
def test_a_stack_binding_follows_its_shrinks_and_refills(kind):
    """A lockstep's stack of three fits, bound as a whole
    (``OptimizerState.bound``) and per row (``bound_row``), shrinks to two
    (``keep``), then hands a row to a fourth fit.  Before and
    after each, a training step of the whole stack on its binding (at
    COLUMN_ROWS rows per fit), and one gradient per row on the row's
    binding (at 5 rows, the MM/HEM/HAM loops), leave in each row of the
    stack's gradient the public loss-gradient kernel's gradient for the fit
    in that row at its values before the step, bit for bit; the reference
    is the frozen ``loop_drivers.plan_loss_grad`` on the raw targets, which
    binds nothing of the stack's.  No prior is taken, so the stack's
    gradient is the data gradient alone."""
    ds = _data(30)
    m0 = _model(kind, ds)
    step = optim.TrainingStep(m0, 1.0, PriorMode.NONE)
    X, Xs, y, wells = step.rows(m0, ds)
    rng = np.random.default_rng(3)
    fits = [m0.params.values * rng.uniform(0.9, 1.1, len(m0.params)) for _ in range(4)]
    n = kernels.COLUMN_ROWS
    batches = [np.arange(n) + 9 * j for j in range(4)]   # each fit its own rows
    state = step.start(np.stack(fits[:3]))
    ocfg = OptimizerConfig(gamma0=0.01)

    def public(theta, rows):   # at a noise std of 1, the raw inverse variance is 1
        _, want = loop.plan_loss_grad(step.plan, theta, X[rows], Xs[rows], ds.y[rows], 1.0,
                                      wells[rows])
        return want.tobytes()

    def check(in_row, k):
        r = len(in_row)
        at = np.stack([batches[j] for j in in_row])
        plan = dataclasses.replace(step.plan, nn_scale=np.full((r, 1), step.plan.nn_scale))
        before = state.values.copy()
        models.plan_bound_grad(plan, state.bound(plan), state.values, X[at], Xs[at], y[at],
                               np.full((r, 1), step.inv_var), wells[at], state.grad)
        assert optim._train_step(state, step.prior, ocfg, [k] * r)
        assert not np.array_equal(state.values, before)
        for i, j in enumerate(in_row):
            assert state.grad[i].tobytes() == public(before[i], batches[j])
        for i, j in enumerate(in_row):
            rows = batches[j][:5]
            theta, g, net = state.bound_row(i, step.plan)
            models.plan_bound_grad(step.plan, net, theta, X[rows], Xs[rows], y[rows],
                                   step.inv_var, wells[rows], g)
            assert state.grad[i].tobytes() == public(state.values[i], rows)

    check([0, 1, 2], 1)
    check([0, 1, 2], 2)
    state.keep([True, False, True])
    check([0, 2], 3)
    state.values[1] = fits[3]                # a pending fit takes row 1, as in the lockstep
    state.m[1] = state.v[1] = 0.0
    check([0, 3], 4)
    assert state.values[1].tobytes() != fits[3].tobytes()   # the refilled row stepped


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_steps_write_into_the_arrays_their_state_owns(method):
    """A stacked optimizer_step writes the new values into the state's
    values array, and its moments in place, so the arrays are the same
    objects after each step; an online-learning unit of a network kind
    steps in the buffers it bound once, and hands back a copy."""
    m0, split, cfg = _ol_unit(ModelKind.NN, 20, method)
    step = optim.TrainingStep(m0, cfg.loss.noise_std, PriorMode.PHYSICAL_ONLY)
    state = step.start(np.stack([m0.params.values] * 3))
    values, m, v = state.values, state.m, state.v
    before = values.copy()
    rng = np.random.default_rng(2)
    for k in range(1, 4):
        optim.optimizer_step(state, rng.standard_normal(values.shape), cfg.ocfg, [k, 2 * k, 1])
    assert state.values is values and state.m is m and state.v is v
    assert not np.array_equal(values, before)

    unit = step.bind(cfg.ocfg, cfg.steps)
    owned = [unit.values, unit.m, unit.v, unit.grad, *unit.scratch]
    X, Xs, y, wells = step.rows(m0, split.test)
    theta = m0.params.values
    for i in range(3):
        r = slice(i, i + 1)
        got, _ = step.online_update(unit, theta, X[r], Xs[r], y[r], wells[r], cfg.ocfg,
                                    cfg.steps)
        assert got is not None and not np.shares_memory(got, unit.values)
        theta = got
    assert all(a is b for a, b in zip([unit.values, unit.m, unit.v, unit.grad, *unit.scratch],
                                      owned))


@pytest.mark.parametrize("kind", ARRAY_KINDS, ids=lambda k: k.value)
def test_units_interleaved_in_one_process_equal_each_alone(kind):
    """Two units of one kind, on different rows and from different initial
    fits, take their updates in turn; each gives the predictions and values
    that it gives alone, bit for bit."""
    units = [_ol_unit(kind, 20), _ol_unit(kind, 22)]

    def as_bytes(run):
        return [(float(p), None if v is None else v.tobytes()) for p, v in run]
    alone = [as_bytes(_updates(*u)) for u in units]
    a, b = _updates(*units[0]), _updates(*units[1])
    turns = [(next(a), next(b)) for _ in range(min(len(r) for r in alone))]
    assert as_bytes(t[0] for t in turns) == alone[0][:len(turns)]
    assert as_bytes(t[1] for t in turns) == alone[1][:len(turns)]
    assert alone[0][:len(turns)] != alone[1][:len(turns)]


HOUR = 3600.0


def _stacked_calls(monkeypatch) -> list:
    """Record, per stacked gradient call of any kind, whether each fit's
    gradient came out finite: every gradient runs ``KindEntry.bound_grad``
    (which the plans built after this call take from ``KIND_TABLE``), whose
    gradient is written into g."""
    calls = []
    for kind, entry in list(models.KIND_TABLE.items()):
        if entry.bound_grad is None:
            continue

        def bound_traced(net, p, theta, X, Xs, y, inv_var, wells, g, real=entry.bound_grad):
            out = real(net, p, theta, X, Xs, y, inv_var, wells, g)
            if theta.ndim == 2:
                calls.append(np.isfinite(g).all(axis=1).tolist())
            return out
        monkeypatch.setitem(models.KIND_TABLE, kind,
                            dataclasses.replace(entry, bound_grad=bound_traced))
    return calls


def _step_indices(monkeypatch) -> list:
    """Record the step index k of each optimizer step of fit_maps: a list of
    one k per live row."""
    ks = []
    step = optim._step
    monkeypatch.setattr(optim, "_step",
                        lambda state, grad, ocfg, k: ks.append(k) or step(state, grad, ocfg, k))
    return ks


def _failed_steps(monkeypatch, record) -> None:
    """Call record(k) for each training step of fit_maps whose gradient is
    not finite (``optim._train_step``), k its list of step indices."""
    train_step = optim._train_step

    def recording(state, prior, ocfg, k):
        finite = train_step(state, prior, ocfg, k)
        if not finite:
            record(k)
        return finite

    monkeypatch.setattr(optim, "_train_step", recording)


def _lockstep_refits(monkeypatch) -> list:
    """Record each (scaler, history, result) that run_pbl's lockstep makes."""
    refits = []
    fit_maps = learning.fit_maps

    def recording(fits, *args):
        results = fit_maps(fits, *args)
        refits.extend((start.scaler, history, r) for (start, history, _), r in zip(fits, results))
        return results

    monkeypatch.setattr(learning, "fit_maps", recording)
    return refits


def _assert_refits_equal_fit_map(m0, refits, cfg) -> set:
    """Every lockstep result equals fit_map on that refit alone, bit for bit
    (or fails alike); returns the set of epoch counts the fits ran."""
    epochs = set()
    for scaler, history, got in refits:
        sink = []
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            try:
                want = fit_map(dataclasses.replace(m0, scaler=scaler), history, cfg.loss,
                               cfg.ocfg, cfg.escfg, curve_sink=sink)
            except (DataError, NumericError) as e:
                want = e
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert got.params.values.tobytes() == want.params.values.tobytes()
            epochs.add(len(sink))
    return epochs


def _assert_pbl_equals_the_loop(m0, split, cfg, monkeypatch):
    """run_pbl against loop.run_pbl: y_pred to 1e-12 relative, everything
    else exactly; returns (log, the per-row loop's metadata)."""
    calls = []
    plan_predict = learning.plan_predict
    monkeypatch.setattr(learning, "plan_predict",
                        lambda *a: calls.append(len(a[2])) or plan_predict(*a))
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        log = run_pbl(m0, split, cfg)
        want, want_meta = loop.run_pbl(m0, split, cfg)
    for col in ("t", "well", "y_true", "model_version", "source"):
        assert np.array_equal(getattr(log, col), want[col]), col
    assert log.metadata == want_meta
    periods = np.unique((split.test.t - split.split_time) // cfg.period_s)
    if m0.kind is ModelKind.BENCHMARK:
        assert np.array_equal(log.y_pred, want["y_pred"], equal_nan=True)
        assert calls == []
    else:
        np.testing.assert_allclose(log.y_pred, want["y_pred"], rtol=1e-12, atol=0)
        assert len(calls) == len(periods) and sum(calls) == len(split.test)
        assert len(set(want["model_version"].tolist())) == want_meta["n_retrains"] + 1
    return log, want_meta


@pytest.mark.parametrize("case", ["boundary_rows", "window", "sources", "gap", "early_stop",
                                  "refill_adam", "refill_sgd"])
@pytest.mark.parametrize("kind", (ModelKind.BENCHMARK,) + tuple(TRAINABLE_KINDS),
                         ids=lambda k: k.value)
def test_run_pbl_equals_the_per_row_loop(kind, case, monkeypatch):
    """Rows arrive every half hour and the period is three hours, so every
    boundary falls on a row; "gap" drops the test rows of ten hours, a gap
    over several boundaries.  One prediction call per period with arrivals.

    "early_stop" refits on histories of 25 to 55 rows with patience 1 and
    mini-batches of COLUMN_ROWS rows: the refits stop at different epochs,
    so they leave the lockstep one by one, and their full batches go through
    stacked kernel calls.  "refill_adam" and "refill_sgd" are "early_stop"
    with Adam and with SGD at a stack of two fits: a pending refit takes the
    row of one that stopped and steps at its own k beside a fit at another
    k, so the power schedule's gamma_k (and Adam's bias corrections) differ
    per row.  SGD keeps its gamma0 of 1e-3, at which most refits run all 20
    epochs (MTL's diverge from 1e-2 on); they still leave the stack at
    different ticks, since their histories differ in length.  The refill
    cases run on one worker, so that the recorded steps are all of them."""
    ds = _data(30)
    split = chronological_split(ds, float(ds.t[24]))
    if case == "gap":
        te = split.test
        keep = (te.t < split.split_time + 4 * HOUR) | (te.t >= split.split_time + 14 * HOUR)
        split = dataclasses.replace(split, test=te.take(np.flatnonzero(keep)))
    m0 = init_model("benchmark") if kind is ModelKind.BENCHMARK else _model(kind, split.train)
    loss = LossSpec.from_data(split.train, rel=0.5, prior_mode=PriorMode.FULL)
    ocfg, escfg = _ocfg(Method.ADAM), ESCFG
    early_stop = case in ("early_stop", "refill_adam", "refill_sgd")
    if early_stop:
        ocfg = dataclasses.replace(ocfg, gamma0=0.2, batch_size=kernels.COLUMN_ROWS)
        escfg = EarlyStoppingConfig(val_fraction=0.25, patience=1, max_epochs=20)
    if case == "refill_sgd":
        ocfg = dataclasses.replace(_ocfg(Method.SGD), batch_size=kernels.COLUMN_ROWS)
    if case.startswith("refill"):
        monkeypatch.setattr(optim, "LOCKSTEP_FITS", 2)
        monkeypatch.setattr(optim, "_cpus", lambda: 1)
    cfg = ScheduleConfig(mode="pbl", ocfg=ocfg, loss=loss, period_s=3 * HOUR,
                         window_s=8 * HOUR if case == "window" else None, escfg=escfg,
                         update_sources=("MPFM",) if case == "sources" else None)
    stacked = _stacked_calls(monkeypatch)
    ks = _step_indices(monkeypatch)
    refits = _lockstep_refits(monkeypatch)
    log, want_meta = _assert_pbl_equals_the_loop(m0, split, cfg, monkeypatch)
    periods = np.unique((split.test.t - split.split_time) // cfg.period_s)
    if kind is not ModelKind.BENCHMARK:
        assert want_meta["n_retrains"] == len(periods) - 1
        epochs = _assert_refits_equal_fit_map(m0, refits, cfg)
    if early_stop and kind is not ModelKind.BENCHMARK:
        if case != "refill_sgd":
            assert len(epochs) > 1 and min(epochs) < escfg.max_epochs, epochs
        assert any(len(c) > 1 for c in stacked)
        # a step whose rows were at different k: only where a refit took a row
        assert any(len(set(k)) > 1 for k in ks) == (case != "early_stop")


def test_a_failed_refit_leaves_its_lockstep_siblings_running(monkeypatch):
    """MM refits on well-test rows only.  The first of eight refits has a
    single such row (DataError before any step).  The last two hold, in their
    training head, a row whose upstream pressure overflows the choke
    equation, so the step that draws it meets a non-finite gradient
    (NumericError) while the refits stacked with them go on.  Failed periods,
    retrain count, versions and every prediction equal the per-row loop's.
    It runs twice: in the default stack, and in a stack of two fits, where
    the two longest refits, the failing ones, go live first and pending
    refits take the rows that their failure frees.  One worker runs every
    fit, so that the recorded steps are all of them."""
    monkeypatch.setattr(optim, "_cpus", lambda: 1)
    ds = _data(40)
    t_split = float(ds.t[30])
    source = np.where(ds.t < t_split, 0, 1).astype(np.uint8)
    source[10] = 1                              # one well-test row before the split
    X = ds.X.copy()
    poisoned = int(np.searchsorted(ds.t, t_split + 15.5 * HOUR))
    X[poisoned, 1] = 1e308                      # p1 finite, the radicand overflows
    ds = WellDataset(ds.t, X, ds.y, source, ds.well)
    split = chronological_split(ds, t_split)
    te = split.test                             # no arrivals in the first period
    split = dataclasses.replace(split, test=te.take(np.flatnonzero(
        te.t >= t_split + 3 * HOUR)))
    m0 = _model(ModelKind.MM, split.train)
    loss = LossSpec.from_data(split.train, rel=0.5, prior_mode=PriorMode.FULL)
    cfg = ScheduleConfig(mode="pbl", loss=loss, period_s=3 * HOUR,
                         ocfg=dataclasses.replace(_ocfg(Method.ADAM),
                                                  batch_size=kernels.COLUMN_ROWS),
                         escfg=EarlyStoppingConfig(val_fraction=0.25, patience=3, max_epochs=6),
                         update_sources=("WellTest",))
    for refill in (False, True):
        with monkeypatch.context() as mp:
            if refill:
                mp.setattr(optim, "LOCKSTEP_FITS", 2)
            stacked = _stacked_calls(mp)
            ks = _step_indices(mp)
            refits = _lockstep_refits(mp)
            log, meta = _assert_pbl_equals_the_loop(m0, split, cfg, mp)
            _assert_refits_equal_fit_map(m0, refits, cfg)
        assert [type(r[2]).__name__ for r in refits].count("NumericError") == 2
        assert meta["failed_periods"][0] == split.split_time + 3 * HOUR   # the one-row history
        assert len(meta["failed_periods"]) == 3 and meta["n_retrains"] == 5
        if refill:
            # both failing refits fail at their first step, with no sibling to
            # step on; two pending refits take the freed rows and step at k = 1,
            # and later refits step beside fits at other k
            assert stacked[0] == [False, False] and ks[:2] == [[1, 1]] * 2, (stacked[0], ks[:2])
            assert any(len(set(k)) > 1 for k in ks)
        else:
            # a stacked call in which one fit's gradient was not finite and another's was
            assert any(not all(c) and any(c) for c in stacked), stacked


def test_a_fit_that_fails_beside_a_fit_at_another_step(monkeypatch):
    """A stack of two MM fits on 60, 50, 40 and 20 rows: the longest go live
    first, and the 20-row fit, whose training head holds a row that
    overflows the choke equation, takes a freed row beside a fit at another
    step index.  Its step meets a non-finite gradient while its sibling's
    step goes on at its own k; every result equals fit_map alone.  One
    worker runs every fit, so that the recorded steps are all of them."""
    monkeypatch.setattr(optim, "LOCKSTEP_FITS", 2)
    monkeypatch.setattr(optim, "_cpus", lambda: 1)
    ds = _data(30)
    X = ds.X.copy()
    X[3, 1] = 1e308
    poisoned = WellDataset(ds.t, X, ds.y, ds.source, ds.well)
    m0 = _model(ModelKind.MM, ds)
    loss = LossSpec.from_data(ds, rel=0.5, prior_mode=PriorMode.FULL)
    ocfg = dataclasses.replace(_ocfg(Method.ADAM), batch_size=kernels.COLUMN_ROWS)
    fits = [(m0, ds.take(slice(0, n)), loss) for n in (60, 50, 40)]
    fits.append((m0, poisoned.take(slice(0, 20)), loss))
    raised = []
    _failed_steps(monkeypatch, raised.append)
    with np.errstate(all="ignore"):
        got = optim.fit_maps(fits, ocfg, ESCFG)
        for (start, train, loss), g in zip(fits, got):
            try:
                want = fit_map(start, train, loss, ocfg, ESCFG)
            except NumericError as e:
                want = e
            if isinstance(want, Exception):
                assert type(g) is type(want) and str(g) == str(want)
            else:
                assert g.params.values.tobytes() == want.params.values.tobytes()
    assert isinstance(got[3], NumericError) and len(raised) == 2   # the stack and fit_map
    assert isinstance(raised[0], list) and len(set(raised[0])) == 2, raised


@pytest.mark.parametrize("kind", TRAINABLE_KINDS, ids=lambda k: k.value)
def test_fits_of_every_length_share_a_row_store(kind):
    """One fit_maps call over long fits, a 2-row fit whose validation split
    is degenerate and a fit shorter than one mini-batch, in an order that
    puts each at its own offset in the row store: every fit's result and
    learning curve (training and validation losses per epoch) equal
    fit_map on that fit alone, bit for bit."""
    ds = _data(30)
    m0 = _model(kind, ds)
    ocfg = dataclasses.replace(_ocfg(Method.ADAM), batch_size=kernels.COLUMN_ROWS)
    trains = [ds.take(rows) for rows in (slice(0, 60), slice(20, 22), slice(30, 35),
                                         slice(5, 50), slice(12, 52))]
    fits = [(m0, train, LossSpec.from_data(train, rel=0.2)) for train in trains]
    sinks = [[] for _ in fits]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # the 2-row fit's degenerate split
        got = optim.fit_maps(fits, ocfg, ESCFG, sinks)
        for (start, train, loss), g, sink in zip(fits, got, sinks):
            alone = []
            want = fit_map(start, train, loss, ocfg, ESCFG, curve_sink=alone)
            assert g.params.values.tobytes() == want.params.values.tobytes()
            assert np.array(sink).tobytes() == np.array(alone).tobytes()
    assert np.isnan(sinks[1][0][2]) and len(sinks[1]) == ESCFG.max_epochs


# ----------------------------------------------------- the split across workers


def _two_workers(monkeypatch):
    """Two CPUs and a stack of two: fit_maps splits network fits from two
    up, and LR/MM fits from three up, between this process and one forked
    child."""
    monkeypatch.setattr(optim, "LOCKSTEP_FITS", 2)
    monkeypatch.setattr(optim, "_cpus", lambda: 2)


def _split_fits(kind) -> list:
    """Six fits of kind, on rows of which every fifth has its radicand
    clamped (p2 > p1): long fits, a fit shorter than one mini-batch, a 2-row
    fit (degenerate validation split) and, at index 1, a 50-row fit whose
    training head holds a row that overflows every kind's gradient.  Longest
    first (6, 5, 5, 4, 1 and 1 mini-batches of COLUMN_ROWS rows) and dealt
    by longest processing time into two shares, fits 1, 3 and 4 (the
    failing and the 2-row fit among them) fall in the child's share, fits 0,
    5 and 2 in this process's."""
    ds = _data(30)
    X = ds.X.copy()
    X[::5, 2] = X[::5, 1] * 1.1
    clamped = WellDataset(ds.t, X, ds.y, ds.source, ds.well)
    X = X.copy()
    X[3, 1] = 1e308
    poisoned = WellDataset(ds.t, X, ds.y, ds.source, ds.well)
    m0 = _model(kind, ds)
    trains = [clamped.take(slice(0, 60)), poisoned.take(slice(0, 50)),
              clamped.take(slice(30, 35)), clamped.take(slice(5, 50)),
              clamped.take(slice(20, 22)), clamped.take(slice(12, 52))]
    return [(m0, train, LossSpec.from_data(train, rel=0.2)) for train in trains]


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail with TimeoutError, rather than hang, when the block does not end
    within seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _mm_fits() -> list:
    ds = _data(30)
    m0 = _model(ModelKind.MM, ds)
    loss = LossSpec.from_data(ds, rel=0.5)
    return [(m0, ds.take(slice(0, n)), loss) for n in (60, 50, 40)]


SPLIT_OCFG = dataclasses.replace(_ocfg(Method.ADAM), batch_size=kernels.COLUMN_ROWS)


@pytest.mark.parametrize("kind", TRAINABLE_KINDS, ids=lambda k: k.value)
def test_a_split_call_equals_fit_map_on_each_fit(kind, monkeypatch, tmp_path):
    """fit_maps split across two workers: every fit's values, version,
    scaler and learning curve equal fit_map on that fit alone, bit for bit;
    the fit whose gradient turns non-finite in the child keeps its error's
    type and message, at its index; the radicand clamp count moves as in a
    one-worker run, and no child is left behind."""
    fits = _split_fits(kind)
    _two_workers(monkeypatch)
    raised_in = tmp_path / "pids"

    def recording(k):
        with open(raised_in, "a") as fh:
            fh.write(f"{os.getpid()}\n")

    sinks = [[] for _ in fits]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        with monkeypatch.context() as mp:
            _failed_steps(mp, recording)
            c0 = mm_clamp_count()
            got = optim.fit_maps(fits, SPLIT_OCFG, ESCFG, sinks)
            split_clamps = mm_clamp_count() - c0
        assert multiprocessing.active_children() == []
        assert raised_in.read_text().split() != [] and str(os.getpid()) not in \
            raised_in.read_text().split()      # the failing fit ran in the child
        monkeypatch.setattr(optim, "_cpus", lambda: 1)
        c0 = mm_clamp_count()
        optim.fit_maps(fits, SPLIT_OCFG, ESCFG, [[] for _ in fits])
        assert mm_clamp_count() - c0 == split_clamps
        assert (split_clamps > 0) == (kind in (ModelKind.MM, ModelKind.HEM, ModelKind.HAM))
        for (start, train, loss), g, sink in zip(fits, got, sinks):
            alone = []
            try:
                want = fit_map(start, train, loss, SPLIT_OCFG, ESCFG, curve_sink=alone)
            except NumericError as e:
                want = e
            if isinstance(want, Exception):
                assert type(g) is type(want) and str(g) == str(want)
            else:
                assert g.params.values.tobytes() == want.params.values.tobytes()
                assert g.version == want.version and g.scaler is start.scaler
            assert np.array(sink).tobytes() == np.array(alone).tobytes()
    assert isinstance(got[1], NumericError) and len(sinks[4]) == ESCFG.max_epochs


class _Dealt(Exception):
    pass


def _record_shares(monkeypatch) -> list:
    """Make _fork record the shares of a call that forks as lists of fit
    indices, and stop the call there with _Dealt; a call of one share runs
    as it would."""
    shares = []
    fork = optim._fork

    def recording(work, dealt):
        if len(dealt) == 1:
            return fork(work, dealt)
        shares.extend([f.j for f in share] for share in dealt)
        raise _Dealt

    monkeypatch.setattr(optim, "_fork", recording)
    return shares


def test_network_fits_are_dealt_by_longest_processing_time(monkeypatch):
    """Three NN fits of 24, 47 and 35 mini-batches per epoch on two CPUs:
    two workers, the 47-batch fit alone in one share and the other two in
    the other.  Round robin, longest first, would pair 47 with 24."""
    monkeypatch.setattr(optim, "_cpus", lambda: 2)
    ds = _data(32)
    m0 = _model(ModelKind.NN, ds)
    loss = LossSpec.from_data(ds, rel=0.5)
    # 1-row batches; a quarter of the rows, rounded down, validates
    fits = [(m0, ds.take(slice(0, n)), loss) for n in (32, 62, 46)]
    shares = _record_shares(monkeypatch)
    with pytest.raises(_Dealt):
        optim.fit_maps(fits, dataclasses.replace(SPLIT_OCFG, batch_size=1), ESCFG)
    assert shares == [[1], [2, 0]]


@pytest.mark.parametrize("n_fits", [5, 15])
@pytest.mark.parametrize("kind", [ModelKind.LR, ModelKind.MM], ids=lambda k: k.value)
def test_a_call_of_few_small_fits_runs_in_one_process(kind, n_fits, monkeypatch):
    """LR and MM fits have fewer than SPLIT_PARAMS parameters: a call of up
    to LOCKSTEP_FITS of them never forks on two CPUs, and a call of
    one more does."""
    monkeypatch.setattr(optim, "_cpus", lambda: 2)
    ds = _data(30)
    m0 = _model(kind, ds)
    assert len(m0.params) < optim.SPLIT_PARAMS
    loss = LossSpec.from_data(ds, rel=0.5)
    fits = [(m0, ds.take(slice(0, 20 + 2 * i)), loss) for i in range(n_fits)]
    shares = _record_shares(monkeypatch)
    got = optim.fit_maps(fits, SPLIT_OCFG, ESCFG)
    assert shares == [] and all(g.version == m0.version + 1 for g in got)
    more = fits + [fits[0]] * (optim.LOCKSTEP_FITS + 1 - n_fits)
    with pytest.raises(_Dealt):
        optim.fit_maps(more, SPLIT_OCFG, ESCFG)


@pytest.mark.parametrize("n_fits", [2, 3])
@pytest.mark.parametrize("kind", [ModelKind.NN, ModelKind.MTL], ids=lambda k: k.value)
def test_a_few_network_fits_split_and_equal_fit_map(kind, n_fits, monkeypatch, tmp_path):
    """Two or three network fits on two CPUs, at the default stack: one
    share runs in a forked child, and every fit's values, version, scaler
    and learning curve equal fit_map on that fit alone, bit for bit."""
    monkeypatch.setattr(optim, "_cpus", lambda: 2)
    ds = _data(30)
    m0 = _model(kind, ds)
    fits = [(m0, ds.take(rows), LossSpec.from_data(ds.take(rows), rel=0.2))
            for rows in (slice(0, 60), slice(10, 45), slice(30, 52))[:n_fits]]
    ran_in = tmp_path / "pids"
    lockstep = optim._lockstep

    def recording(share, *args):
        with open(ran_in, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        lockstep(share, *args)

    monkeypatch.setattr(optim, "_lockstep", recording)
    sinks = [[] for _ in fits]
    with _deadline(60):
        got = optim.fit_maps(fits, SPLIT_OCFG, ESCFG, sinks)
    pids = ran_in.read_text().split()
    assert len(pids) == 2 and str(os.getpid()) in pids and len(set(pids)) == 2, pids
    assert multiprocessing.active_children() == []
    for (start, train, loss), g, sink in zip(fits, got, sinks):
        alone = []
        want = fit_map(start, train, loss, SPLIT_OCFG, ESCFG, curve_sink=alone)
        assert g.params.values.tobytes() == want.params.values.tobytes()
        assert g.version == want.version and g.scaler is start.scaler
        assert len(sink) > 0 and np.array(sink).tobytes() == np.array(alone).tobytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", [ModelKind.MM, ModelKind.HEM, ModelKind.HAM],
                         ids=lambda k: k.value)
def test_curve_sinks_leave_the_clamp_count_alone(kind, workers, monkeypatch):
    """A learning curve is a diagnostic: the training loss it evaluates per
    epoch adds no radicand clamps, so a call counts the same clamps with
    curve sinks as without, in one process and split across two."""
    fits = _split_fits(kind)
    _two_workers(monkeypatch)
    monkeypatch.setattr(optim, "_cpus", lambda: workers)
    moved = []
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for sinks in (None, [[] for _ in fits]):
            c0 = mm_clamp_count()
            optim.fit_maps(fits, SPLIT_OCFG, ESCFG, sinks)
            moved.append(mm_clamp_count() - c0)
    assert moved[0] > 0 and moved[1] == moved[0], moved


def test_a_parent_share_that_raises_stops_its_child(monkeypatch):
    """An unexpected error in this process's share propagates, after the
    child, busy for a minute, is terminated and joined."""
    _two_workers(monkeypatch)
    parent = os.getpid()

    def share(pending, *args):
        if os.getpid() == parent:
            raise KeyError("the parent's share")
        time.sleep(60)

    monkeypatch.setattr(optim, "_lockstep", share)
    with _deadline(30), pytest.raises(KeyError, match="the parent's share"):
        optim.fit_maps(_mm_fits(), SPLIT_OCFG, ESCFG)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("how", ["raises", "dies"])
def test_a_child_that_fails_fails_the_call(how, monkeypatch):
    """A child whose share raises sends its error, which is raised here; a
    child that exits without sending is a RuntimeError naming its exit
    code.  Neither call hangs or leaves a child behind."""
    _two_workers(monkeypatch)
    parent = os.getpid()
    lockstep = optim._lockstep

    def share(pending, *args):
        if os.getpid() != parent:
            if how == "dies":
                os._exit(7)
            raise ValueError("the child's share")
        lockstep(pending, *args)

    monkeypatch.setattr(optim, "_lockstep", share)
    error, match = ((ValueError, "the child's share") if how == "raises"
                    else (RuntimeError, "exited with code 7"))
    with _deadline(30), pytest.raises(error, match=match):
        optim.fit_maps(_mm_fits(), SPLIT_OCFG, ESCFG)
    assert multiprocessing.active_children() == []


def test_stdout_buffered_before_a_split_call_is_written_once(monkeypatch, capfd):
    """The child does not write this process's unflushed stdout again."""
    _two_workers(monkeypatch)
    sys.stdout.write("written before the split\n")
    optim.fit_maps(_mm_fits(), SPLIT_OCFG, ESCFG)
    out, _ = capfd.readouterr()
    assert out.count("written before the split") == 1


def test_a_share_counts_one_cpu_and_forks_no_further():
    """While _fork's shares run, _cpus counts one CPU, in this process and
    in the child, so a fit_maps call inside a share runs in that share's
    process; afterwards the count is this process's again."""
    before = optim._cpus()
    with _deadline(30):
        got = optim._fork(lambda share: (share, optim._cpus(), optim._workers(3, 5000)),
                          [[0], [1]])
    assert got == [([0], 1, 1), ([1], 1, 1)]
    assert optim._cpus() == before
    assert multiprocessing.active_children() == []


def test_import_leaves_multiprocessing_out():
    """multiprocessing is imported by the first call that splits, not by
    importing vfmlab or its CLI."""
    proc = subprocess.run([sys.executable, "-c", "import sys, vfmlab, vfmlab.cli; "
                           "print('multiprocessing' in sys.modules)"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-1000:]
    assert proc.stdout == "False\n"

@pytest.mark.parametrize("kind", TRAINABLE_KINDS, ids=lambda k: k.value)
def test_run_schedules_equals_one_unit_at_a_time(kind, monkeypatch):
    """Three PBL units of one kind, as the wells of a study: different rows,
    noise levels and start values (each its own initial fit).  The first
    refit of the third has a one-row history (DataError) and its later ones
    succeed.  A benchmark PBL unit and an OL unit ride along.  run_schedules
    fits every refit in one fit_maps call and gives each unit the log and
    metadata of run_schedule on that unit alone, bit for bit."""
    ocfg = dataclasses.replace(_ocfg(Method.ADAM), gamma0=0.2, batch_size=kernels.COLUMN_ROWS)
    escfg = EarlyStoppingConfig(val_fraction=0.25, patience=1, max_epochs=20)
    units = []
    for u, n in enumerate((30, 32, 34)):
        ds = _data(n)
        split = chronological_split(ds, float(ds.t[24]))
        loss = LossSpec.from_data(split.train, rel=0.3 + 0.1 * u, prior_mode=PriorMode.FULL)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m0 = fit_map(_model(kind, split.train), split.train, loss, ocfg, escfg)
        if u == 2:   # one training row, and the first test row arrives after a boundary
            te = split.test
            split = dataclasses.replace(split, train=split.train.take(slice(-1, None)),
                                        test=te.take(np.flatnonzero(
                                            te.t >= split.split_time + 3 * HOUR)))
        cfg = ScheduleConfig(mode="pbl", ocfg=ocfg, loss=loss, period_s=3 * HOUR, escfg=escfg)
        units.append((m0, split, cfg))
    assert len({m0.params.values.tobytes() for m0, _, _ in units}) == 3
    m0, split, cfg = units[0]
    units += [(init_model("benchmark"), split, cfg),
              (m0, split, ScheduleConfig(mode="ol", ocfg=ocfg, loss=cfg.loss, steps=2))]

    calls = []
    fit_maps = learning.fit_maps
    monkeypatch.setattr(learning, "fit_maps",
                        lambda fits, *a: calls.append(len(fits)) or fit_maps(fits, *a))
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        got = learning.run_schedules(units)
        assert len(calls) == 1
        want = [learning.run_schedule(*unit) for unit in units]
    assert calls[0] == sum(calls[1:]) > kernels.COLUMN_ROWS
    for g, w in zip(got, want):
        for col in ("t", "well", "y_true", "y_pred", "model_version", "source"):
            assert getattr(g, col).tobytes() == getattr(w, col).tobytes(), col
        assert g.metadata == w.metadata
    failed = got[2].metadata["failed_periods"]
    assert failed == [units[2][1].test.t[0]] and got[2].metadata["n_retrains"] > 0
