"""MAP objective, SGD/Adam stepping, batch fitting, hyperparameter search."""

import math
from dataclasses import replace

import numpy as np
import pytest

from vfmlab import (
    ConfigError,
    DataError,
    EarlyStoppingConfig,
    LossSpec,
    Method,
    NumericError,
    OptimizerConfig,
    PriorMode,
    ScheduleConfig,
    WellDataset,
    chronological_split,
    fit_scaler,
    init_model,
    mape_details,
    run_schedule,
)
from vfmlab.optim import (
    TrainingStep,
    fit_map,
    gamma_at,
    grid_search,
    optimizer_step,
)

from conftest import make_dataset
from objective import map_objective, step_loss_grad


def affine_dataset(n, theta, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    y = X @ theta[:6] + theta[6] + noise * rng.standard_normal(n)
    return WellDataset(np.arange(float(n)), X, y,
                       np.zeros(n, np.uint8), np.ones(n, np.int64))


# ------------------------------------------------------------------- objective


def test_map_loss_is_zero_at_perfect_fit_and_prior_mean():
    rng = np.random.default_rng(0)
    theta = rng.normal(size=7)
    ds = affine_dataset(30, theta)
    m = init_model("lr").with_values(theta)
    loss = LossSpec(noise_std=1.0, prior_mode=PriorMode.NONE)
    assert step_loss_grad(m, ds, loss)[0] == pytest.approx(0.0, abs=1e-18)
    # at the prior mean the full objective reduces to the data term alone
    full = LossSpec(noise_std=1.0, prior_mode=PriorMode.FULL)
    m0 = init_model("lr")
    assert step_loss_grad(m0, ds, full)[0] == pytest.approx(
        step_loss_grad(m0, ds, LossSpec(1.0, PriorMode.NONE))[0], rel=1e-14)


def test_map_loss_hand_example_single_residual():
    m = init_model("lr").with_values(np.zeros(7))
    ds = WellDataset(np.array([0.0]), np.zeros((1, 6)), np.array([2.0]),
                     np.zeros(1, np.uint8), np.ones(1, np.int64))
    # residual 2, sigma 1, no prior: (2/1)^2 = 4
    assert step_loss_grad(m, ds, LossSpec(1.0, PriorMode.NONE))[0] == pytest.approx(4.0)
    # sigma 2 scales the same residual down to 1
    assert step_loss_grad(m, ds, LossSpec(2.0, PriorMode.NONE))[0] == pytest.approx(1.0)


def test_map_loss_matches_hand_summed_oracle():
    import vfmlab

    rng = np.random.default_rng(4)
    ds = make_dataset(25, seed=2)
    from vfmlab import fit_scaler
    m = init_model("lr", scaler=fit_scaler(ds))
    theta = rng.normal(size=7)
    m = m.with_values(theta)
    sigma = 7.0
    yhat = vfmlab.predict(m, ds.X)
    data_term = float(np.sum(((ds.y - yhat) / sigma) ** 2))
    prior_term = float(np.sum(((theta - m.params.prior_mean)
                               / m.params.prior_std) ** 2))
    got, _ = step_loss_grad(m, ds, LossSpec(noise_std=sigma))
    assert got == pytest.approx(data_term + prior_term, rel=1e-12)


# -------------------------------------------------------------------- stepping


def test_gamma_schedule_values():
    const = OptimizerConfig(method=Method.SGD, gamma0=0.1)
    assert gamma_at(const, 1) == gamma_at(const, 50) == 0.1
    power = OptimizerConfig(method=Method.SGD, gamma0=0.1,
                            schedule="power", power_a=1.0)
    assert gamma_at(power, 1) == pytest.approx(0.1)
    assert gamma_at(power, 10) == pytest.approx(0.01)
    sqrtish = OptimizerConfig(method=Method.SGD, gamma0=0.2,
                              schedule="power", power_a=0.5)
    assert gamma_at(sqrtish, 4) == pytest.approx(0.1)


def _fresh_state(m):
    """The optimizer state an online update starts from, at m's values."""
    return TrainingStep(m, 1.0, PriorMode.NONE).start(m.params.values.copy())


def test_zero_gradient_leaves_parameters_fixed():
    m = init_model("mm")
    for method in (Method.SGD, Method.ADAM):
        state = _fresh_state(m)
        cfg = OptimizerConfig(method=method, gamma0=0.1)
        before = state.values.copy()
        for k in range(1, 4):
            state = optimizer_step(state, np.zeros(6), cfg, k)
        np.testing.assert_array_equal(state.values, before)


def test_sgd_three_steps_match_in_test_oracle():
    m = init_model("lr")
    state = _fresh_state(m)
    cfg = OptimizerConfig(method=Method.SGD, gamma0=0.05,
                          schedule="power", power_a=1.0)
    rng = np.random.default_rng(12)
    grads = rng.normal(size=(3, 7))
    theta = m.params.values.copy()
    for k in range(1, 4):
        state = optimizer_step(state, grads[k - 1], cfg, k)
        theta = theta - (0.05 / k) * grads[k - 1]
        np.testing.assert_allclose(state.values, theta, rtol=0, atol=1e-12)


def test_adam_three_steps_match_in_test_oracle():
    m = init_model("lr")
    state = _fresh_state(m)
    cfg = OptimizerConfig(method=Method.ADAM, gamma0=0.01)
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    rng = np.random.default_rng(13)
    grads = rng.normal(size=(3, 7))
    theta = m.params.values.copy()
    mo = np.zeros(7)
    vo = np.zeros(7)
    for k in range(1, 4):
        state = optimizer_step(state, grads[k - 1], cfg, k)
        g = grads[k - 1]
        mo = b1 * mo + (1 - b1) * g
        vo = b2 * vo + (1 - b2) * g * g
        mhat = mo / (1 - b1**k)
        vhat = vo / (1 - b2**k)
        theta = theta - 0.01 * mhat / (np.sqrt(vhat) + eps)
        np.testing.assert_allclose(state.values, theta, rtol=0, atol=1e-12)


def test_steps_clip_physical_parameters_to_their_bounds():
    m = init_model("mm")
    state = _fresh_state(m)
    i = m.params.names.index("p_cr")
    huge = np.zeros(6)
    huge[i] = 1e9  # pushes p_cr far below its lower bound
    cfg = OptimizerConfig(method=Method.SGD, gamma0=1.0)
    state = optimizer_step(state, huge, cfg, 1)
    assert state.values[i] == m.params.lower[i]
    assert m.params.lower[i] > 0.0


def test_nonfinite_gradient_rejected_and_state_untouched():
    m = init_model("lr")
    state = _fresh_state(m)
    before = state.values.copy()
    bad = np.zeros(7)
    bad[3] = np.nan
    with pytest.raises(NumericError):
        optimizer_step(state, bad, OptimizerConfig(), 1)
    np.testing.assert_array_equal(state.values, before)
    with pytest.raises(ConfigError):
        optimizer_step(state, np.zeros(7), OptimizerConfig(), 0)


@pytest.mark.parametrize("bad", [{"adam_beta1": 1.0}, {"adam_beta1": -0.1},
                                 {"adam_beta2": 1.0}, {"adam_beta2": -0.1},
                                 {"adam_eps": 0.0}, {"adam_eps": float("nan")}])
def test_adam_settings_that_divide_by_zero_are_refused(bad):
    # beta = 1 zeroes a bias correction and eps = 0 the denominator of a
    # parameter whose v is still zero: Python floats would raise there
    with pytest.raises(ConfigError):
        OptimizerConfig(**bad)


# --------------------------------------------------------------------- fitting


def test_fit_map_recovers_noiseless_affine_map():
    rng = np.random.default_rng(3)
    theta_true = rng.normal(size=7)
    ds = affine_dataset(200, theta_true, seed=5)
    m = init_model("lr")
    loss = LossSpec(noise_std=0.05, prior_mode=PriorMode.NONE)
    ocfg = OptimizerConfig(method=Method.ADAM, gamma0=0.05, batch_size=None)
    fit = fit_map(m, ds, loss, ocfg, EarlyStoppingConfig(patience=25,
                                                         max_epochs=2000))
    # closed-form least squares on the same design
    A = np.column_stack([ds.X, np.ones(len(ds))])
    closed, *_ = np.linalg.lstsq(A, ds.y, rcond=None)
    np.testing.assert_allclose(fit.params.values, closed, atol=1e-3)


def test_fit_map_with_tight_prior_pins_parameters_to_the_mean():
    from dataclasses import replace

    ds = affine_dataset(50, np.random.default_rng(1).normal(size=7), seed=7)
    m = init_model("lr")
    s = 1e-4
    params = replace(m.params, prior_std=np.full(7, s))
    m = replace(m, params=params)
    # start well off the prior mean; the tight prior must pull the fit home
    m = m.with_values(m.params.prior_mean + 0.1)
    loss = LossSpec(noise_std=1.0, prior_mode=PriorMode.FULL)
    # SGD stability against the prior curvature 2/s^2 requires gamma < s^2
    ocfg = OptimizerConfig(method=Method.SGD, gamma0=s * s / 4, batch_size=None)
    fit = fit_map(m, ds, loss, ocfg,
                  EarlyStoppingConfig(patience=5, max_epochs=200))
    np.testing.assert_allclose(fit.params.values, m.params.prior_mean, atol=1e-6)


def test_fit_map_returns_best_validation_epoch():
    ds = affine_dataset(80, np.random.default_rng(2).normal(size=7),
                        seed=9, noise=0.5)
    m = init_model("lr")
    loss = LossSpec(noise_std=0.5, prior_mode=PriorMode.NONE)
    escfg = EarlyStoppingConfig(val_fraction=0.25, patience=3, max_epochs=400)
    sink = []
    fit = fit_map(m, ds, loss, OptimizerConfig(gamma0=0.02, seed=4),
                  escfg, curve_sink=sink)
    vals = [v for (_, _, v) in sink]
    stopped_early = len(sink) < escfg.max_epochs
    if stopped_early:
        # the loop breaks after `patience` consecutive non-improving epochs
        assert int(np.argmin(vals)) == len(vals) - 1 - escfg.patience
    n_val = int(math.floor(escfg.val_fraction * len(ds)))
    tail = ds.take(slice(len(ds) - n_val, len(ds)))
    assert map_objective(fit, tail, loss) == pytest.approx(min(vals), rel=1e-12)


def test_fit_map_degenerate_validation_split_warns():
    # floor(0.2 * 4) = 0 held-out rows: fixed epoch count plus a warning
    ds = affine_dataset(4, np.zeros(7))
    m = init_model("lr")
    with pytest.warns(UserWarning, match="degenerate validation split") as caught:
        fit_map(m, ds, LossSpec(1.0, PriorMode.NONE),
                OptimizerConfig(gamma0=1e-3),
                EarlyStoppingConfig(val_fraction=0.2, patience=2, max_epochs=3))
    assert [w.filename for w in caught] == [__file__]   # it points at fit_map's caller


def test_fit_map_needs_data_and_a_parametric_model():
    m = init_model("lr")
    one = affine_dataset(1, np.zeros(7))
    with pytest.raises(DataError):
        fit_map(m, one, LossSpec(1.0), OptimizerConfig(), EarlyStoppingConfig())
    with pytest.raises(ConfigError):
        fit_map(init_model("benchmark"), affine_dataset(10, np.zeros(7)),
                LossSpec(1.0), OptimizerConfig(), EarlyStoppingConfig())


def _refused_starts():
    """Starts that cannot share a stack with init_model("hem"): each differs
    from it in one thing that fit_maps takes from the first fit."""
    from vfmlab.models import ChokeGeometry, MtlParams, NetworkShape

    hem = init_model("hem", seed=1)
    p = hem.params
    shifted_mean = p.prior_mean.copy()
    shifted_mean[0] += 1.0
    wide_std = p.prior_std.copy()
    wide_std[-1] *= 2.0
    upper = p.upper.copy()
    upper[2] *= 2.0
    flags = p.is_physical.copy()
    flags[-1] = True
    mtl = init_model("mtl", mtl=MtlParams((1, 2)), seed=1)
    return {
        "kind": init_model("mm", seed=1),
        "widths": init_model("hem", shape=NetworkShape(hidden=(32, 16)), seed=1),
        "geometry": init_model("hem", geometry=ChokeGeometry(c1=0.2, c3=0.8), seed=1),
        "prior mean": replace(hem, params=replace(p, prior_mean=shifted_mean)),
        "prior std": replace(hem, params=replace(p, prior_std=wide_std)),
        "bounds": replace(hem, params=replace(p, upper=upper)),
        "physical flags": replace(hem, params=replace(p, is_physical=flags)),
        "mtl dims": (mtl, init_model("mtl", mtl=MtlParams((1, 2), task_dim=3), seed=1)),
    }


@pytest.mark.parametrize("what", ["kind", "widths", "geometry", "prior mean", "prior std",
                                  "bounds", "physical flags", "mtl dims", "prior mode"])
def test_fit_maps_refuses_fits_that_cannot_share_a_stack(what):
    """fit_maps takes the kernel plan, the prior and the bounds from its first
    fit, so a later fit that differs in any of them is a ConfigError, raised
    before any fit runs; start values and noise may differ."""
    from vfmlab.optim import fit_maps

    ds = make_dataset(30, seed=3)
    first = init_model("hem", seed=1, scaler=fit_scaler(ds))
    loss = LossSpec(noise_std=10.0)
    if what == "prior mode":
        other, other_loss = first, LossSpec(10.0, PriorMode.PHYSICAL_ONLY)
    else:
        other, other_loss = _refused_starts()[what], loss
        if what == "mtl dims":
            first, other = other
    fits = [(first, ds, loss), (replace(other, scaler=fit_scaler(ds)), ds, other_loss)]
    with pytest.raises(ConfigError, match="cannot share"):
        fit_maps(fits, OptimizerConfig(), EarlyStoppingConfig(max_epochs=1))
    # the same first fit with other start values and noise stacks
    moved = first.with_values(first.params.values + 0.01)
    fitted = fit_maps([(first, ds, loss), (moved, ds, LossSpec(noise_std=3.0))],
                      OptimizerConfig(), EarlyStoppingConfig(max_epochs=1))
    assert all(not isinstance(f, Exception) for f in fitted)


def test_tiny_exact_gradient_step_does_not_increase_loss():
    ds = make_dataset(30, seed=3)
    from vfmlab import fit_scaler
    m = init_model("lr", scaler=fit_scaler(ds))
    loss = LossSpec(noise_std=10.0)
    _, grad = step_loss_grad(m, ds, loss)
    stepped = m.with_values(m.params.values - 1e-8 * grad)
    assert map_objective(stepped, ds, loss) <= map_objective(m, ds, loss)


# ----------------------------------------------------------------- grid search


def ol_protocol(**kw):
    base = dict(mode="ol", ocfg=OptimizerConfig(gamma0=1e-3),
                loss=LossSpec(noise_std=1.0), steps=5)
    base.update(kw)
    return ScheduleConfig(**base)


# the initial fit before an OL protocol's run
INIT_OCFG = OptimizerConfig(gamma0=1e-3, batch_size=32)


def holdout_score(ds, seed=0):
    """The score tune gives a schedule on one well: an LR fitted on the first
    80% of ds (with the schedule's optimizer under PBL, INIT_OCFG under OL),
    the schedule run over the last 20%, and the MAPE of that run."""
    sp = chronological_split(ds, ds.t[int(0.8 * len(ds))])
    loss = LossSpec.from_data(sp.train)

    def score(sched):
        ocfg = sched.ocfg if sched.mode == "pbl" else INIT_OCFG
        m0 = init_model("lr", seed=seed, scaler=fit_scaler(sp.train))
        m0 = fit_map(m0, sp.train, loss, ocfg, EarlyStoppingConfig())
        return mape_details(run_schedule(m0, sp, replace(sched, loss=loss)))[0]

    return score


def test_grid_search_single_combination_is_returned_as_is():
    ds = make_dataset(60, seed=4)
    got, score = grid_search({"gamma0": [2e-3]}, ol_protocol(), holdout_score(ds, seed=1))
    assert got == ol_protocol(ocfg=OptimizerConfig(gamma0=2e-3))
    assert math.isfinite(score)


def test_grid_search_prefers_the_converging_rate():
    ds = make_dataset(80, seed=6)
    got, score = grid_search({"gamma0": [1e-3, 1e6]}, ol_protocol(), holdout_score(ds, seed=1))
    assert got.ocfg.gamma0 == 1e-3
    try:
        _, wild = grid_search({"gamma0": [1e6]}, ol_protocol(), holdout_score(ds, seed=1))
    except NumericError:
        wild = math.inf
    assert score < wild


def test_grid_search_varies_the_ol_step_count():
    # the step count belongs to the OL schedule: one step and ten steps per
    # observation learn differently, so they must score differently
    ds = make_dataset(80, seed=6)
    proto = ol_protocol(ocfg=OptimizerConfig(gamma0=1e-2))
    scores = [grid_search({"steps": [k]}, proto, holdout_score(ds, seed=1))[1]
              for k in (1, 10)]
    assert scores[0] != scores[1]
    got, score = grid_search({"steps": [1, 10]}, proto, holdout_score(ds, seed=1))
    assert score == min(scores)
    assert got.steps == (1, 10)[scores.index(score)]


def test_grid_search_tie_breaks_toward_smaller_gamma_then_fewer_steps():
    ds = make_dataset(60, seed=8)
    # updates of size ~1e-30 are absorbed by float64 addition, so every combo
    # produces identical predictions and the tie-break ordering decides
    got, _ = grid_search({"gamma0": [2e-30, 1e-30], "steps": [10, 1, 5]},
                         ol_protocol(), holdout_score(ds, seed=2))
    assert got.ocfg.gamma0 == 1e-30
    assert got.steps == 1


def test_grid_search_validates_its_grids():
    """Empty grids, unknown keys and keys the mode never reads (an OL run
    takes no batch size, a PBL run no step count) are refused."""
    ds = make_dataset(40)
    pbl = ScheduleConfig(mode="pbl", ocfg=OptimizerConfig(), loss=LossSpec(noise_std=1.0),
                         period_s=86400.0)
    for proto, grids in ((ol_protocol(), {}), (ol_protocol(), {"gamma0": []}),
                         (ol_protocol(), {"momentum": [0.9]}),
                         (ol_protocol(), {"batch_size": [16, 64]}), (pbl, {"steps": [1, 10]})):
        with pytest.raises(ConfigError):
            grid_search(grids, proto, holdout_score(ds))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_search_raises_when_everything_diverges():
    # under PBL the searched rate drives the batch fit itself, so an absurd
    # rate overflows the parameters and every combination fails
    ds = make_dataset(60, seed=9)
    pbl = ScheduleConfig(mode="pbl",
                         ocfg=OptimizerConfig(method=Method.SGD, gamma0=1e-3),
                         loss=LossSpec(noise_std=1.0),
                         period_s=7 * 86400.0)
    with pytest.raises(NumericError):
        grid_search({"gamma0": [1e300, 1e305]}, pbl, holdout_score(ds, seed=3))
