"""The training step's loss and gradient against central finite differences
of the hand-summed objective in ``objective.py``, and against hand algebra."""

import numpy as np
import pytest

from vfmlab import (
    ConfigError,
    LossSpec,
    MtlParams,
    NetworkShape,
    PriorMode,
    WellDataset,
    fit_scaler,
    init_model,
    prior_loss_and_grad,
)

from conftest import make_dataset
from objective import map_objective, step_loss_grad

FD_STEP = 2e-6


def fd_gradient(m, batch, loss):
    """Central differences of the scalar objective, one coordinate at a time."""
    theta0 = m.params.values
    g = np.zeros_like(theta0)
    for i in range(len(theta0)):
        h = FD_STEP * max(1.0, abs(theta0[i]))
        up, dn = theta0.copy(), theta0.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (map_objective(m.with_values(up), batch, loss)
                - map_objective(m.with_values(dn), batch, loss)) / (2 * h)
    return g


def mixed_dataset(n=24, seed=0):
    ds = make_dataset(n, seed=seed)
    wells = (np.arange(n) % 3 + 1).astype(np.int64)
    return WellDataset(ds.t, ds.X, ds.y, ds.source, wells)


def model_zoo(scaler, seed=0):
    shape = NetworkShape(hidden=(8, 5))
    mtl = MtlParams(well_ids=(1, 2, 3), task_dim=3, block_width=8, n_blocks=2)
    rng = np.random.default_rng(seed)
    out = []
    for kind, kw in [("lr", {}), ("nn", dict(shape=shape)), ("mm", {}),
                     ("hem", dict(shape=shape)), ("ham", dict(shape=shape)),
                     ("mtl", dict(mtl=mtl))]:
        m = init_model(kind, seed=seed, scaler=scaler, **kw)
        # physical entries move by a twentieth of their prior std; a step of
        # 0.05 can make M_gas (prior mean 0.02) negative, which clamps the
        # radicands and zeroes the physics gradient that is under test
        p = m.params
        step = np.where(p.is_physical, p.prior_std, 1.0)
        m = m.with_values(p.values + 0.05 * step * rng.standard_normal(len(p)))
        out.append((kind, m))
    return out


@pytest.mark.parametrize("prior_mode", list(PriorMode))
def test_analytic_gradient_matches_finite_differences(prior_mode):
    """Targets are drawn near each model's own output scale so the objective
    stays O(n) and central differences keep their accuracy.  24 rows run the
    kernels' column forms, 5 rows (below COLUMN_ROWS) the MM, HEM and HAM loops."""
    import vfmlab

    rng = np.random.default_rng(11)
    for n in (24, 5):
        base = mixed_dataset(n)
        scaler = fit_scaler(base)
        for kind, m in model_zoo(scaler):
            ref = init_model(kind, seed=1, scaler=scaler,
                             shape=m.shape, mtl=m.mtl)
            wells = base.well if kind == "mtl" else None
            y0 = vfmlab.predict(ref, base.X, wells)
            spread = float(np.std(y0)) + 1.0
            y = y0 + 0.1 * spread * rng.standard_normal(len(y0))
            ds = WellDataset(base.t, base.X, y, base.source, base.well)
            loss = LossSpec(noise_std=0.1 * spread, prior_mode=prior_mode)
            _, got = step_loss_grad(m, ds, loss)
            want = fd_gradient(m, ds, loss)
            scale = np.maximum(np.abs(want), 1.0)
            worst = np.max(np.abs(got - want) / scale)
            assert worst < 1e-5, f"{kind}, {n} rows: worst rel error {worst:.2e}"


def test_gradient_loss_value_equals_objective():
    ds = mixed_dataset(seed=3)
    loss = LossSpec(noise_std=5.0)
    for kind, m in model_zoo(fit_scaler(ds), seed=2):
        got, _ = step_loss_grad(m, ds, loss)
        assert got == pytest.approx(map_objective(m, ds, loss), rel=1e-12), kind


def test_lr_single_observation_hand_gradient():
    """theta = 0, x = e0, y = 1, sigma = 1, no prior: loss (y-0)^2 = 1 and
    d/dw0 = -2*(y - yhat)*x0 = -2; every other coordinate stays 0."""
    m = init_model("lr")
    m = m.with_values(np.zeros(7))
    X = np.zeros((1, 6))
    X[0, 0] = 1.0
    ds = WellDataset(np.array([0.0]), X, np.array([1.0]),
                     np.zeros(1, np.uint8), np.ones(1, np.int64))
    loss, grad = step_loss_grad(m, ds, LossSpec(noise_std=1.0, prior_mode=PriorMode.NONE))
    g = dict(zip(m.params.names, grad))
    assert loss == pytest.approx(1.0)
    assert g["w[0]"] == pytest.approx(-2.0)
    assert g["b"] == pytest.approx(-2.0)  # bias sees every residual
    for name in ("w[1]", "w[2]", "w[3]", "w[4]", "w[5]"):
        assert g[name] == 0.0


def test_noise_std_rescales_data_term_only():
    ds = mixed_dataset(seed=1)
    m = model_zoo(fit_scaler(ds), seed=1)[0][1]
    _, g1 = step_loss_grad(m, ds, LossSpec(noise_std=1.0, prior_mode=PriorMode.NONE))
    _, g2 = step_loss_grad(m, ds, LossSpec(noise_std=2.0, prior_mode=PriorMode.NONE))
    np.testing.assert_allclose(g2, g1 / 4.0, rtol=1e-12)


def test_prior_gradient_vanishes_at_prior_mean():
    m = init_model("mm")
    loss, grad = prior_loss_and_grad(m.params, m.params.values, PriorMode.FULL)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_prior_gradient_hand_value_off_mean():
    m = init_model("mm")
    theta = m.params.values.copy()
    i = m.params.names.index("C_D")
    theta[i] += m.params.prior_std[i]  # one prior std above the mean
    loss, grad = prior_loss_and_grad(m.params, theta, PriorMode.FULL)
    assert loss == pytest.approx(1.0)
    assert grad[i] == pytest.approx(2.0 / m.params.prior_std[i])


def test_data_term_is_additive_over_batches():
    ds = mixed_dataset(n=20, seed=4)
    first, second = ds.take(slice(0, 11)), ds.take(slice(11, 20))
    loss = LossSpec(noise_std=3.0, prior_mode=PriorMode.NONE)
    for kind, m in model_zoo(fit_scaler(ds), seed=5):
        whole, g_whole = step_loss_grad(m, ds, loss)
        parts, g_parts = step_loss_grad(m, first, loss)
        rest, g_rest = step_loss_grad(m, second, loss)
        assert whole == pytest.approx(parts + rest, rel=1e-10)
        np.testing.assert_allclose(g_whole, g_parts + g_rest, rtol=1e-9, atol=1e-9)


def test_gradient_at_exact_fit_is_prior_only():
    m = init_model("lr")
    rng = np.random.default_rng(9)
    theta = rng.normal(size=7)
    m = m.with_values(theta)
    X = rng.normal(size=(15, 6))
    y = X @ theta[:6] + theta[6]
    ds = WellDataset(np.arange(15.0), X, y, np.zeros(15, np.uint8),
                     np.ones(15, np.int64))
    _, grad = step_loss_grad(m, ds, LossSpec(noise_std=1.0, prior_mode=PriorMode.NONE))
    np.testing.assert_allclose(grad, 0.0, atol=1e-9)


def test_physical_only_prior_skips_network_weights():
    ds = mixed_dataset(seed=6)
    m = init_model("hem", shape=NetworkShape(hidden=(4,)), scaler=fit_scaler(ds))
    rng = np.random.default_rng(7)
    m = m.with_values(m.params.values + 0.1 * rng.standard_normal(len(m.params)))
    theta = m.params.values
    _, g_phys = prior_loss_and_grad(m.params, theta, PriorMode.PHYSICAL_ONLY)
    _, g_full = prior_loss_and_grad(m.params, theta, PriorMode.FULL)
    phys = np.array(m.params.is_physical)
    np.testing.assert_allclose(g_phys[phys], g_full[phys], rtol=1e-14)
    assert np.all(g_phys[~phys] == 0.0)
    assert np.any(g_full[~phys] != 0.0)


def test_mechanistic_gradient_is_finite_at_the_critical_pressure_clamp():
    m = init_model("mm")
    i = m.params.names.index("p_cr")
    p_cr = m.params.values[i]
    X = np.array([[0.5, 1e7, p_cr * 1e7, 350.0, 0.3, 0.6]])  # exactly at the clamp
    ds = WellDataset(np.array([0.0]), X, np.array([3e4]),
                     np.zeros(1, np.uint8), np.ones(1, np.int64))
    _, grad = step_loss_grad(m, ds, LossSpec(noise_std=1e3))
    assert np.all(np.isfinite(grad))


def test_unknown_mtl_well_is_a_config_error():
    ds = mixed_dataset()
    ds = WellDataset(ds.t, ds.X, ds.y, ds.source, np.where(ds.well == 3, 9, ds.well))
    m = dict(model_zoo(fit_scaler(ds)))["mtl"]
    loss = LossSpec(noise_std=1.0)
    with pytest.raises(ConfigError, match="well_id 9"):
        step_loss_grad(m, ds, loss)
    with pytest.raises(ConfigError, match="well_id 9"):
        map_objective(m, ds, loss)

