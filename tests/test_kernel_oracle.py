"""Array- and column-form kernels against the frozen loop kernels.

``tests/loop_kernels.py`` keeps the per-row and per-parameter loop versions
of the optimizer steps and of the LR, NN, MTL, MM, HEM and HAM kernels.

* The optimizer steps and the LR, NN and MTL kernels keep every rounding
  step of those loops, so their checks use ``np.array_equal``.
* The MM, HEM and HAM column forms keep the loops' order of operations too,
  but numpy's ``power``, ``log``, ``exp`` and ``log1p`` may differ from libm
  by one unit in the last place, so they are held to 1e-10 relative for
  predictions and loss and 1e-9 for gradients, with equal clamp counts.

Row counts cover both sides of ``kernels.COLUMN_ROWS``, below which the
kernels keep the loop.
"""

import numpy as np
import pytest

import loop_kernels as loop
from vfmlab import StudyConfig, kernels
from vfmlab.models import D_INPUT, ChokeGeometry, MechanisticParams, NetworkShape

NN_WIDTHS = np.array(NetworkShape(hidden=(32, 32)).widths(), dtype=np.int64)
NN_PARAMS = NetworkShape(hidden=(32, 32)).n_params()          # 1313
MTL = StudyConfig().mtl_params((1, 2, 3, 4, 5))
ROWS = sorted({1, kernels.COLUMN_ROWS - 1, kernels.COLUMN_ROWS, 64, 1024} - {0})


def _bounds(rng, theta):
    """A third each: lower bound, upper bound, none; finite ones start close
    enough to theta that the steps below run into them."""
    n = len(theta)
    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    which = np.arange(n) % 3
    gap = rng.uniform(-0.01, 0.2, n)   # a few start already outside
    lower[which == 0] = (theta - gap)[which == 0]
    upper[which == 1] = (theta + gap)[which == 1]
    return lower, upper


@pytest.mark.parametrize("n", [6, 7, NN_PARAMS, NN_PARAMS + 6, MTL.n_params()])
def test_adam_steps_equal_the_loop(n):
    rng = np.random.default_rng(n)
    theta = rng.standard_normal(n)
    lower, upper = _bounds(rng, theta)
    m_a, v_a = np.zeros(n), np.zeros(n)
    m_l, v_l = np.zeros(n), np.zeros(n)
    th_a = th_l = theta
    clamped = 0
    for k in range(1, 301):
        grad = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        gamma = 0.05 / np.sqrt(k)
        th_l = loop.adam_step(th_l, grad, m_l, v_l, k, gamma, 0.9, 0.999, 1e-8,
                              lower, upper)
        th_a = kernels.adam_step(th_a, grad, m_a, v_a, k, gamma, 0.9, 0.999, 1e-8,
                                 lower, upper)
        assert np.array_equal(th_a, th_l), k
        assert np.array_equal(m_a, m_l), k   # m and v are updated in place
        assert np.array_equal(v_a, v_l), k
        clamped += int(np.sum((th_a == lower) | (th_a == upper)))
    assert clamped > 0   # the bounds were active


@pytest.mark.parametrize("n", [6, 7, NN_PARAMS, NN_PARAMS + 6, MTL.n_params()])
def test_sgd_steps_equal_the_loop(n):
    rng = np.random.default_rng(100 + n)
    theta = rng.standard_normal(n)
    lower, upper = _bounds(rng, theta)
    th_a = th_l = theta
    clamped = 0
    for k in range(1, 51):
        grad = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 1, n)
        th_l = loop.sgd_step(th_l, grad, 0.5 / k, lower, upper)
        th_a = kernels.sgd_step(th_a, grad, 0.5 / k, lower, upper)
        assert np.array_equal(th_a, th_l), k
        clamped += int(np.sum((th_a == lower) | (th_a == upper)))
    assert clamped > 0


def _rows(rng, n):
    xs = rng.standard_normal((n, D_INPUT))
    y = rng.standard_normal(n)
    return xs, y


@pytest.mark.parametrize("n", ROWS)
def test_lr_predict_equals_the_loop(n):
    rng = np.random.default_rng(n)
    xs, _ = _rows(rng, n)
    theta = rng.standard_normal(D_INPUT + 1)
    assert np.array_equal(kernels.lr_predict(theta, xs), loop.lr_predict(theta, xs))


@pytest.mark.parametrize("off", [0, 6])
@pytest.mark.parametrize("n", ROWS)
def test_nn_kernels_equal_the_loop(n, off):
    rng = np.random.default_rng(10 * n + off)
    xs, y = _rows(rng, n)
    theta = rng.standard_normal(off + NN_PARAMS) * 0.3
    assert np.array_equal(kernels.nn_predict(theta, off, NN_WIDTHS, xs),
                          loop.nn_predict(theta, off, NN_WIDTHS, xs))

    delta = rng.standard_normal(n)
    start = rng.standard_normal(len(theta))   # backprop accumulates into grad
    g_a, g_l = start.copy(), start.copy()
    out_a, acts = kernels._nn_forward(theta, off, NN_WIDTHS, xs)
    kernels._nn_backward(theta, off, NN_WIDTHS, acts, delta, g_a)
    out_l = loop._nn_backprop(theta, off, NN_WIDTHS, xs, delta, g_l)
    assert np.array_equal(out_a, out_l)
    assert np.array_equal(g_a, g_l)

    sse_a, grad_a = kernels.nn_loss_grad(theta, off, NN_WIDTHS, xs, y, 2.5)
    sse_l, grad_l = loop.nn_loss_grad(theta, off, NN_WIDTHS, xs, y, 2.5)
    assert sse_a == sse_l
    assert np.array_equal(grad_a, grad_l)


MTL_DIMS = [MTL.dims(), np.array([D_INPUT, 1, 8, 2, 3], dtype=np.int64)]


@pytest.mark.parametrize("dims", MTL_DIMS, ids=["study", "task_dim1"])
@pytest.mark.parametrize("n", ROWS)
def test_mtl_kernels_equal_the_loop(n, dims):
    d, p, h, nblk, m = (int(v) for v in dims)
    rng = np.random.default_rng(n + p)
    xs, y = _rows(rng, n)
    n_params = d * h + p * h + h + nblk * (2 * h * h + 2 * h) + h + 1 + p * m
    theta = rng.standard_normal(n_params) * 0.3
    wells = rng.integers(0, m, n).astype(np.int64)   # repeats: scatter order matters

    fwd_a = kernels._mtl_forward(theta, dims, xs, wells)
    fwd_l = loop._mtl_forward(theta, dims, xs, wells)
    assert np.array_equal(fwd_a[0], fwd_l[0])
    for got, want in zip(fwd_a[1:4], fwd_l[1:4]):
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(fwd_a[4], fwd_l[4])
    assert np.array_equal(kernels.mtl_predict(theta, dims, xs, wells),
                          loop.mtl_predict(theta, dims, xs, wells))

    sse_a, grad_a = kernels.mtl_loss_grad(theta, dims, xs, wells, y, 2.5)
    sse_l, grad_l = loop.mtl_loss_grad(theta, dims, xs, wells, y, 2.5)
    assert sse_a == sse_l
    assert np.array_equal(grad_a, grad_l)


@pytest.mark.parametrize("n", ROWS)
def test_lr_loss_grad_equals_the_loop(n):
    rng = np.random.default_rng(20 + n)
    xs, y = _rows(rng, n)
    theta = rng.standard_normal(D_INPUT + 1)
    sse_a, grad_a = kernels.lr_loss_grad(theta, xs, y, 2.5)
    sse_l, grad_l = loop.lr_loss_grad(theta, xs, y, 2.5)
    assert sse_a == sse_l
    assert np.array_equal(grad_a, grad_l)


# ------------------------------------------------------ MM, HEM, HAM: tolerance

GEOM = ChokeGeometry().as_array()
MM_THETA = MechanisticParams().as_array()
PRED_RTOL = 1e-10
GRAD_RTOL = 1e-9


def _choke_rows(rng, n):
    """Raw choke inputs that reach every branch of the physics: rows 0, 3, 6,
    ... have p2/p1 below p_cr (the ratio is clamped, so the p_cr derivative is
    live), rows 1, 7, 13, ... have p2 > p1 (nonpositive radicand, flow clamped
    to zero), and some rows have eta_oil + eta_gas > 1 (water fraction
    clamped to zero)."""
    i = np.arange(n)
    ratio = rng.uniform(0.6, 0.95, n)
    ratio[i % 3 == 0] = rng.uniform(0.3, 0.5, n)[i % 3 == 0]
    ratio[i % 6 == 1] = rng.uniform(1.01, 1.3, n)[i % 6 == 1]
    p1 = rng.uniform(120e5, 200e5, n)
    x = np.column_stack([rng.uniform(0.05, 1.0, n), p1, p1 * ratio,
                         rng.uniform(320.0, 370.0, n),
                         rng.uniform(0.05, 0.5, n), rng.uniform(0.2, 0.7, n)])
    return x, (x - x.mean(axis=0)) / (x.std(axis=0) + 1.0)


def _mm_theta(rng):
    return MM_THETA * rng.uniform(0.9, 1.1, 6)


def _close(got, want, rtol):
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("n", ROWS)
def test_mm_kernels_match_the_loop(n):
    rng = np.random.default_rng(30 + n)
    x, _ = _choke_rows(rng, n)
    theta = _mm_theta(rng)
    yl, nneg_l = loop.mm_predict(theta, x, GEOM)
    ya, nneg_a = kernels.mm_predict(theta, x, GEOM)
    _close(ya, yl, PRED_RTOL)
    assert nneg_a == nneg_l
    assert np.any(x[:, 2] / x[:, 1] < theta[4])   # a clamped pressure ratio
    assert nneg_l >= min(n - 1, 1)                 # a nonpositive radicand

    y = yl * rng.uniform(0.8, 1.2, n) + 1.0
    sse_a, grad_a, nneg_ga = kernels.mm_loss_grad(theta, x, GEOM, y, 2.5)
    sse_l, grad_l, nneg_gl = loop.mm_loss_grad(theta, x, GEOM, y, 2.5)
    _close(sse_a, sse_l, PRED_RTOL)
    _close(grad_a, grad_l, GRAD_RTOL)
    assert grad_l[4] != 0.0   # the p_cr derivative of clamped rows is live
    assert nneg_ga == nneg_gl == nneg_l


@pytest.mark.parametrize("n", ROWS)
def test_hem_kernels_match_the_loop(n):
    rng = np.random.default_rng(40 + n)
    x, xs = _choke_rows(rng, n)
    theta = np.concatenate([_mm_theta(rng), rng.standard_normal(NN_PARAMS) * 0.3])
    yl, nneg_l = loop.hem_predict(theta, NN_WIDTHS, x, xs, GEOM, 7.0)
    ya, nneg_a = kernels.hem_predict(theta, NN_WIDTHS, x, xs, GEOM, 7.0)
    _close(ya, yl, PRED_RTOL)
    assert nneg_a == nneg_l

    y = yl * rng.uniform(0.8, 1.2, n) + 1.0
    sse_a, grad_a, nneg_ga = kernels.hem_loss_grad(theta, NN_WIDTHS, x, xs, GEOM, y, 2.5, 7.0)
    sse_l, grad_l, nneg_gl = loop.hem_loss_grad(theta, NN_WIDTHS, x, xs, GEOM, y, 2.5, 7.0)
    _close(sse_a, sse_l, PRED_RTOL)
    _close(grad_a, grad_l, GRAD_RTOL)
    assert grad_l[4] != 0.0
    assert nneg_ga == nneg_gl == nneg_l


@pytest.mark.parametrize("scale", [1.0, 40.0], ids=["softplus_mid", "softplus_tails"])
@pytest.mark.parametrize("n", ROWS)
def test_ham_kernels_match_the_loop(n, scale):
    """scale 40 drives the area net past +-30, into both softplus tails."""
    rng = np.random.default_rng(50 + n)
    x, xs = _choke_rows(rng, n)
    theta = np.concatenate([_mm_theta(rng)[:5], rng.standard_normal(NN_PARAMS) * 0.3])
    theta[-1] = 0.0
    theta[5:] *= np.where(np.arange(NN_PARAMS) >= NN_PARAMS - 33, scale, 1.0)
    yl, nneg_l = loop.ham_predict(theta, NN_WIDTHS, x, xs, GEOM)
    ya, nneg_a = kernels.ham_predict(theta, NN_WIDTHS, x, xs, GEOM)
    _close(ya, yl, PRED_RTOL)
    assert nneg_a == nneg_l

    y = yl * rng.uniform(0.8, 1.2, n) + 1.0
    sse_a, grad_a, nneg_ga = kernels.ham_loss_grad(theta, NN_WIDTHS, x, xs, GEOM, y, 2.5)
    sse_l, grad_l, nneg_gl = loop.ham_loss_grad(theta, NN_WIDTHS, x, xs, GEOM, y, 2.5)
    _close(sse_a, sse_l, PRED_RTOL)
    _close(grad_a, grad_l, GRAD_RTOL)
    assert nneg_ga == nneg_gl == nneg_l


def test_column_softplus_and_sigmoid_match_the_scalar_forms():
    z = np.concatenate([np.linspace(-800.0, 800.0, 4001), [-30.0, 30.0, 0.0, -0.0]])
    sp = np.array([loop._softplus(v) for v in z])
    sg = np.array([loop._sigmoid(v) for v in z])
    # the column forms must not overflow (underflow to 0 is what math.exp does)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        _close(kernels._softplus_cols(z), sp, PRED_RTOL)
        _close(kernels._sigmoid_cols(z), sg, PRED_RTOL)
