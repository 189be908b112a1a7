"""Array-form kernels against the frozen loop kernels: exact equality.

``tests/loop_kernels.py`` keeps the per-row and per-parameter loop versions
of the optimizer steps and of the LR, NN and MTL kernels.  The array forms in
``vfmlab.kernels`` keep every rounding step of those loops, so the checks
here use ``np.array_equal``, not a tolerance.
"""

import numpy as np
import pytest

import loop_kernels as loop
from vfmlab import StudyConfig, kernels
from vfmlab.models import D_INPUT, NetworkShape

NN_WIDTHS = np.array(NetworkShape(hidden=(32, 32)).widths(), dtype=np.int64)
NN_PARAMS = NetworkShape(hidden=(32, 32)).n_params()          # 1313
MTL = StudyConfig().mtl_params((1, 2, 3, 4, 5))
ROWS = (1, 64, 1024)


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
    out_a = kernels._nn_backprop(theta, off, NN_WIDTHS, xs, delta, g_a)
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
