"""Array- and column-form kernels against the frozen loop kernels.

``tests/loop_kernels.py`` keeps the per-row and per-parameter loop versions
of the optimizer steps and of the LR, NN, MTL, MM, HEM and HAM kernels.

* The optimizer steps and the LR, NN and MTL kernels keep every rounding
  step of those loops, so their checks use ``np.array_equal``.
  ``lr_predict`` keeps the forward of the loop ``lr_loss_grad``, not the
  ``np.dot`` sums of the loop ``lr_predict``, which it meets to 1e-12.
* Below ``kernels.COLUMN_ROWS`` rows the MM, HEM and HAM kernels run the
  loops' arithmetic on Python floats, so they are held to ``np.array_equal``
  there too, at every row count from 1 up.
* Their column forms keep the loops' order of operations, but numpy's
  ``power``, ``log``, ``exp`` and ``log1p`` may differ from libm by one unit
  in the last place, so they are held to 1e-10 relative for predictions and
  loss and 1e-9 for gradients, with equal clamp counts.

Row counts cover both sides of ``kernels.COLUMN_ROWS``, and the optimizer
steps run at the study's parameter counts.  The steps of one fit on Python
floats (``kernels.sgd_floats``, ``kernels.adam_floats``), which an
online-learning update of LR or MM takes with the prior's gradient term and
the finite check in the same pass, are held to the prior's ``add_grad`` and
the array steps bit for bit: over a random walk with active bounds and a
prior on some entries, and on signed-zero ties (where the frozen loop keeps
the value), NaN and overflow; they give None on a non-finite gradient
entry.  Stacked optimizer steps, at
one shared step index or at one per row, equal one step per fit.  The row
gradients of that update (``KindEntry.row_grad``) equal their kind's
loss-gradient kernel at one row, byte for byte, and their forward equals the
kind's ``predict`` at that row.
"""

import numpy as np
import pytest

import loop_kernels as loop
from vfmlab import StudyConfig, kernels
from vfmlab.models import (D_INPUT, KIND_TABLE, TRAINABLE_KINDS, ChokeGeometry, KernelPlan,
                           MechanisticParams, ModelKind, NetworkShape)

NN_WIDTHS = np.array(NetworkShape(hidden=(32, 32)).widths(), dtype=np.int64)
NN_PARAMS = NetworkShape(hidden=(32, 32)).n_params()          # 1313
MTL = StudyConfig().mtl_params((1, 2, 3, 4, 5))
# the study's parameter counts: MM, LR, NN, HAM, HEM and MTL
PARAM_COUNTS = [6, D_INPUT + 1, NN_PARAMS, 5 + NN_PARAMS, 6 + NN_PARAMS, MTL.n_params()]
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


def _as_floats(arrays):
    return [a.tolist() for a in arrays]


def _prior(rng, theta):
    """A prior on every third entry, from the second: (index, mean, std)
    arrays, and the per-entry list that kernels.sgd_floats and adam_floats
    take."""
    idx = np.arange(1, len(theta), 3)
    mean = theta[idx] + rng.standard_normal(len(idx))
    std = rng.uniform(0.1, 3.0, len(idx))
    per_entry = [None] * len(theta)
    for j, mu, sd in zip(idx.tolist(), mean.tolist(), std.tolist()):
        per_entry[j] = (mu, sd)
    return idx, mean, std, per_entry


def _with_prior(theta, grad, idx, mean, std):
    """grad plus the prior's gradient term, in optim._Prior.add_grad's
    operations."""
    grad = grad.copy()
    z = (theta[idx] - mean) / std
    grad[idx] += 2.0 * z / std
    return grad


@pytest.mark.parametrize("n", PARAM_COUNTS)
def test_adam_steps_equal_the_loop(n):
    """adam_step, and adam_floats on lists (the step of an online update of
    LR and MM, with the prior's term on every third entry), against the
    frozen loop on the gradient with the prior's term added: theta, m and v
    bit for bit."""
    rng = np.random.default_rng(n)
    theta = rng.standard_normal(n)
    lower, upper = _bounds(rng, theta)
    *prior, per_entry = _prior(rng, theta)
    m_a, v_a = np.zeros(n), np.zeros(n)
    m_l, v_l = np.zeros(n), np.zeros(n)
    th_a, th_l = theta.copy(), theta   # the array step writes into th_a
    th_f, m_f, v_f = _as_floats([theta, m_a, v_a])
    clamped = 0
    for k in range(1, 301):
        data = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        grad = _with_prior(th_a, data, *prior)
        gamma = 0.05 / np.sqrt(k)
        th_l = loop.adam_step(th_l, grad, m_l, v_l, k, gamma, 0.9, 0.999, 1e-8,
                              lower, upper)
        th_a = kernels.adam_step(th_a, grad, m_a, v_a, k, gamma, 0.9, 0.999, 1e-8,
                                 lower, upper)
        th_f, m_f, v_f = kernels.adam_floats(th_f, data.tolist(), per_entry, lower.tolist(),
                                             upper.tolist(), float(gamma), m_f, v_f,
                                             1.0 - 0.9 ** k, 1.0 - 0.999 ** k, 0.9, 0.999, 1e-8)
        assert np.array_equal(th_a, th_l), k
        assert np.array_equal(m_a, m_l), k   # m and v are updated in place
        assert np.array_equal(v_a, v_l), k
        for got, want in zip((th_f, m_f, v_f), (th_a, m_a, v_a)):
            assert np.array(got).tobytes() == want.tobytes(), k
        clamped += int(np.sum((th_a == lower) | (th_a == upper)))
    assert clamped > 0   # the bounds were active


def test_adam_forms_agree_on_ties_and_nan():
    """adam_floats and sgd_floats clip as np.maximum/np.minimum do: the
    bound on a tie, signed zeros included, and NaN through; an overflow
    gives the array steps' inf or NaN.  The frozen loop keeps val on a tie,
    so the float and array steps are held to each other here, sign bits
    included.  A non-finite gradient entry, or one that the prior's term
    makes non-finite, gives None.  The array Adam step also takes two fits
    at steps 1 and 3 in one call, with a k per row and a gamma_k column, as
    one call per fit."""
    # -0.0 ties 0.0, 0.0 ties -0.0, ties 2.5, overflow, below, above, free, NaN
    theta = np.array([-0.0, 0.0, 2.5, 1.0, 0.0, 0.0, 0.5, np.nan])
    grad = np.array([0.0, 0.0, 0.0, 1e308, 1.0, -1.0, 0.3, 0.3])
    m0 = np.array([0.0, 0.0, 0.0, 1e308, 0.0, 0.0, 0.1, 0.1])   # m / (1 - beta1) overflows
    lower = np.array([0.0, -np.inf, -np.inf, 0.0, -0.0, -np.inf, -np.inf, -np.inf])
    upper = np.array([np.inf, -0.0, 2.5, 2.0, np.inf, 0.0, np.inf, np.inf])
    lo, hi = lower.tolist(), upper.tolist()
    th_f, g_f, m_f = _as_floats([theta, grad, m0])
    none = [None] * len(theta)
    adam = (1.0 - 0.9, 1.0 - 0.999, 0.9, 0.999, 1e-8)
    with np.errstate(all="ignore"):
        m, v = m0.copy(), np.zeros(len(theta))
        # each array step writes into the theta it takes, so it takes a copy
        th = kernels.adam_step(theta.copy(), grad, m, v, 1, 0.1, 0.9, 0.999, 1e-8, lower,
                               upper)
        floats = kernels.adam_floats(th_f, g_f, none, lo, hi, 0.1, m_f, [0.0] * len(theta),
                                     *adam)
        for got, want in zip((th, m, v), floats):
            assert got.tobytes() == np.array(want).tobytes()
        # gamma_k 10 overflows theta - gamma_k * grad at 1e308, to -inf
        sg = kernels.sgd_step(theta.copy(), grad, 10.0, lower, upper)
        sg_f = kernels.sgd_floats(th_f, g_f, none, lo, hi, 10.0)
        assert sg.tobytes() == np.array(sg_f).tobytes()
        # a NaN or an infinite gradient entry, or a prior term that overflows
        for j, bad, pr in ((6, np.nan, None), (4, -np.inf, None), (6, 0.3, (-1e300, 1e-10))):
            g_bad, with_prior = list(g_f), list(none)
            g_bad[j], with_prior[j] = bad, pr
            assert kernels.adam_floats(th_f, g_bad, with_prior, lo, hi, 0.1, m_f,
                                       [0.0] * len(theta), *adam) is None, j
            assert kernels.sgd_floats(th_f, g_bad, with_prior, lo, hi, 0.1) is None, j

        ms, vs = np.stack([m0, m0]), np.zeros((2, len(theta)))
        stacked = kernels.adam_step(np.stack([theta, theta]), np.stack([grad, grad]), ms, vs,
                                    [1, 3], np.array([[0.1], [0.05]]), 0.9, 0.999, 1e-8,
                                    lower, upper)
        for i, (k, gamma) in enumerate(((1, 0.1), (3, 0.05))):
            m1, v1 = m0.copy(), np.zeros(len(theta))
            th1 = kernels.adam_step(theta.copy(), grad, m1, v1, k, gamma, 0.9, 0.999, 1e-8,
                                    lower, upper)
            for got, want in zip((stacked[i], ms[i], vs[i]), (th1, m1, v1)):
                assert got.tobytes() == want.tobytes(), k
    assert np.array_equal(th, [0.0, -0.0, 2.5, np.nan, -0.0, 0.0, th[6], np.nan],
                          equal_nan=True)
    assert list(np.signbit(th[[0, 1, 2, 4, 5]])) == [False, True, False, True, False]
    assert np.array_equal(sg, [0.0, -0.0, 2.5, 0.0, -0.0, 0.0, sg[6], np.nan], equal_nan=True)
    assert list(np.signbit(sg[[0, 1, 2, 3, 4, 5]])) == [False, True, False, False, True, False]


@pytest.mark.parametrize("n", [6, 7, NN_PARAMS, NN_PARAMS + 6, MTL.n_params()])
def test_sgd_steps_equal_the_loop(n):
    """sgd_step, and sgd_floats on lists (with the prior's term on every
    third entry), against the frozen loop on the gradient with the prior's
    term added."""
    rng = np.random.default_rng(100 + n)
    theta = rng.standard_normal(n)
    lower, upper = _bounds(rng, theta)
    *prior, per_entry = _prior(rng, theta)
    th_a, th_l = theta.copy(), theta   # the array step writes into th_a
    th_f = theta.tolist()
    clamped = 0
    for k in range(1, 51):
        data = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 1, n)
        grad = _with_prior(th_a, data, *prior)
        th_l = loop.sgd_step(th_l, grad, 0.5 / k, lower, upper)
        th_a = kernels.sgd_step(th_a, grad, 0.5 / k, lower, upper)
        th_f = kernels.sgd_floats(th_f, data.tolist(), per_entry, lower.tolist(),
                                  upper.tolist(), 0.5 / k)
        assert np.array_equal(th_a, th_l), k
        assert np.array(th_f).tobytes() == th_a.tobytes(), k
        clamped += int(np.sum((th_a == lower) | (th_a == upper)))
    assert clamped > 0


def _rows(rng, n):
    xs = rng.standard_normal((n, D_INPUT))
    y = rng.standard_normal(n)
    return xs, y


@pytest.mark.parametrize("n", ROWS)
def test_lr_predict_equals_the_loop(n):
    """lr_predict is the row forward of loop.lr_loss_grad, b + x0*w0 + ...
    added left to right, bit for bit; loop.lr_predict sums through np.dot,
    which rounds differently."""
    rng = np.random.default_rng(n)
    xs, _ = _rows(rng, n)
    theta = rng.standard_normal(D_INPUT + 1)
    w, b = theta[:D_INPUT], theta[D_INPUT]
    want = np.empty(n)
    for i in range(n):
        yh = b
        for j in range(D_INPUT):
            yh += xs[i, j] * w[j]
        want[i] = yh
    got = kernels.lr_predict(theta, xs)
    assert got.tobytes() == want.tobytes()
    np.testing.assert_allclose(got, loop.lr_predict(theta, xs), rtol=1e-12, atol=1e-12)


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
    net = kernels._nn_bind(theta, off, NN_WIDTHS, g_a)
    out_a, acts = kernels._nn_forward(net, xs)
    kernels._nn_backward(net, acts, delta)
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


# ----------------------------------- MM, HEM, HAM: exact loops, column tolerance

GEOM = ChokeGeometry().as_array()
MM_THETA = MechanisticParams().as_array()
PRED_RTOL = 1e-10
GRAD_RTOL = 1e-9
# every loop row count, plus column-form ones
CHOKE_ROWS = sorted(set(range(1, kernels.COLUMN_ROWS)) | set(ROWS))
# draws per row count: the short calls are cheap, and each draw puts other
# branches of the physics on the few rows there are
DRAWS = 4


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


def _mm_case(rng, n):
    """Rows, MM parameters and target noise of one draw."""
    x, xs = _choke_rows(rng, n)
    return x, xs, _mm_theta(rng), rng.uniform(0.8, 1.2, n)


def _hem_case(rng, n):
    """Rows, HEM parameters and target noise of one draw."""
    x, xs = _choke_rows(rng, n)
    theta = np.concatenate([_mm_theta(rng), rng.standard_normal(NN_PARAMS) * 0.3])
    return x, xs, theta, rng.uniform(0.8, 1.2, n)


def _close(got, want, rtol):
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


def _match(got, want, rtol, n):
    """Below COLUMN_ROWS the kernels run the loops' arithmetic on Python
    floats, bit for bit; the column forms are held to rtol."""
    if n < kernels.COLUMN_ROWS:
        assert np.array_equal(got, want)
    else:
        _close(got, want, rtol)


@pytest.mark.parametrize("n", CHOKE_ROWS)
def test_mm_kernels_match_the_loop(n):
    rng = np.random.default_rng(30 + n)
    for _ in range(DRAWS if n < kernels.COLUMN_ROWS else 1):
        x, _, theta, noise = _mm_case(rng, n)
        yl, nneg_l = loop.mm_predict(theta, x, GEOM)
        ya, nneg_a = kernels.mm_predict(theta, x, GEOM)
        _match(ya, yl, PRED_RTOL, n)
        assert nneg_a == nneg_l
        assert np.any(x[:, 2] / x[:, 1] < theta[4])   # a clamped pressure ratio
        assert nneg_l >= min(n - 1, 1)                 # a nonpositive radicand

        y = yl * noise + 1.0
        sse_a, grad_a, nneg_ga = kernels.mm_loss_grad(theta, x, GEOM, y, 2.5)
        sse_l, grad_l, nneg_gl = loop.mm_loss_grad(theta, x, GEOM, y, 2.5)
        _match(sse_a, sse_l, PRED_RTOL, n)
        _match(grad_a, grad_l, GRAD_RTOL, n)
        assert grad_l[4] != 0.0   # the p_cr derivative of clamped rows is live
        assert nneg_ga == nneg_gl == nneg_l


@pytest.mark.parametrize("n", CHOKE_ROWS)
def test_hem_kernels_match_the_loop(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(DRAWS if n < kernels.COLUMN_ROWS else 1):
        x, xs, theta, noise = _hem_case(rng, n)
        yl, nneg_l = loop.hem_predict(theta, NN_WIDTHS, x, xs, GEOM, 7.0)
        ya, nneg_a = kernels.hem_predict(theta, NN_WIDTHS, x, xs, GEOM, 7.0)
        _match(ya, yl, PRED_RTOL, n)
        assert nneg_a == nneg_l

        y = yl * noise + 1.0
        sse_a, grad_a, nneg_ga = kernels.hem_loss_grad(theta, NN_WIDTHS, x, xs, GEOM,
                                                       y, 2.5, 7.0)
        sse_l, grad_l, nneg_gl = loop.hem_loss_grad(theta, NN_WIDTHS, x, xs, GEOM,
                                                    y, 2.5, 7.0)
        _match(sse_a, sse_l, PRED_RTOL, n)
        _match(grad_a, grad_l, GRAD_RTOL, n)
        assert grad_l[4] != 0.0
        assert nneg_ga == nneg_gl == nneg_l


def _ham_loop_forward(theta, x, xs):
    """The loop HAM forward in ham_loss_grad's product order,
    (M3S*a2*r*vsc)*softplus(nn), the order kernels.ham_predict keeps so that
    a fit minimizes the loss of the predictions it logs; loop.ham_predict
    multiplies M3S*a2*softplus*r*vsc, which rounds differently."""
    nn_out = loop.nn_predict(theta, 5, NN_WIDTHS, xs)
    out = np.empty(len(x))
    for i in range(len(x)):
        r, vsc, _ = loop._mm_parts(*theta[:5], *x[i, 1:])
        out[i] = (loop.M3S_TO_SM3H * loop._area(x[i, 0], GEOM) * r * vsc) \
            * loop._softplus(nn_out[i])
    return out


def _ham_case(rng, n, scale):
    """Rows, HAM parameters and target noise of one draw; scale 40 drives the
    area net past +-30, into both softplus tails."""
    x, xs = _choke_rows(rng, n)
    theta = np.concatenate([_mm_theta(rng)[:5], rng.standard_normal(NN_PARAMS) * 0.3])
    theta[-1] = 0.0
    theta[5:] *= np.where(np.arange(NN_PARAMS) >= NN_PARAMS - 33, scale, 1.0)
    return x, xs, theta, rng.uniform(0.8, 1.2, n)


@pytest.mark.parametrize("scale", [1.0, 40.0], ids=["softplus_mid", "softplus_tails"])
@pytest.mark.parametrize("n", CHOKE_ROWS)
def test_ham_kernels_match_the_loop(n, scale):
    rng = np.random.default_rng(50 + n)
    for _ in range(DRAWS if n < kernels.COLUMN_ROWS else 1):
        x, xs, theta, noise = _ham_case(rng, n, scale)
        yl, nneg_l = loop.ham_predict(theta, NN_WIDTHS, x, xs, GEOM)
        ya, nneg_a = kernels.ham_predict(theta, NN_WIDTHS, x, xs, GEOM)
        _close(ya, yl, PRED_RTOL)
        _match(ya, _ham_loop_forward(theta, x, xs), PRED_RTOL, n)
        assert nneg_a == nneg_l

        y = yl * noise + 1.0
        sse_a, grad_a, nneg_ga = kernels.ham_loss_grad(theta, NN_WIDTHS, x, xs, GEOM, y, 2.5)
        sse_l, grad_l, nneg_gl = loop.ham_loss_grad(theta, NN_WIDTHS, x, xs, GEOM, y, 2.5)
        _match(sse_a, sse_l, PRED_RTOL, n)
        _match(grad_a, grad_l, GRAD_RTOL, n)
        assert nneg_ga == nneg_gl == nneg_l


# each choke kind's short draws as its test above takes them: the seed base,
# the draw and the loop predict that counts the clamped radicands
SHORT_DRAWS = {
    "mm": (30, _mm_case, lambda theta, x, xs: loop.mm_predict(theta, x, GEOM)),
    "hem": (40, _hem_case,
            lambda theta, x, xs: loop.hem_predict(theta, NN_WIDTHS, x, xs, GEOM, 7.0)),
    "ham": (50, lambda rng, n: _ham_case(rng, n, 40.0),
            lambda theta, x, xs: loop.ham_predict(theta, NN_WIDTHS, x, xs, GEOM)),
}


@pytest.mark.parametrize("kind", list(SHORT_DRAWS))
def test_the_short_draws_reach_every_branch(kind):
    """Over its short calls, each choke kind's test above (HAM's softplus_tails
    case) takes kernels._mm_row through a clamped and a free pressure ratio,
    a nonpositive radicand and a zero water fraction; HAM's also meet both
    softplus tails."""
    seed, case, predict = SHORT_DRAWS[kind]
    hits = dict.fromkeys(("clamped", "free", "radicand", "dry"), 0)
    if kind == "ham":
        hits.update(upper=0, lower=0)
    for n in range(1, kernels.COLUMN_ROWS):
        rng = np.random.default_rng(seed + n)
        for _ in range(DRAWS):
            x, xs, theta, _ = case(rng, n)
            ratio = x[:, 2] / x[:, 1]
            hits["clamped"] += np.sum(ratio < theta[4])
            hits["free"] += np.sum((ratio >= theta[4]) & (ratio < 1.0))
            hits["radicand"] += predict(theta, x, xs)[1]
            hits["dry"] += np.sum(x[:, 4] + x[:, 5] > 1.0)
            if kind == "ham":
                z = loop.nn_predict(theta, 5, NN_WIDTHS, xs)
                hits["upper"] += np.sum(z > 30.0)
                hits["lower"] += np.sum(z < -30.0)
    assert all(hits.values()), hits


ROW_GRAD_KINDS = [k.value.lower() for k in TRAINABLE_KINDS if KIND_TABLE[k].row_grad is not None]


@pytest.mark.parametrize("kind", ROW_GRAD_KINDS)
def test_a_row_gradient_equals_its_loss_kernel_at_one_row(kind):
    """KindEntry.row_grad, the online-learning update's gradient on Python
    floats, is its kind's loss-gradient kernel at one row: sse, gradient
    (signed zeros included) and clamp flag byte for byte; and its forward,
    from which the update takes the row's prediction, is KindEntry.predict
    at that row, byte for byte.  The rows are those of MM's short draws,
    one at a time, so they take kernels._mm_row through a clamped and a
    free pressure ratio, a nonpositive radicand and a zero water
    fraction."""
    entry = KIND_TABLE[ModelKind.from_str(kind)]
    plan = KernelPlan(ModelKind.from_str(kind), None, None, GEOM, None, entry=entry)
    seed, case, _ = SHORT_DRAWS["mm"]
    hits = dict.fromkeys(("clamped", "free", "radicand", "dry"), 0)
    for n in range(1, kernels.COLUMN_ROWS):
        rng = np.random.default_rng(seed + n)
        for _ in range(DRAWS):
            x, xs, mm_theta, noise = case(rng, n)
            y = loop.mm_predict(mm_theta, x, GEOM)[0] * noise + 1.0
            theta = rng.standard_normal(D_INPUT + 1) if kind == "lr" else mm_theta
            for i in range(n):
                rows = slice(i, i + 1)
                sse, grad, clamps = STACKED[kind](theta, x[rows], xs[rows], None, y[rows],
                                                  2.5, None)
                g = [0.0] * len(theta)
                row_sse, z, flag = entry.row_grad(theta.tolist(), x[i].tolist(),
                                                  xs[i].tolist(), GEOM.tolist(), float(y[i]),
                                                  2.5, g)
                assert np.float64(row_sse).tobytes() == np.float64(sse).tobytes(), (n, i)
                assert np.array(g).tobytes() == grad.tobytes(), (n, i)
                assert flag == clamps, (n, i)
                want_z, z_clamps = entry.predict(plan, theta, x[rows], xs[rows], None)
                assert np.array([z]).tobytes() == want_z.tobytes(), (n, i)
                assert z_clamps == flag, (n, i)
                ratio = x[i, 2] / x[i, 1]
                hits["clamped"] += ratio < mm_theta[4]
                hits["free"] += mm_theta[4] <= ratio < 1.0
                hits["radicand"] += loop.mm_predict(mm_theta, x[rows], GEOM)[1]
                hits["dry"] += x[i, 4] + x[i, 5] > 1.0
    assert all(hits.values()), hits


def test_column_softplus_and_sigmoid_match_the_scalar_forms():
    z = np.concatenate([np.linspace(-800.0, 800.0, 4001), [-30.0, 30.0, 0.0, -0.0]])
    sp = np.array([loop._softplus(v) for v in z])
    sg = np.array([loop._sigmoid(v) for v in z])
    # the column forms must not overflow (underflow to 0 is what math.exp does)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        _close(kernels._softplus_cols(z), sp, PRED_RTOL)
        _close(kernels._sigmoid_cols(z), sg, PRED_RTOL)


# ------------------------------------------- stacked fits against one-fit calls
#
# optim.fit_maps runs the mini-batches of several fits that fall due at one
# step as one call, stacked along a leading fit axis.  Each fit brings its own
# parameters, rows, scaled inputs, targets, inverse noise variance and (HEM)
# network scale; row i of every stacked result must equal that fit's own call
# bit for bit, and the stacked clamp count the sum of theirs.  Each kind's
# predict is its loss-gradient kernel's forward: the sse of the loss-gradient
# kernel is the squared error of predict, bit for bit, one fit or stacked, so
# a fit minimizes the loss of the predictions it logs.

FITS = 3
STACKED = {
    "lr": lambda th, x, xs, w, y, iv, ns: (*kernels.lr_loss_grad(th, xs, y, iv), 0),
    "nn": lambda th, x, xs, w, y, iv, ns: (*kernels.nn_loss_grad(th, 0, NN_WIDTHS, xs, y, iv),
                                           0),
    "mtl": lambda th, x, xs, w, y, iv, ns: (
        *kernels.mtl_loss_grad(th, MTL.dims(), xs, w, y, iv), 0),
    "mm": lambda th, x, xs, w, y, iv, ns: kernels.mm_loss_grad(th, x, GEOM, y, iv),
    "hem": lambda th, x, xs, w, y, iv, ns: kernels.hem_loss_grad(th, NN_WIDTHS, x, xs, GEOM,
                                                                 y, iv, ns),
    "ham": lambda th, x, xs, w, y, iv, ns: kernels.ham_loss_grad(th, NN_WIDTHS, x, xs, GEOM,
                                                                 y, iv),
}


PREDICT = {
    "lr": lambda th, x, xs, w, y, iv, ns: (kernels.lr_predict(th, xs), 0),
    "nn": lambda th, x, xs, w, y, iv, ns: (kernels.nn_predict(th, 0, NN_WIDTHS, xs), 0),
    "mtl": lambda th, x, xs, w, y, iv, ns: (kernels.mtl_predict(th, MTL.dims(), xs, w), 0),
    "mm": lambda th, x, xs, w, y, iv, ns: kernels.mm_predict(th, x, GEOM),
    "hem": lambda th, x, xs, w, y, iv, ns: kernels.hem_predict(th, NN_WIDTHS, x, xs, GEOM, ns),
    "ham": lambda th, x, xs, w, y, iv, ns: kernels.ham_predict(th, NN_WIDTHS, x, xs, GEOM),
}


def test_every_trainable_kind_is_covered():
    assert {k.value.lower() for k in TRAINABLE_KINDS} == set(STACKED) == set(PREDICT)


def _stacked_fit(rng, kind, n):
    x, xs = _choke_rows(rng, n)
    if kind == "lr":
        theta = rng.standard_normal(D_INPUT + 1)
    elif kind == "nn":
        theta = rng.standard_normal(NN_PARAMS) * 0.3
    elif kind == "mtl":
        theta = rng.standard_normal(MTL.n_params()) * 0.3
    elif kind == "mm":
        theta = _mm_theta(rng)
    elif kind == "hem":
        theta = np.concatenate([_mm_theta(rng), rng.standard_normal(NN_PARAMS) * 0.3])
    else:
        theta = _ham_case(rng, n, 40.0)[2]
    wells = rng.integers(0, MTL.n_tasks, n).astype(np.int64)   # repeats: scatter order
    y = rng.uniform(0.5, 2.0, n) * (100.0 if kind in ("mm", "hem", "ham") else 1.0)
    return theta, x, xs, wells, y, rng.uniform(0.5, 3.0), rng.uniform(2.0, 9.0)


def _stack(fits):
    """One call's arguments for fits of _stacked_fit: arrays stacked along a
    leading fit axis, inv_var and nn_scale as (R, 1) columns."""
    return (*(np.stack([f[c] for f in fits]) for c in range(5)),
            *(np.array([f[c] for f in fits])[:, None] for c in (5, 6)))


@pytest.mark.parametrize("n", sorted({kernels.COLUMN_ROWS, 64}))
@pytest.mark.parametrize("kind", sorted(STACKED))
def test_a_stacked_call_equals_one_call_per_fit(kind, n):
    rng = np.random.default_rng(60 + n + len(kind))
    fits = [_stacked_fit(rng, kind, n) for _ in range(FITS)]
    args = _stack(fits)
    sse, grad, clamps = STACKED[kind](*args)
    assert sse.shape == (FITS,) and grad.shape == args[0].shape
    want_clamps = 0
    for i, fit in enumerate(fits):
        sse_i, grad_i, clamps_i = STACKED[kind](*fit)
        assert sse[i].tobytes() == np.float64(sse_i).tobytes(), i
        assert grad[i].tobytes() == grad_i.tobytes(), i
        want_clamps += clamps_i
    assert clamps == want_clamps
    if kind in ("mm", "hem", "ham"):
        assert want_clamps > 0    # a clamped radicand in the stack


@pytest.mark.parametrize("n", sorted({1, kernels.COLUMN_ROWS - 1, kernels.COLUMN_ROWS, 64}))
@pytest.mark.parametrize("kind", sorted(PREDICT))
def test_predict_is_the_loss_kernels_forward(kind, n):
    """The loss-gradient kernel's sse is kernels._sse of predict, bit for bit,
    on both sides of COLUMN_ROWS, clamp counts equal."""
    rng = np.random.default_rng(90 + n + len(kind))
    for _ in range(DRAWS if n < kernels.COLUMN_ROWS else 1):
        fit = _stacked_fit(rng, kind, n)
        sse, _, clamps = STACKED[kind](*fit)
        z, z_clamps = PREDICT[kind](*fit)
        y, inv_var = fit[4:6]
        assert np.float64(sse).tobytes() == np.float64(kernels._sse(y, z, inv_var)).tobytes()
        assert clamps == z_clamps


@pytest.mark.parametrize("kind", sorted(STACKED))
def test_every_loss_kernel_takes_zero_rows(kind):
    """An empty batch gives sse 0.0, a zero gradient and no clamps, and its
    loss alone (kernels._sse of predict) is 0.0 too: for one fit of every
    kind, and for a stack of the kinds that stack at any row count (the
    choke kinds stack from COLUMN_ROWS rows up)."""
    rng = np.random.default_rng(99 + len(kind))
    fits = []
    for _ in range(FITS):
        theta, x, xs, wells, y, inv_var, nn_scale = _stacked_fit(rng, kind, 1)
        fits.append((theta, x[:0], xs[:0], wells[:0], y[:0], inv_var, nn_scale))
    calls = [fits[0]] + ([_stack(fits)] if kind in ("lr", "nn", "mtl") else [])
    for args in calls:
        sse, grad, clamps = STACKED[kind](*args)
        assert np.shape(sse) == args[0].shape[:-1] and not np.any(sse)
        assert grad.shape == args[0].shape and not grad.any()
        assert clamps == 0
        z, z_clamps = PREDICT[kind](*args)
        assert z.size == 0 and z_clamps == 0
        assert not np.any(kernels._sse(args[4], z, args[5]))


@pytest.mark.parametrize("n", sorted({kernels.COLUMN_ROWS, 64}))
@pytest.mark.parametrize("kind", sorted(PREDICT))
def test_a_stacked_predict_equals_one_predict_per_fit(kind, n):
    rng = np.random.default_rng(95 + n + len(kind))
    fits = [_stacked_fit(rng, kind, n) for _ in range(FITS)]
    z, clamps = PREDICT[kind](*_stack(fits))
    assert z.shape == (FITS, n)
    want_clamps = 0
    for i, fit in enumerate(fits):
        z_i, clamps_i = PREDICT[kind](*fit)
        assert z[i].tobytes() == z_i.tobytes(), i
        want_clamps += clamps_i
    assert clamps == want_clamps


@pytest.mark.parametrize("fits, n", [(2, 6), (FITS, D_INPUT + 1), (FITS, NN_PARAMS)])
def test_a_stacked_adam_step_equals_one_step_per_fit(fits, n):
    """A stack of fits, at MM's, LR's and NN's parameter counts, takes the
    array step, which rounds as one step per fit does.  The fits step at one
    shared k, then at a k of their own (given as a list, with gamma_k, a
    power schedule's, as an (R, 1) column); sgd_step takes the same
    gamma_k."""
    rng = np.random.default_rng(70 + n)
    for start in ([1] * fits, [1, 6, 41][:fits]):
        theta = rng.standard_normal((fits, n))
        lower, upper = _bounds(rng, theta[0])
        m, v = np.zeros((fits, n)), np.zeros((fits, n))
        m1, v1 = m.copy(), v.copy()
        th, th1 = theta, theta.copy()
        sg, sg1 = theta.copy(), theta.copy()   # adam_step writes into theta
        per_row = len(set(start)) > 1
        for step in range(50):
            ks = [s + step for s in start]
            gammas = [0.05 / k ** 0.5 for k in ks]
            k, gamma = (ks, np.array(gammas)[:, None]) if per_row else (ks[0], gammas[0])
            grad = rng.standard_normal((fits, n)) * 10.0 ** rng.uniform(-3, 3, (fits, n))
            th = kernels.adam_step(th, grad, m, v, k, gamma, 0.9, 0.999, 1e-8, lower, upper)
            th1 = np.stack([kernels.adam_step(th1[i], grad[i], m1[i], v1[i], ks[i], gammas[i],
                                              0.9, 0.999, 1e-8, lower, upper)
                            for i in range(fits)])
            assert th.tobytes() == th1.tobytes(), k
            assert m.tobytes() == m1.tobytes() and v.tobytes() == v1.tobytes(), k
            sg = kernels.sgd_step(sg, grad, gamma, lower, upper)
            sg1 = np.stack([kernels.sgd_step(sg1[i], grad[i], gammas[i], lower, upper)
                            for i in range(fits)])
            assert sg.tobytes() == sg1.tobytes(), k


# ------------------------------------------------------ the backward's ReLU mask
#
# The network backward masks each fresh gradient product by its layer's ReLU:
# kernels._relu_mask multiplies the product's bits, as int64, by a > 0 in
# place, for np.where(a > 0.0, d, 0.0) without a branch per element.

NAN_BITS = np.array([0x7FF8000000000001, 0x7FF00000000ABCDE, 0xFFF8000000000123],
                    dtype=np.uint64).view(np.float64)   # three payloads, one sign set
# +0.0, -0.0, NaN, two subnormals, positive and negative values
MASK_A = np.array([0.0, -0.0, np.nan, 5e-324, 1e-310, 2.0, -3.0])
MASK_D = np.array([-0.0, np.inf, -np.inf, *NAN_BITS, -1.5, 0.25])


@pytest.mark.parametrize("shape", [(1, 32), (64, 32), (3, 64, 32)])
def test_the_relu_mask_equals_np_where_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape)
    d = rng.standard_normal(shape)
    # the lengths are coprime, so 56 entries meet every pair; (1, 32) has 32
    i = np.arange(min(a.size, len(MASK_A) * len(MASK_D)))
    a.flat[i] = MASK_A[i % len(MASK_A)]
    d.flat[i] = MASK_D[i % len(MASK_D)]
    want = np.where(a > 0.0, d, 0.0)
    got = d.copy()
    assert kernels._relu_mask(got, a) is got   # in place, on the array it is given
    assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()
    kept = a > 0.0
    assert np.isnan(got[kept]).any() and not np.signbit(got[~kept]).any()


@pytest.mark.parametrize("kind", ["nn", "hem", "ham", "mtl"])
def test_no_kernel_writes_into_its_arguments(kind):
    """The kernels write in place only on arrays they have just made: after
    one-fit calls (both sides of COLUMN_ROWS) and a stacked call, theta, X,
    Xs, y and the task columns are as they were."""
    rng = np.random.default_rng(80 + len(kind))
    fits = [_stacked_fit(rng, kind, n) for n in (1, 64)]
    stack = [_stacked_fit(rng, kind, 64) for _ in range(FITS)]
    calls = [*fits, _stack(stack)]
    for args in calls:
        before = [a.tobytes() for a in args[:5]]
        STACKED[kind](*args)
        assert [a.tobytes() for a in args[:5]] == before
