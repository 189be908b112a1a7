"""Numeric kernels: batch forwards and analytic loss gradients per model kind.

Every function here is plain Python over numpy and ``math``: float64 arrays,
int64 index arrays and Python floats.  Nothing is compiled.

Calls come in two sizes: one row (each online-learning prediction and step)
and batches (mini-batches, validation sets and ``run_pbl``'s per-period
predictions).  The kernels serve both:

* array form at every size: ``sgd_step``, ``lr_predict``, the network's
  forward and backward passes (``_nn_forward``, ``_nn_backward``), the
  squared-error residuals (``_residuals``) and all of MTL;
* column form for calls of at least ``COLUMN_ROWS`` rows and a loop below
  that: ``lr_loss_grad`` and the MM/HEM/HAM physics (``_mm_cols`` against
  ``_mm_parts``/``_mm_parts_grad``);
* array form for parameter vectors of at least ``ADAM_LOOP_PARAMS`` entries
  and a loop below that: ``adam_step`` (LR's 7 and MM's 6 parameters take
  the loop).

The loops run on Python floats: a call converts its arrays once with
``tolist()`` and writes its result back once.  The rounding is the same as on
numpy scalars, so the loops keep their bits; what differs is division by
zero, where Python raises ``ZeroDivisionError`` and numpy gives inf or NaN.
The choke equation divides by p1, T1, the gas densities and kappa - 1, and
Adam by its bias corrections and by sqrt(vhat) + eps, so these are checked
before a loop runs:

* rows: ``models.check_inputs`` refuses a nonpositive or infinite p1, p2 or
  T1 (an infinite T1 makes the gas density zero) with ``NumericError``, once
  per call or unit in ``models.predict``, ``optim.fit_map``,
  ``learning.run_ol`` and ``learning.run_pbl``; ``synth.generate_stream``
  refuses a nonpositive pressure or temperature of its own rows;
* parameters: ``models.MechanisticParams`` requires kappa > 1 and positive
  densities and gas molar mass, for a scenario's true parameters, its events
  and ramp ends and the prior means a model starts at, and the optimizers
  clip kappa into its ``HARD_BOUNDS``, above 1, after every step;
* Adam: ``optim.OptimizerConfig`` requires ``adam_beta1`` and ``adam_beta2``
  in [0, 1) and a positive ``adam_eps``, and ``optimizer_step`` a step
  index k >= 1.

Exactness, checked against the loop versions frozen in
``tests/loop_kernels.py`` by ``tests/test_kernel_oracle.py`` on both sides of
``COLUMN_ROWS`` and ``ADAM_LOOP_PARAMS``:

* the optimizer steps (both forms of ``adam_step``; the oracle's clip keeps
  ``val`` on a tie, so signed-zero ties are held to the array form instead),
  the LR, NN and MTL kernels and the MM/HEM/HAM loops below
  ``COLUMN_ROWS`` are bit-identical to the oracle (``ham_predict`` to
  its forward in ``ham_loss_grad``'s product order, which it shares so that a
  fit minimizes the loss of the predictions it logs).  Sums over rows keep
  the loops' order: a cumulative sum along the summed axis adds one term at
  a time, and its last entry is the sum (``_row_sum``, ``_affine_cols``);
  ``np.add.at`` applies rows in index order;
* the MM/HEM/HAM column forms go through the loops' arithmetic in the loops'
  order, but numpy's SIMD ``power``, ``log``, ``exp`` and ``log1p`` differ
  from libm by one unit in the last place on a few percent of inputs
  (``sqrt`` never does), so they are held to 1e-10 relative for predictions
  and loss and 1e-9 for gradients, with equal clamp counts.

Two details that look removable are part of the arithmetic under the first
rule:

* the ``np.ascontiguousarray(a.T)`` copies before ``np.dot`` choose the BLAS
  path, and a transposed view rounds differently;
* the placeholder first entries of ``_mtl_forward``'s ``h1s``/``a1s`` lists
  are part of its result, whose list lengths the oracle compares.

Shared conventions:

* ``theta`` is the flat float64 parameter vector of the owning ParameterSet.
* Weight matrices are stored input-major, shape (fan_in, fan_out), so batch
  forwards are plain ``X @ W + b`` on contiguous views of ``theta``.
* ``widths`` is the full layer-width vector of an MLP including input and
  output, e.g. (6, 32, 32, 1).
* ``X`` carries raw physical inputs (mechanistic terms), ``Xs`` standardized
  inputs (all neural-network terms).
* ``*_loss_grad`` kernels return the data term of the MAP objective,
  ``sse = sum((y_i - yhat_i)^2) * inv_var``, and its gradient w.r.t. theta.
  They run the network forward once: ``_nn_forward`` keeps the activations
  that ``_nn_backward`` consumes.  Prior terms are added outside (they are
  kind-independent).
* Mechanistic kernels return a count of rows whose radicand went nonpositive
  (flow clamped to zero there, gradient zero: the clamp is flat).

Mechanistic model parameter order: (rho_oil, rho_wat, kappa, M_gas, p_cr, C_D)
for MM/HEM; HAM drops C_D and keeps the first five.  ``geom`` is the choke
area description (A_max, c1, c2, c3): A2(u) = A_max*(c1*u + c2*u^2 + c3*u^3).
"""

from __future__ import annotations

import math

import numpy as np


GAS_R = 8.31446          # J/(mol K)
P_SC = 1.01325e5         # Pa, standard conditions
T_SC = 288.15            # K
M3S_TO_SM3H = 3600.0     # the radical yields m3/s at standard conditions

# Calls with at least this many rows take the column form, shorter ones the
# loop.  The measured crossovers lie higher (tools/adam_crossover.py), but a
# loop rounds MM, HEM and HAM differently from the column form, so moving
# this waits for a behaviour gate with stated tolerances.
COLUMN_ROWS = 8

# Parameter vectors shorter than this take adam_step's loop on Python floats,
# longer ones its array form; the two round alike, so the value (the measured
# crossover, tools/adam_crossover.py) changes no result.
ADAM_LOOP_PARAMS = 16


# ------------------------------------------------------------------ helpers


def _softplus(z):
    if z > 30.0:
        return z
    if z < -30.0:
        return math.exp(z)
    return math.log1p(math.exp(z))


def _sigmoid(z):
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _softplus_cols(z):
    e = np.exp(np.minimum(z, 30.0))
    return np.where(z > 30.0, z, np.where(z < -30.0, e, np.log1p(e)))


def _sigmoid_cols(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _row_sum(a):
    """Sum over axis 0, adding rows in order as the loops do."""
    return np.cumsum(a, axis=0)[-1]


def _affine_cols(b, a, w):
    """b + a[:, 0]*w[0] + a[:, 1]*w[1] + ... per row, added left to right as
    the loops do."""
    terms = np.empty((a.shape[0], a.shape[1] + 1))
    terms[:, 0] = b
    np.multiply(a, w, out=terms[:, 1:])
    return np.cumsum(terms, axis=1)[:, -1].copy()


def _area(u, geom):
    return geom[0] * (geom[1] * u + geom[2] * u * u + geom[3] * u * u * u)


def _residuals(y, yhat, inv_var):
    """(sse, delta) of the squared-error data term: sse sums
    (y_i - yhat_i)^2 * inv_var over rows in order, delta_i = -2 * resid_i * inv_var.
    """
    resid = y - yhat
    return _row_sum(resid * resid * inv_var), -2.0 * resid * inv_var


def _sse(y, yhat, inv_var):
    """The sse of _residuals alone."""
    resid = y - yhat
    return _row_sum(resid * resid * inv_var)


def _mm_parts(ro, rw, kp, mg, pcr, p1, p2, t1, eo, eg):
    """Radical and standard-conditions specific volume of the choke equation.

    Returns (r, vsc, neg) with r = sqrt(S) for radicand S (0 when S <= 0,
    neg = 1 then) and vsc = 1/rho_SC.
    """
    ew = 1.0 - eo - eg
    if ew < 0.0:
        ew = 0.0
    pr = p2 / p1
    if pr < pcr:
        pr = pcr

    rg1 = p1 * mg / (GAS_R * t1)
    rg2 = rg1 * pr ** (1.0 / kp)
    vo = eo / ro
    vw = ew / rw
    v2 = eg / rg2 + vo + vw
    rho2 = 1.0 / v2

    rgsc = P_SC * mg / (GAS_R * T_SC)
    vsc = eg / rgsc + vo + vw

    ck = kp / (kp - 1.0)
    g = ck * eg * (1.0 / rg1 - pr / rg2) + (vo + vw) * (1.0 - pr)
    s = 2.0 * rho2 * rho2 * p1 * g
    if s <= 0.0:
        return 0.0, vsc, 1
    return math.sqrt(s), vsc, 0


def _mm_parts_grad(ro, rw, kp, mg, pcr, p1, p2, t1, eo, eg):
    """Like _mm_parts but also return d(r)/dp and d(vsc)/dp for the five
    non-C_D mechanistic parameters, order (rho_oil, rho_wat, kappa, M_gas, p_cr),
    as lists.

    At a clamped radicand (S <= 0) all derivatives of r are zero: the output
    is constant there.
    """
    ew = 1.0 - eo - eg
    if ew < 0.0:
        ew = 0.0
    pr_raw = p2 / p1
    clamped = pr_raw < pcr
    pr = pcr if clamped else pr_raw

    rg1 = p1 * mg / (GAS_R * t1)
    e = pr ** (1.0 / kp)
    rg2 = rg1 * e
    vo = eo / ro
    vw = ew / rw
    v2 = eg / rg2 + vo + vw
    rho2 = 1.0 / v2

    rgsc = P_SC * mg / (GAS_R * T_SC)
    vsc = eg / rgsc + vo + vw
    dvo = -eo / (ro * ro)
    dvw = -ew / (rw * rw)
    dvsc = [dvo, dvw, 0.0, -eg / (rgsc * mg), 0.0]

    ck = kp / (kp - 1.0)
    tg = ck * eg * (1.0 / rg1 - pr / rg2)
    tl = (vo + vw) * (1.0 - pr)
    g = tg + tl
    s = 2.0 * rho2 * rho2 * p1 * g
    if s <= 0.0:
        return 0.0, vsc, [0.0] * 5, dvsc, 1
    r = math.sqrt(s)

    # rho_gas,2 sensitivities
    drg2_k = -rg2 * math.log(pr) / (kp * kp)
    drg2_m = rg2 / mg
    drg2_pc = rg2 / (kp * pr) if clamped else 0.0

    # throat mixture density via v2
    inv_rg2sq = eg / (rg2 * rg2)
    dv2 = (dvo, dvw, -inv_rg2sq * drg2_k, -inv_rg2sq * drg2_m, -inv_rg2sq * drg2_pc)
    # drho2/dp = -rho2^2 * dv2/dp

    # radical inner term G
    dck = -1.0 / ((kp - 1.0) * (kp - 1.0))
    dg = (-(eo / (ro * ro)) * (1.0 - pr),
          -(ew / (rw * rw)) * (1.0 - pr),
          dck * eg * (1.0 / rg1 - pr / rg2) + ck * eg * (pr / (rg2 * rg2)) * drg2_k,
          -tg / mg,
          -eg / rg2 - (vo + vw) if clamped else 0.0)

    # ds = 2*p1*(2*rho2*drho2*g + rho2^2*dg), dr = ds/(2r), each product
    # grouped left to right as written
    nrr = -rho2 * rho2
    rr = rho2 * rho2
    two_rho2 = 2.0 * rho2
    two_p1 = 2.0 * p1
    two_r = 2.0 * r
    dr = [two_p1 * (two_rho2 * (nrr * dv) * g + rr * dgi) / two_r for dv, dgi in zip(dv2, dg)]
    return r, vsc, dr, dvsc, 0


def _mm_cols(theta, x, grad):
    """_mm_parts (grad False) or _mm_parts_grad (grad True) over every row of x.

    Returns (r, vsc, neg) or (r, vsc, neg, dr, dvsc): columns of length n, a
    boolean neg and derivatives of shape (n, 5).  Each row goes through the
    loop's operations in the loop's order.
    """
    ro, rw, kp, mg, pcr = theta[:5].tolist()
    p1, p2, t1, eo, eg = x[:, 1], x[:, 2], x[:, 3], x[:, 4], x[:, 5]
    ew = 1.0 - eo - eg
    ew = np.where(ew < 0.0, 0.0, ew)
    pr_raw = p2 / p1
    clamped = pr_raw < pcr
    pr = np.where(clamped, pcr, pr_raw)

    rg1 = p1 * mg / (GAS_R * t1)
    rg2 = rg1 * pr ** (1.0 / kp)
    vo = eo / ro
    vw = ew / rw
    v2 = eg / rg2 + vo + vw
    rho2 = 1.0 / v2

    rgsc = P_SC * mg / (GAS_R * T_SC)
    vsc = eg / rgsc + vo + vw

    ck = kp / (kp - 1.0)
    tg = ck * eg * (1.0 / rg1 - pr / rg2)
    g = tg + (vo + vw) * (1.0 - pr)
    s = 2.0 * rho2 * rho2 * p1 * g
    neg = s <= 0.0
    r = np.sqrt(np.where(neg, 0.0, s))
    if not grad:
        return r, vsc, neg

    n = x.shape[0]
    dvsc = np.zeros((n, 5))
    dvsc[:, 0] = -eo / (ro * ro)
    dvsc[:, 1] = -ew / (rw * rw)
    dvsc[:, 3] = -eg / (rgsc * mg)

    drg2_k = -rg2 * np.log(pr) / (kp * kp)
    drg2_m = rg2 / mg
    drg2_pc = np.where(clamped, rg2 / (kp * pr), 0.0)

    inv_rg2sq = eg / (rg2 * rg2)
    dv2 = np.empty((n, 5))
    dv2[:, 0] = dvsc[:, 0]
    dv2[:, 1] = dvsc[:, 1]
    dv2[:, 2] = -inv_rg2sq * drg2_k
    dv2[:, 3] = -inv_rg2sq * drg2_m
    dv2[:, 4] = -inv_rg2sq * drg2_pc

    dg = np.empty((n, 5))
    dg[:, 0] = -(eo / (ro * ro)) * (1.0 - pr)
    dg[:, 1] = -(ew / (rw * rw)) * (1.0 - pr)
    dck = -1.0 / ((kp - 1.0) * (kp - 1.0))
    dg[:, 2] = dck * eg * (1.0 / rg1 - pr / rg2) + ck * eg * (pr / (rg2 * rg2)) * drg2_k
    dg[:, 3] = -tg / mg
    dg[:, 4] = np.where(clamped, -eg / rg2 - (vo + vw), 0.0)

    rho2 = rho2[:, None]
    drho2 = -rho2 * rho2 * dv2
    ds = 2.0 * p1[:, None] * (2.0 * rho2 * drho2 * g[:, None] + rho2 * rho2 * dg)
    # clamped rows divide by 1 instead of 0; their derivatives are zeroed
    dr = np.where(neg[:, None], 0.0, ds / (2.0 * np.where(neg, 1.0, r))[:, None])
    return r, vsc, neg, dr, dvsc


# ----------------------------------------------------------------- benchmark
# (no kernel: the previous-value predictor is bookkeeping, handled in python)


# ------------------------------------------------------------------------ LR


def lr_predict(theta, xs):
    d = xs.shape[1]
    w = theta[:d]
    b = theta[d]
    yhat = np.dot(xs, w)
    yhat += b
    return yhat


def lr_loss_grad(theta, xs, y, inv_var):
    n, d = xs.shape
    grad = np.zeros(theta.shape[0])
    if n >= COLUMN_ROWS:
        sse, c = _residuals(y, _affine_cols(theta[d], xs, theta[:d]), inv_var)
        grad[:d] += _row_sum(c[:, None] * xs)
        grad[d] += _row_sum(c)
        return sse, grad
    *w, b = theta[:d + 1].tolist()
    inv_var = float(inv_var)
    g = [0.0] * (d + 1)
    sse = 0.0
    for xi, yi in zip(xs.tolist(), y.tolist()):
        yh = b
        for j in range(d):
            yh += xi[j] * w[j]
        resid = yi - yh
        sse += resid * resid * inv_var
        c = -2.0 * resid * inv_var
        for j in range(d):
            g[j] += c * xi[j]
        g[d] += c
    grad[:d + 1] = g
    return sse, grad


def lr_loss(theta, xs, y, inv_var):
    """lr_loss_grad's sse without the gradient: the loop below COLUMN_ROWS,
    and the column form's row sums above it (lr_predict's np.dot sums
    differently)."""
    if xs.shape[0] < COLUMN_ROWS:
        return lr_loss_grad(theta, xs, y, inv_var)[0]
    d = xs.shape[1]
    return _sse(y, _affine_cols(theta[d], xs, theta[:d]), inv_var)


# ------------------------------------------------------------------------ NN


def nn_predict(theta, off, widths, xs):
    return _nn_forward(theta, off, widths, xs)[0]


def _nn_forward(theta, off, widths, xs):
    """(outputs, activations): the activations (xs, then each layer's output)
    are what _nn_backward needs."""
    nl = widths.shape[0] - 1
    acts = [xs]
    h = xs
    pos = off
    for layer in range(nl):
        fi = widths[layer]
        fo = widths[layer + 1]
        w = theta[pos:pos + fi * fo].reshape(fi, fo)
        pos += fi * fo
        b = theta[pos:pos + fo]
        pos += fo
        z = np.dot(h, w) + b
        if layer < nl - 1:
            z = np.maximum(z, 0.0)
        acts.append(z)
        h = z
    return h[:, 0].copy(), acts


def _nn_backward(theta, off, widths, acts, delta, grad):
    """Accumulate d(sum_i delta_i * nn_i)/dtheta into grad[off:...], given
    the activations of _nn_forward at the same theta."""
    n = delta.shape[0]
    nl = widths.shape[0] - 1
    pos = off + sum(fi * fo + fo for fi, fo in zip(widths[:-1].tolist(), widths[1:].tolist()))
    d = delta.reshape(n, 1).copy()
    ones = np.ones(n)
    # walk offsets backwards
    for layer in range(nl - 1, -1, -1):
        fi = widths[layer]
        fo = widths[layer + 1]
        pos -= fo          # bias block
        bpos = pos
        pos -= fi * fo     # weight block
        wpos = pos
        w = theta[wpos:wpos + fi * fo].reshape(fi, fo)
        a_prev = acts[layer]
        dw = np.dot(np.ascontiguousarray(a_prev.T), d)
        grad[wpos:wpos + fi * fo] += dw.ravel()
        grad[bpos:bpos + fo] += np.dot(ones, d)
        if layer > 0:
            d = np.dot(d, np.ascontiguousarray(w.T))
            d = np.where(a_prev > 0.0, d, 0.0)


def nn_loss_grad(theta, off, widths, xs, y, inv_var):
    yhat, acts = _nn_forward(theta, off, widths, xs)
    sse, delta = _residuals(y, yhat, inv_var)
    grad = np.zeros(theta.shape[0])
    _nn_backward(theta, off, widths, acts, delta, grad)
    return sse, grad


# ------------------------------------------------------------------------ MM


def mm_predict(theta, x, geom):
    n = x.shape[0]
    if n >= COLUMN_ROWS:
        r, vsc, neg = _mm_cols(theta, x, False)
        yhat = M3S_TO_SM3H * theta[5] * _area(x[:, 0], geom) * r * vsc
        return yhat, int(np.count_nonzero(neg))
    ro, rw, kp, mg, pcr, cd = theta[:6].tolist()
    geom = geom.tolist()
    yhat = []
    nneg = 0
    for xi in x.tolist():
        r, vsc, neg = _mm_parts(ro, rw, kp, mg, pcr, xi[1], xi[2], xi[3], xi[4], xi[5])
        nneg += neg
        yhat.append(M3S_TO_SM3H * cd * _area(xi[0], geom) * r * vsc)
    return np.array(yhat, dtype=np.float64), nneg


def _mm_grad_cols(cd, a2, delta, r, vsc, dr, dvsc, grad):
    """Add sum_i delta_i * d(mm_i)/dtheta[:6] to grad, rows in order."""
    base = M3S_TO_SM3H * cd * a2
    terms = np.empty((a2.shape[0], 6))
    terms[:, :5] = (delta * base)[:, None] * (dr * vsc[:, None] + r[:, None] * dvsc)
    terms[:, 5] = delta * M3S_TO_SM3H * a2 * r * vsc
    grad[:6] += _row_sum(terms)


def mm_loss_grad(theta, x, geom, y, inv_var):
    n = x.shape[0]
    grad = np.zeros(theta.shape[0])
    if n >= COLUMN_ROWS:
        r, vsc, neg, dr, dvsc = _mm_cols(theta, x, True)
        a2 = _area(x[:, 0], geom)
        sse, c = _residuals(y, M3S_TO_SM3H * theta[5] * a2 * r * vsc, inv_var)
        _mm_grad_cols(theta[5], a2, c, r, vsc, dr, dvsc, grad)
        return sse, grad, int(np.count_nonzero(neg))
    ro, rw, kp, mg, pcr, cd = theta[:6].tolist()
    geom = geom.tolist()
    inv_var = float(inv_var)
    g = [0.0] * 6
    sse = 0.0
    nneg = 0
    for xi, yi in zip(x.tolist(), y.tolist()):
        r, vsc, dr, dvsc, neg = _mm_parts_grad(ro, rw, kp, mg, pcr,
                                               xi[1], xi[2], xi[3], xi[4], xi[5])
        nneg += neg
        a2 = _area(xi[0], geom)
        base = M3S_TO_SM3H * cd * a2
        yh = base * r * vsc
        resid = yi - yh
        sse += resid * resid * inv_var
        c = -2.0 * resid * inv_var
        for j in range(5):
            g[j] += c * base * (dr[j] * vsc + r * dvsc[j])
        g[5] += c * M3S_TO_SM3H * a2 * r * vsc
    grad[:6] = g
    return sse, grad, nneg


# ----------------------------------------------------------------------- HEM


def hem_predict(theta, widths, x, xs, geom, nn_scale):
    ymm, nneg = mm_predict(theta, x, geom)
    ynn = nn_predict(theta, 6, widths, xs)
    return ymm + nn_scale * ynn, nneg


def hem_loss_grad(theta, widths, x, xs, geom, y, inv_var, nn_scale):
    n = x.shape[0]
    if n >= COLUMN_ROWS:
        r, vsc, neg, dr, dvsc = _mm_cols(theta, x, True)
        a2 = _area(x[:, 0], geom)
        ymm = M3S_TO_SM3H * theta[5] * a2 * r * vsc
        ynn, acts = _nn_forward(theta, 6, widths, xs)
        sse, delta = _residuals(y, ymm + nn_scale * ynn, inv_var)
        grad = np.zeros(theta.shape[0])
        _nn_backward(theta, 6, widths, acts, delta * nn_scale, grad)
        _mm_grad_cols(theta[5], a2, delta, r, vsc, dr, dvsc, grad)
        return sse, grad, int(np.count_nonzero(neg))
    # one physics pass: mm_predict's flow of a row is base * r * vsc, the
    # same operations on the same r and vsc
    ro, rw, kp, mg, pcr, cd = theta[:6].tolist()
    geom = geom.tolist()
    rows = []
    ymm = []
    nneg = 0
    for xi in x.tolist():
        r, vsc, dr, dvsc, neg = _mm_parts_grad(ro, rw, kp, mg, pcr,
                                               xi[1], xi[2], xi[3], xi[4], xi[5])
        nneg += neg
        a2 = _area(xi[0], geom)
        base = M3S_TO_SM3H * cd * a2
        ymm.append(base * r * vsc)
        rows.append((a2, base, r, vsc, dr, dvsc))
    ynn, acts = _nn_forward(theta, 6, widths, xs)
    sse, delta = _residuals(y, np.array(ymm, dtype=np.float64) + nn_scale * ynn, inv_var)
    grad = np.zeros(theta.shape[0])
    _nn_backward(theta, 6, widths, acts, delta * nn_scale, grad)
    g = [0.0] * 6
    for di, (a2, base, r, vsc, dr, dvsc) in zip(delta.tolist(), rows):
        for j in range(5):
            g[j] += di * base * (dr[j] * vsc + r * dvsc[j])
        g[5] += di * M3S_TO_SM3H * a2 * r * vsc
    grad[:6] = g
    return sse, grad, nneg


# ----------------------------------------------------------------------- HAM


def ham_predict(theta, widths, x, xs, geom):
    n = x.shape[0]
    nn_out = nn_predict(theta, 5, widths, xs)
    if n >= COLUMN_ROWS:
        r, vsc, neg = _mm_cols(theta, x, False)
        yhat = (M3S_TO_SM3H * _area(x[:, 0], geom) * r * vsc) * _softplus_cols(nn_out)
        return yhat, int(np.count_nonzero(neg))
    ro, rw, kp, mg, pcr = theta[:5].tolist()
    geom = geom.tolist()
    yhat = []
    nneg = 0
    for xi, z in zip(x.tolist(), nn_out.tolist()):
        r, vsc, neg = _mm_parts(ro, rw, kp, mg, pcr, xi[1], xi[2], xi[3], xi[4], xi[5])
        nneg += neg
        yhat.append((M3S_TO_SM3H * _area(xi[0], geom) * r * vsc) * _softplus(z))
    return np.array(yhat, dtype=np.float64), nneg


def ham_loss_grad(theta, widths, x, xs, geom, y, inv_var):
    n = x.shape[0]
    nn_out, acts = _nn_forward(theta, 5, widths, xs)
    grad = np.zeros(theta.shape[0])
    if n >= COLUMN_ROWS:
        r, vsc, neg, dr, dvsc = _mm_cols(theta, x, True)
        a2 = _area(x[:, 0], geom)
        base = M3S_TO_SM3H * a2 * r * vsc   # yhat = base * softplus(nn)
        mult = _softplus_cols(nn_out)
        sse, c = _residuals(y, base * mult, inv_var)
        grad[:5] += _row_sum((c * M3S_TO_SM3H * a2 * mult)[:, None]
                             * (dr * vsc[:, None] + r[:, None] * dvsc))
        _nn_backward(theta, 5, widths, acts, c * base * _sigmoid_cols(nn_out), grad)
        return sse, grad, int(np.count_nonzero(neg))
    ro, rw, kp, mg, pcr = theta[:5].tolist()
    geom = geom.tolist()
    inv_var = float(inv_var)
    g = [0.0] * 5
    sse = 0.0
    nneg = 0
    delta_nn = []
    for xi, yi, z in zip(x.tolist(), y.tolist(), nn_out.tolist()):
        r, vsc, dr, dvsc, neg = _mm_parts_grad(ro, rw, kp, mg, pcr,
                                               xi[1], xi[2], xi[3], xi[4], xi[5])
        nneg += neg
        a2 = _area(xi[0], geom)
        base = M3S_TO_SM3H * a2 * r * vsc   # yhat = base * softplus(nn)
        mult = _softplus(z)
        yh = base * mult
        resid = yi - yh
        sse += resid * resid * inv_var
        c = -2.0 * resid * inv_var
        for j in range(5):
            g[j] += c * M3S_TO_SM3H * a2 * mult * (dr[j] * vsc + r * dvsc[j])
        delta_nn.append(c * base * _sigmoid(z))
    grad[:5] = g
    _nn_backward(theta, 5, widths, acts, np.array(delta_nn, dtype=np.float64), grad)
    return sse, grad, nneg


# ----------------------------------------------------------------------- MTL
# Parameter layout for dims = (d, P, h, L, M):
#   W01 (d,h), W02 (P,h), b0 (h)
#   per block l: Wl1 (h,h), bl1 (h), Wl2 (h,h), bl2 (h)
#   Wout (h,1), bout (1)
#   B (P,M) row-major; column j is the task embedding of well-index j


def _mtl_forward(theta, dims, xs, wells):
    d = dims[0]
    p = dims[1]
    h = dims[2]
    nblk = dims[3]
    m = dims[4]

    pos = 0
    w01 = theta[pos:pos + d * h].reshape(d, h)
    pos += d * h
    w02 = theta[pos:pos + p * h].reshape(p, h)
    pos += p * h
    b0 = theta[pos:pos + h]
    pos += h
    blk_pos = pos
    pos += nblk * (2 * h * h + 2 * h)
    wout = theta[pos:pos + h].reshape(h, 1)
    pos += h
    bout = theta[pos]
    pos += 1
    bmat = theta[pos:pos + p * m]

    beta = np.ascontiguousarray(bmat.reshape(p, m).T)[wells]

    z = np.dot(xs, w01) + np.dot(beta, w02) + b0
    zs = [z]
    h1s = [z]  # placeholder typing; real entries appended below
    a1s = [z]
    bp = blk_pos
    for l in range(nblk):
        wl1 = theta[bp:bp + h * h].reshape(h, h)
        bp += h * h
        bl1 = theta[bp:bp + h]
        bp += h
        wl2 = theta[bp:bp + h * h].reshape(h, h)
        bp += h * h
        bl2 = theta[bp:bp + h]
        bp += h
        a = np.maximum(z, 0.0)
        h1 = np.dot(a, wl1) + bl1
        a1 = np.maximum(h1, 0.0)
        r = np.dot(a1, wl2) + bl2
        z = z + r
        zs.append(z)
        h1s.append(h1)
        a1s.append(a1)
    # in column form at every row count: it is faster than the loop even at n = 1
    return _affine_cols(bout, z, wout[:, 0]), zs, h1s, a1s, beta


def mtl_predict(theta, dims, xs, wells):
    yhat, _, _, _, _ = _mtl_forward(theta, dims, xs, wells)
    return yhat


def mtl_loss_grad(theta, dims, xs, wells, y, inv_var):
    d = dims[0]
    p = dims[1]
    h = dims[2]
    nblk = dims[3]
    m = dims[4]
    n = xs.shape[0]

    yhat, zs, h1s, a1s, beta = _mtl_forward(theta, dims, xs, wells)
    grad = np.zeros(theta.shape[0])
    sse, delta = _residuals(y, yhat, inv_var)
    delta = delta.reshape(n, 1)

    in_sz = d * h + p * h + h
    blk_sz = 2 * h * h + 2 * h
    out_pos = in_sz + nblk * blk_sz
    b_pos = out_pos + h + 1
    ones = np.ones(n)

    # output layer
    zfin = zs[nblk]
    wout = theta[out_pos:out_pos + h].reshape(h, 1)
    dwout = np.dot(np.ascontiguousarray(zfin.T), delta)
    grad[out_pos:out_pos + h] += dwout.ravel()
    grad[out_pos + h] += np.dot(ones, delta)[0]
    dz = np.dot(delta, np.ascontiguousarray(wout.T))

    # residual blocks, last to first
    for l in range(nblk - 1, -1, -1):
        bp = in_sz + l * blk_sz
        wl1 = theta[bp:bp + h * h].reshape(h, h)
        wl2 = theta[bp + h * h + h:bp + 2 * h * h + h].reshape(h, h)
        zin = zs[l]
        # indices +1: forward appended per-block arrays after the placeholder
        h1 = h1s[l + 1]
        a1 = a1s[l + 1]
        a0 = np.maximum(zin, 0.0)
        dwl2 = np.dot(np.ascontiguousarray(a1.T), dz)
        grad[bp + h * h + h:bp + 2 * h * h + h] += dwl2.ravel()
        grad[bp + 2 * h * h + h:bp + 2 * h * h + 2 * h] += np.dot(ones, dz)
        da1 = np.dot(dz, np.ascontiguousarray(wl2.T))
        dh1 = np.where(h1 > 0.0, da1, 0.0)
        dwl1 = np.dot(np.ascontiguousarray(a0.T), dh1)
        grad[bp:bp + h * h] += dwl1.ravel()
        grad[bp + h * h:bp + h * h + h] += np.dot(ones, dh1)
        da0 = np.dot(dh1, np.ascontiguousarray(wl1.T))
        dz = dz + np.where(zin > 0.0, da0, 0.0)

    # input layer
    w02 = theta[d * h:d * h + p * h].reshape(p, h)
    dw01 = np.dot(np.ascontiguousarray(xs.T), dz)
    grad[0:d * h] += dw01.ravel()
    dw02 = np.dot(np.ascontiguousarray(beta.T), dz)
    grad[d * h:d * h + p * h] += dw02.ravel()
    grad[d * h + p * h:in_sz] += np.dot(ones, dz)
    dbeta = np.dot(dz, np.ascontiguousarray(w02.T))
    # np.add.at applies rows in index order, so the rows of one well add up
    # as in a loop over rows; a per-well sum could reorder them.
    np.add.at(grad[b_pos:b_pos + p * m].reshape(p, m).T, wells, dbeta)
    return sse, grad


# ------------------------------------------------------------------ optimizer
# Flat-vector update steps: each element goes through the same roundings in
# the same order as a per-parameter loop, so the result is bit-identical to
# one.  The clamp equals the loop's "below lower, else above upper" test
# wherever lower <= upper and no value ties a zero bound of the other sign.
# Adam updates m and v in place; below ADAM_LOOP_PARAMS it runs as a loop.


def sgd_step(theta, grad, gamma_k, lower, upper):
    return np.minimum(np.maximum(theta - gamma_k * grad, lower), upper)


def adam_step(theta, grad, m, v, k, gamma_k, beta1, beta2, eps, lower, upper):
    """One bias-corrected Adam step; mutates m and v in place, returns theta'."""
    if theta.shape[0] >= ADAM_LOOP_PARAMS:
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        mhat = m / (1.0 - beta1 ** k)
        vhat = v / (1.0 - beta2 ** k)
        val = theta - gamma_k * mhat / (np.sqrt(vhat) + eps)
        return np.minimum(np.maximum(val, lower), upper)
    c1 = 1.0 - beta1 ** k
    c2 = 1.0 - beta2 ** k
    b1 = 1.0 - beta1
    b2 = 1.0 - beta2
    ms = []
    vs = []
    out = []
    for th, g, mi, vi, lo, hi in zip(theta.tolist(), grad.tolist(), m.tolist(),
                                     v.tolist(), lower.tolist(), upper.tolist()):
        mi = mi * beta1 + b1 * g
        vi = vi * beta2 + b2 * g * g
        ms.append(mi)
        vs.append(vi)
        val = th - gamma_k * (mi / c1) / (math.sqrt(vi / c2) + eps)
        # np.maximum/np.minimum: the bound on a tie (-0.0 against 0.0
        # included), NaN if either side is NaN
        if not val > lo and val == val:
            val = lo
        if not val < hi and val == val:
            val = hi
        out.append(val)
    m[...] = ms   # about half the cost of m[:] = ms at this size
    v[...] = vs
    return np.array(out)
