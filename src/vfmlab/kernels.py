"""Numeric kernels: batch forwards and analytic loss gradients per model kind.

Every function here is plain Python over numpy and ``math``: float64 arrays,
int64 index arrays and Python floats.  Nothing is compiled.

Calls come in two sizes: one row (each online-learning prediction and step)
and batches (mini-batches, validation sets and ``run_pbl``'s per-period
predictions).  The kernels serve both:

* array form at every size: ``adam_step``, ``sgd_step``, ``lr_predict`` and
  ``lr_loss_grad``, the network's forward and backward passes
  (``_nn_forward``, ``_nn_backward``, on layer views that ``_nn_bind``
  binds), which also run MTL's residual blocks and output layer on the
  views that ``_mtl_bind`` binds, the squared-error residuals
  (``_residuals``) and the rest of MTL;
* column form for calls of at least ``COLUMN_ROWS`` rows and a loop below
  that: the MM/HEM/HAM physics, whose choke equation ``_mm_cols`` takes
  over columns and ``_mm_row`` over one row's floats, rounding differently.
  MM and HEM share one forward, ``_mm_forward``, which picks the form, and
  one physics gradient, ``_mm_grad``, which takes either form's parts; HAM
  picks in each of its two kernels;
* floats for a whole online-learning update of LR and MM
  (``optim.TrainingStep.online_update``): the bounds, the prior and each
  step's gamma_k and bias corrections are converted once per unit, theta
  and the row once per observation; each of the k steps runs the row body
  ``lr_row_grad`` or ``mm_row_grad``, which also returns the row's forward,
  and one pass of ``sgd_floats`` or ``adam_floats`` over the entries,
  which adds the prior's gradient, checks it is finite and writes the step
  with its clip; the result becomes an array once.  The first step's
  forward is at the parameters that predict the row, so it is the row's
  prediction, and no predict kernel runs.  Every MM/HEM/HAM loop goes
  through ``_mm_row``; ``lr_row_grad``, ``mm_row_grad``, ``sgd_floats`` and
  ``adam_floats`` take, per element, the operations of ``lr_loss_grad``
  (and ``lr_predict``), ``mm_loss_grad`` (and ``mm_predict``) at one row,
  the prior's ``add_grad``, and ``sgd_step`` or ``adam_step`` in the same
  order, so the two forms round alike;
* bound buffers for a whole online-learning update of NN, MTL, HEM and HAM
  (``optim.TrainingStep.bind``): each unit owns its parameter, Adam moment,
  gradient and scratch arrays and binds the layer views of them once
  (``_nn_bind``, ``_mtl_bind``); each step runs the loss-gradient kernel's
  body on those views (``_nn_grad``, ``_hem_grad``, ``_ham_grad``,
  ``_mtl_grad``), which adds the gradient into the unit's buffer and
  returns the forward, and ``adam_step`` or ``sgd_step`` writes the step
  into the parameters.  As on floats, the first step's forward is the
  row's prediction.  The public kernels run the same bodies on a binding
  of their own arguments, made per call, so there is one network code
  path.

The MAP fits of one kind run in lockstep (``optim.fit_maps``): the initial
fits of every well, and the refits of every well's periodic-batch unit of a
schedule.  The mini-batches they take at one step go through one call with a
leading fit axis: theta (R, P), X and Xs (R, n, 6), y and MTL's task columns (R, n),
and inv_var (and HEM's nn_scale) (R, 1), one row per fit; such a call returns
sse (R,), grad (R, P) and the clamp count summed over the R fits.  The array
and column forms stack: ``_row_sum``, ``_affine_cols``,
``_residuals``/``_sse``, ``_mm_cols``, ``_mm_forward``/``_mm_grad`` in
column form, ``_nn_forward``/``_nn_backward``, MTL's kernels, the LR and NN
kernels, and the MM/HEM/HAM kernels at ``COLUMN_ROWS`` rows or more (their
loops take one fit, so ``fit_maps`` stacks only such calls);
``adam_step`` and ``sgd_step`` take stacked parameters.  The fits of a
stack may be at different steps, so ``fit_maps`` gives ``adam_step`` k as a
list, one step index per row; it computes each row's bias corrections
``1.0 - beta ** k`` on Python floats, as for one fit, into (R, 1) columns,
and both steps take gamma_k as an (R, 1) column (an online update of one
fit gives scalars).  Row r of a stacked result equals fit r's own call bit
for bit: fit r's parameters (and step coefficients) meet its rows as
(R, 1) columns where one fit's are Python floats or scalars, which rounds
alike; a sum over rows runs along each
fit's row axis in order; MTL's ``np.add.at`` takes each fit's rows in
order.  The network's products are ``np.matmul`` on stacked operands, which
takes the same BLAS routine per fit as ``np.dot`` on one fit's 2-D
operands; one fit keeps ``np.dot``, since ``np.matmul`` costs about 0.7 us
more per call at one row and an online-learning HEM gradient makes about 8
of these calls.

The MM/HEM/HAM loops and the float update run on Python floats: a call
converts its arrays once with ``tolist()`` and writes its result back once.
The rounding is the same as on numpy scalars, so they keep the array forms'
bits; what differs is division by zero, where Python raises
``ZeroDivisionError`` and numpy gives inf or NaN.  The choke equation
divides by p1, T1, the gas densities and kappa - 1, and Adam by its bias
corrections and by sqrt(vhat) + eps, so these are checked before a loop or
a float update runs:

* rows: ``models.check_inputs`` refuses a nonpositive or infinite p1, p2 or
  T1 (an infinite T1 makes the gas density zero) with ``NumericError``, once
  per call, fit or unit in ``models.predict``, ``optim.TrainingStep.rows``
  (each fit, and each OL unit before its updates) and the PBL period walk
  of ``learning``; ``synth.generate_stream`` refuses a nonpositive pressure
  or temperature of its own rows;
* parameters: ``models.MechanisticParams`` requires kappa > 1 and positive
  densities and gas molar mass, for a scenario's true parameters, its events
  and ramp ends and the prior means a model starts at, and every optimizer
  step, on arrays or on floats, clips kappa into its ``HARD_BOUNDS``, above
  1;
* Adam: ``optim.OptimizerConfig`` requires ``adam_beta1`` and ``adam_beta2``
  in [0, 1) and a positive ``adam_eps``; ``optimizer_step`` requires a step
  index k >= 1, and the float update counts its steps from k = 1.

Exactness, checked against the loop versions frozen in
``tests/loop_kernels.py`` by ``tests/test_kernel_oracle.py`` on both sides of
``COLUMN_ROWS`` and at the study's parameter counts (which also holds
stacked calls, and stacked steps at a k per row, to one call per fit):

* each kind's ``predict`` is its loss-gradient kernel's forward, bit for
  bit, one fit or stacked, so that a fit minimizes the loss of the
  predictions it logs: ``lr_predict`` sums like ``lr_loss_grad``, left to
  right (``_affine_cols``), ``ham_predict`` multiplies in
  ``ham_loss_grad``'s order, and MM and HEM predict and take gradients
  through the one forward ``_mm_forward``;
* each float row gradient (``lr_row_grad``, ``mm_row_grad``) equals its
  kind's loss-gradient kernel at one row: sse, gradient (signed zeros
  included) and clamp flag, byte for byte, and its forward the kind's
  ``predict`` at that row;
* the optimizer steps, the LR, NN and MTL kernels and the MM/HEM/HAM loops
  below ``COLUMN_ROWS`` are bit-identical to the oracle (``lr_predict`` and
  ``ham_predict`` to their forwards in ``lr_loss_grad`` and
  ``ham_loss_grad``, whose order the oracle's predicts do not keep).  The
  short MM, HEM and HAM calls of the oracle test take ``_mm_row`` through
  each of its branches: a clamped and a free pressure ratio, a nonpositive
  radicand and a zero water fraction.  Sums over rows keep the loops' order:
  a cumulative sum along the summed axis adds one term at a time, and its
  last entry is the sum (``_row_sum``, ``_affine_cols``); ``np.add.at``
  applies rows in index order;
* ``sgd_floats`` and ``adam_floats`` equal the prior's ``add_grad``
  followed by ``sgd_step`` or ``adam_step`` bit for bit, signs included, on
  ties, NaN and overflow too (the oracle's clip keeps ``val`` on a tie, so
  signed-zero ties are held to the array steps instead);
* an online update on floats, and one on bound buffers, equals the array
  steps (``optimizer_step`` over ``plan_loss_grad`` and the prior's
  ``add_grad``) bit for bit, and the float update's prediction equals
  ``models.plan_predict``'s, skipped updates and clamp counts included:
  ``tests/test_training_step.py`` holds ``learning.run_ol`` to the frozen
  loop of ``tests/loop_drivers.py``, as ``tools/ol_update.py --smoke`` does
  on a split of the default study;
* the backward's ReLU masks (``_relu_mask``, in ``_nn_backward`` and at
  each MTL block's input) equal ``np.where(a > 0.0, d, 0.0)``
  without its branch per element: d's bits, viewed as int64, are
  multiplied by the boolean ``a > 0.0``.  Where that is 1 the bits stay,
  NaN payloads and signs included; where it is 0 they become those of
  +0.0, which ``np.where`` writes there; a NaN in ``a`` compares false.
  The form is the same at every size.  Per call it took 2.34 us at
  (1, 32), 7.4 at (64, 32) and 93 at (16, 64, 32), where ``np.where`` took
  1.98, 18.1 and 260 us (min of 21 interleaved rounds, 2 cores;
  ``BENCH_14.json``, ``relu_mask_tool``).  The oracle test holds it to
  ``np.where`` on signed zeros, NaNs, subnormals and infinities;
* ``_mm_cols`` goes through ``_mm_row``'s arithmetic in its order, but
  numpy's SIMD ``power``, ``log``, ``exp`` and ``log1p`` differ from libm by
  one unit in the last place on a few percent of inputs (``sqrt`` never
  does), so the column forms are held to 1e-10 relative for predictions and
  loss and 1e-9 for gradients, with equal clamp counts.

One detail that looks removable is part of the arithmetic under the first
rule: the ``np.ascontiguousarray(a.T)`` copies before ``np.dot`` choose the
BLAS path, and a transposed view rounds differently.

The predict and loss-gradient kernels write in place only into arrays they
have just made (a product of ``np.dot``/``np.matmul`` or a sum, as
``_relu_mask`` and ``_nn_forward``'s ReLU do), never into an argument or a
view of one: theta, X, Xs, y and the task columns come back unchanged
(``test_no_kernel_writes_into_its_arguments``).  The writes into arguments
are named: ``_nn_backward`` and ``_mtl_grad`` add into the gradient views
of their binding, ``_hem_grad`` and ``_ham_grad`` also into their
``grad``, and the bodies add only into zeros; ``sgd_step`` and
``adam_step`` write the step into ``theta`` and work in their scratch
pair, and ``adam_step`` updates ``m`` and ``v``.  So a step allocates
nothing theta-sized where its caller owns the scratch
(``optim.OptimizerState``).

Shared conventions:

* ``theta`` is the flat float64 parameter vector of the owning ParameterSet
  (one per row when stacked).
* Weight matrices are stored input-major, shape (fan_in, fan_out), so batch
  forwards are plain ``X @ W + b`` on contiguous views of ``theta``.
* ``widths`` is the full layer-width vector of an MLP including input and
  output, e.g. (6, 32, 32, 1).
* ``X`` carries raw physical inputs (mechanistic terms), ``Xs`` standardized
  inputs (all neural-network terms).
* ``*_loss_grad`` kernels return the data term of the MAP objective,
  ``sse = sum((y_i - yhat_i)^2) * inv_var``, and its gradient w.r.t. theta;
  on zero rows, sse 0.0 and a zero gradient (``_row_sum`` of no rows).
  They run the network forward once: ``_nn_forward`` keeps the activations
  that ``_nn_backward`` consumes, both on one binding (``_nn_bind``) of
  theta's and grad's layer views.  Prior terms are added outside (they are
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

# MM, HEM and HAM calls with at least this many rows take the column form,
# shorter ones the loop; only _mm_forward (for MM and HEM), ham_predict and
# ham_loss_grad read it.  The measured crossovers lie higher: min of 21
# runs, loop and column interleaved, on a 2-core VM, the column form
# overtook a loop on Python floats at about 16 to 20 rows for HEM (and for
# an LR loop, which rounds as lr_loss_grad's column form does, so LR has
# none), 20 to 24 for mm_loss_grad and ham_loss_grad, 24 to 32 for
# mm_predict and 32 to 48 for ham_predict, and at one row the loops were 3
# to 12 times faster.  But a loop rounds MM, HEM and HAM differently from
# the column form, so moving this waits for a behaviour gate with stated
# tolerances.
COLUMN_ROWS = 8


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


def _row_sum(a, axis):
    """Sum over the row axis (-1 for one value per row, -2 for a vector per
    row), adding rows in order as the loops do; zeros over no rows."""
    if a.shape[axis] == 0:
        return a.sum(axis=axis)
    # the method skips np.cumsum's Python wrapper, about 1 us at one row
    c = a.cumsum(axis)
    return c[..., -1] if axis == -1 else c[..., -1, :]


def _affine_cols(b, a, w):
    """b + a[..., 0]*w[..., 0] + a[..., 1]*w[..., 1] + ... per row, added left
    to right as the loops do; b broadcasts against a row's value, w against
    a's rows."""
    terms = np.empty(a.shape[:-1] + (a.shape[-1] + 1,))
    terms[..., 0] = b
    np.multiply(a, w, out=terms[..., 1:])
    # the running sums in place: a new array for them costs up to 1 us at 64 rows
    return np.add.accumulate(terms, -1, out=terms)[..., -1].copy()


def _relu_mask(d, a):
    """d where a > 0, else +0.0: np.where(a > 0.0, d, 0.0), bit for bit,
    without a branch per element.  d's bits, as int64, are multiplied by the
    mask in place, so d must be an array the caller has just made."""
    bits = d.view(np.int64)
    np.multiply(bits, a > 0.0, out=bits)
    return d


def _ones(n):
    """np.ones(n), which costs about 0.5 us more per call at these sizes."""
    ones = np.empty(n)
    ones.fill(1.0)
    return ones


def _area(u, geom):
    return geom[0] * (geom[1] * u + geom[2] * u * u + geom[3] * u * u * u)


def _residuals(y, yhat, inv_var):
    """(sse, delta) of the squared-error data term: sse sums
    (y_i - yhat_i)^2 * inv_var over rows in order, delta_i = -2 * resid_i * inv_var.
    """
    resid = y - yhat
    return _row_sum(resid * resid * inv_var, -1), -2.0 * resid * inv_var


def _sse(y, yhat, inv_var):
    """The sse of _residuals alone."""
    resid = y - yhat
    return _row_sum(resid * resid * inv_var, -1)


def _mm_row(th, x, geom, grad):
    """The choke equation of one row on Python floats: th holds (at least)
    the five non-C_D mechanistic parameters, x the raw row (u, p1, p2, T1,
    eta_oil, eta_gas) and geom the area coefficients, all lists.

    Returns (a2, r, vsc, neg): the choke area A2(u), r = sqrt(S) for radicand
    S (0 when S <= 0, neg = 1 then) and vsc = 1/rho_SC.  With grad it also
    returns d(r)/dp and d(vsc)/dp for those five parameters, order (rho_oil,
    rho_wat, kappa, M_gas, p_cr), as lists; at a clamped radicand all
    derivatives of r are zero: the output is constant there.
    """
    ro, rw, kp, mg, pcr = th[:5]
    u, p1, p2, t1, eo, eg = x
    a2 = _area(u, geom)
    ew = 1.0 - eo - eg
    if ew < 0.0:
        ew = 0.0
    pr_raw = p2 / p1
    clamped = pr_raw < pcr
    pr = pcr if clamped else pr_raw

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
    if not grad:
        return (a2, 0.0, vsc, 1) if s <= 0.0 else (a2, math.sqrt(s), vsc, 0)
    dvsc = [-eo / (ro * ro), -ew / (rw * rw), 0.0, -eg / (rgsc * mg), 0.0]
    if s <= 0.0:
        return a2, 0.0, vsc, 1, [0.0] * 5, dvsc
    r = math.sqrt(s)

    # rho_gas,2 sensitivities
    drg2_k = -rg2 * math.log(pr) / (kp * kp)
    drg2_m = rg2 / mg
    drg2_pc = rg2 / (kp * pr) if clamped else 0.0

    # throat mixture density via v2
    inv_rg2sq = eg / (rg2 * rg2)
    dv2 = (dvsc[0], dvsc[1], -inv_rg2sq * drg2_k, -inv_rg2sq * drg2_m, -inv_rg2sq * drg2_pc)
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
    return a2, r, vsc, 0, dr, dvsc


def _mm_cols(theta, x, geom, grad):
    """_mm_row over every row of x.

    Returns (a2, r, vsc, neg) or (a2, r, vsc, neg, dr, dvsc), as _mm_row
    does: columns of x's row shape, a boolean neg and derivatives with a
    trailing axis of 5.  Each row goes through _mm_row's operations in its
    order.  Stacked, theta is (R, P) and x (R, n, 6): each fit's parameters
    meet its own rows as a column (R, 1), where one fit's are Python floats.
    """
    if theta.ndim == 1:
        ro, rw, kp, mg, pcr = theta[:5].tolist()
    else:
        ro, rw, kp, mg, pcr = theta[:, :5].T[:, :, None]
    p1, p2, t1, eo, eg = x[..., 1], x[..., 2], x[..., 3], x[..., 4], x[..., 5]
    a2 = _area(x[..., 0], geom)
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
        return a2, r, vsc, neg

    dvsc = np.zeros(x.shape[:-1] + (5,))
    dvsc[..., 0] = -eo / (ro * ro)
    dvsc[..., 1] = -ew / (rw * rw)
    dvsc[..., 3] = -eg / (rgsc * mg)

    drg2_k = -rg2 * np.log(pr) / (kp * kp)
    drg2_m = rg2 / mg
    drg2_pc = np.where(clamped, rg2 / (kp * pr), 0.0)

    inv_rg2sq = eg / (rg2 * rg2)
    dv2 = np.empty(x.shape[:-1] + (5,))
    dv2[..., 0] = dvsc[..., 0]
    dv2[..., 1] = dvsc[..., 1]
    dv2[..., 2] = -inv_rg2sq * drg2_k
    dv2[..., 3] = -inv_rg2sq * drg2_m
    dv2[..., 4] = -inv_rg2sq * drg2_pc

    dg = np.empty(x.shape[:-1] + (5,))
    dg[..., 0] = -(eo / (ro * ro)) * (1.0 - pr)
    dg[..., 1] = -(ew / (rw * rw)) * (1.0 - pr)
    dck = -1.0 / ((kp - 1.0) * (kp - 1.0))
    dg[..., 2] = dck * eg * (1.0 / rg1 - pr / rg2) + ck * eg * (pr / (rg2 * rg2)) * drg2_k
    dg[..., 3] = -tg / mg
    dg[..., 4] = np.where(clamped, -eg / rg2 - (vo + vw), 0.0)

    rho2 = rho2[..., None]
    drho2 = -rho2 * rho2 * dv2
    ds = 2.0 * p1[..., None] * (2.0 * rho2 * drho2 * g[..., None] + rho2 * rho2 * dg)
    # clamped rows divide by 1 instead of 0; their derivatives are zeroed
    dr = np.where(neg[..., None], 0.0, ds / (2.0 * np.where(neg, 1.0, r))[..., None])
    return a2, r, vsc, neg, dr, dvsc


# ----------------------------------------------------------------- benchmark
# (no kernel: the previous-value predictor is bookkeeping, handled in python)


# ------------------------------------------------------------------------ LR


def lr_predict(theta, xs):
    d = xs.shape[-1]
    return _affine_cols(theta[..., d, None], xs, theta[..., None, :d])


def lr_loss_grad(theta, xs, y, inv_var):
    d = xs.shape[-1]
    sse, c = _residuals(y, _affine_cols(theta[..., d, None], xs, theta[..., None, :d]), inv_var)
    grad = np.zeros(theta.shape)
    grad[..., :d] += _row_sum(c[..., None] * xs, -2)
    grad[..., d] += _row_sum(c, -1)
    return sse, grad


def lr_row_grad(th, xs, y, inv_var, g):
    """lr_loss_grad of one row on Python floats, in its order of operations,
    for the online-learning update: th (w, b) and the standardized row xs
    are lists, y and inv_var floats.  Adds the row's gradient into the list
    g and returns (its sse term, its forward), the forward being
    lr_predict's at that row, bit for bit."""
    d = len(xs)
    yh = th[d]
    for xj, wj in zip(xs, th):
        yh += xj * wj
    resid = y - yh
    c = -2.0 * resid * inv_var
    for j, xj in enumerate(xs):
        g[j] += c * xj
    g[d] += c
    return resid * resid * inv_var, yh


# ------------------------------------------------------------------------ NN


def nn_predict(theta, off, widths, xs):
    return _nn_forward(_nn_bind(theta, off, widths.tolist()), xs)[0][..., 0]


def _nn_bind(theta, off, widths, grad=None):
    """The network at offset off of theta, its layer widths the list of ints
    widths, bound for any number of passes: (dot, layers), layers holding
    per layer (W, b, dW, db).  W is the (..., fan_in, fan_out) view of the
    layer's weights in theta and b the (..., 1, fan_out) view of its biases;
    dW and db are the same entries of grad, shaped (..., fan_in, fan_out)
    and (..., fan_out), or None without grad.  Views follow their arrays'
    values, so a binding serves until theta or grad is replaced: the public
    kernels bind per call, an online-learning unit once, on buffers it
    steps in place (``optim.TrainingStep.bind``)."""
    lead = theta.shape[:-1]
    layers = []
    pos = off
    for fi, fo in zip(widths, widths[1:]):
        end = pos + fi * fo
        w, b = theta[..., pos:end].reshape(lead + (fi, fo)), theta[..., None, end:end + fo]
        if grad is None:
            layers.append((w, b, None, None))
        else:
            layers.append((w, b, grad[..., pos:end].reshape(lead + (fi, fo)),
                           grad[..., end:end + fo]))
        pos = end + fo
    return (np.dot if theta.ndim == 1 else np.matmul), layers


def _nn_forward(net, h):
    """(output, activations) of the bound network net on h: the output
    (..., n, fan_out) of its last layer, which is linear, and the
    activations (h, then each layer's output) that _nn_backward needs."""
    dot, layers = net
    last = len(layers) - 1
    acts = [h]
    for layer, (w, b, _, _) in enumerate(layers):
        # the ReLU writes into the fresh sum; an in-place bias add (h += b)
        # made a one-row gradient 0.4 to 1 us slower, so the sum is new
        h = dot(h, w) + b
        if layer < last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return h, acts


def _nn_backward(net, acts, d, to_input=False):
    """Add d(sum(d * output))/dtheta into the bound network's gradient
    views, given the output-shaped delta d and the activations of
    _nn_forward on the same binding.  With to_input it returns the gradient
    with respect to the network's input acts[0] (what MTL's residual add
    takes), else None."""
    dot, layers = net
    ones = _ones(d.shape[-2])
    for layer in range(len(layers) - 1, -1, -1):
        w, _, dw, db = layers[layer]
        a_prev = acts[layer]
        dw += dot(np.ascontiguousarray(a_prev.swapaxes(-1, -2)), d)
        db += dot(ones, d)
        if layer > 0:
            d = _relu_mask(dot(d, np.ascontiguousarray(w.swapaxes(-1, -2))), a_prev)
        elif to_input:
            return dot(d, np.ascontiguousarray(w.swapaxes(-1, -2)))


def _nn_grad(net, xs, y, inv_var):
    """nn_loss_grad on a bound network: adds the gradient into its views and
    returns (sse, forward)."""
    out, acts = _nn_forward(net, xs)
    yhat = out[..., 0]
    sse, delta = _residuals(y, yhat, inv_var)
    _nn_backward(net, acts, delta[..., None])
    return sse, yhat


def nn_loss_grad(theta, off, widths, xs, y, inv_var):
    grad = np.zeros(theta.shape)
    return _nn_grad(_nn_bind(theta, off, widths.tolist(), grad), xs, y, inv_var)[0], grad


# ------------------------------------------------------------------------ MM


def _mm_forward(theta, x, geom, grad):
    """MM's flow over the rows of x: (yhat, clamps, parts), parts being what
    _mm_grad takes.  The one place the MM and HEM kernels pick a form:
    _mm_cols at COLUMN_ROWS rows or more (one fit or stacked; parts is its
    tuple), else one loop over _mm_row on Python floats (one fit; parts
    lists the rows' results)."""
    if x.shape[-2] >= COLUMN_ROWS:
        parts = _mm_cols(theta, x, geom, grad)
        a2, r, vsc, neg = parts[:4]
        yhat = M3S_TO_SM3H * theta[..., 5, None] * a2 * r * vsc
        return yhat, int(np.count_nonzero(neg)), parts
    th = theta[:6].tolist()
    geom = geom.tolist()
    yhat = []
    parts = []
    nneg = 0
    for xi in x.tolist():
        row = _mm_row(th, xi, geom, grad)
        nneg += row[3]
        yhat.append(M3S_TO_SM3H * th[5] * row[0] * row[1] * row[2])
        parts.append(row)
    return np.array(yhat, dtype=np.float64), nneg, parts


def _mm_grad(theta, parts, delta, grad):
    """Add sum_i delta_i * d(mm_i)/dtheta[..., :6] to grad's zeros there,
    rows in order, from _mm_forward's parts in either form.  The row form's
    sums start at 0.0, so it writes them: adding a list costs 1.7 us more."""
    if isinstance(parts, list):
        cd = float(theta[5])
        g = [0.0] * 6
        for di, (a2, r, vsc, _, dr, dvsc) in zip(delta.tolist(), parts):
            base = M3S_TO_SM3H * cd * a2
            for j in range(5):
                g[j] += di * base * (dr[j] * vsc + r * dvsc[j])
            g[5] += di * M3S_TO_SM3H * a2 * r * vsc
        grad[:6] = g
        return
    a2, r, vsc, _, dr, dvsc = parts
    base = M3S_TO_SM3H * theta[..., 5, None] * a2
    terms = np.empty(a2.shape + (6,))
    terms[..., :5] = (delta * base)[..., None] * (dr * vsc[..., None] + r[..., None] * dvsc)
    terms[..., 5] = delta * M3S_TO_SM3H * a2 * r * vsc
    grad[..., :6] += _row_sum(terms, -2)


def mm_predict(theta, x, geom):
    yhat, nneg, _ = _mm_forward(theta, x, geom, False)
    return yhat, nneg


def mm_loss_grad(theta, x, geom, y, inv_var):
    yhat, nneg, parts = _mm_forward(theta, x, geom, True)
    sse, delta = _residuals(y, yhat, inv_var)
    grad = np.zeros(theta.shape)
    _mm_grad(theta, parts, delta, grad)
    return sse, grad, nneg


def mm_row_grad(th, x, geom, y, inv_var, g):
    """mm_loss_grad of one row on Python floats, for the online-learning
    update: _mm_row's gradient, th (six parameters), the raw row x and geom
    as lists, y and inv_var floats.  Adds the row's gradient into the list g
    and returns (its sse term, its forward, 1 if its radicand was clamped
    else 0), the forward being mm_predict's at that row, bit for bit."""
    a2, r, vsc, neg, dr, dvsc = _mm_row(th, x, geom, True)
    base = M3S_TO_SM3H * th[5] * a2
    yh = base * r * vsc
    resid = y - yh
    c = -2.0 * resid * inv_var
    for j in range(5):
        g[j] += c * base * (dr[j] * vsc + r * dvsc[j])
    g[5] += c * M3S_TO_SM3H * a2 * r * vsc
    return resid * resid * inv_var, yh, neg


# ----------------------------------------------------------------------- HEM


def hem_predict(theta, widths, x, xs, geom, nn_scale):
    ymm, nneg = mm_predict(theta, x, geom)
    ynn = nn_predict(theta, 6, widths, xs)
    return ymm + nn_scale * ynn, nneg


def _hem_grad(net, theta, x, xs, geom, y, inv_var, nn_scale, grad):
    """hem_loss_grad on a network bound at offset 6 of theta and grad, into
    grad's zeros: (sse, forward, clamps)."""
    ymm, nneg, parts = _mm_forward(theta, x, geom, True)
    out, acts = _nn_forward(net, xs)
    yhat = ymm + nn_scale * out[..., 0]
    sse, delta = _residuals(y, yhat, inv_var)
    _nn_backward(net, acts, (delta * nn_scale)[..., None])
    _mm_grad(theta, parts, delta, grad)
    return sse, yhat, nneg


def hem_loss_grad(theta, widths, x, xs, geom, y, inv_var, nn_scale):
    grad = np.zeros(theta.shape)
    sse, _, nneg = _hem_grad(_nn_bind(theta, 6, widths.tolist(), grad), theta, x, xs, geom, y,
                             inv_var, nn_scale, grad)
    return sse, grad, nneg


# ----------------------------------------------------------------------- HAM


def ham_predict(theta, widths, x, xs, geom):
    n = x.shape[-2]
    nn_out = nn_predict(theta, 5, widths, xs)
    if n >= COLUMN_ROWS:
        a2, r, vsc, neg = _mm_cols(theta, x, geom, False)
        yhat = (M3S_TO_SM3H * a2 * r * vsc) * _softplus_cols(nn_out)
        return yhat, int(np.count_nonzero(neg))
    th = theta[:5].tolist()
    geom = geom.tolist()
    yhat = []
    nneg = 0
    for xi, z in zip(x.tolist(), nn_out.tolist()):
        a2, r, vsc, neg = _mm_row(th, xi, geom, False)
        nneg += neg
        yhat.append((M3S_TO_SM3H * a2 * r * vsc) * _softplus(z))
    return np.array(yhat, dtype=np.float64), nneg


def _ham_grad(net, theta, x, xs, geom, y, inv_var, grad):
    """ham_loss_grad on a network bound at offset 5 of theta and grad, into
    grad's zeros: (sse, forward, clamps)."""
    n = x.shape[-2]
    out, acts = _nn_forward(net, xs)
    nn_out = out[..., 0]
    if n >= COLUMN_ROWS:
        a2, r, vsc, neg, dr, dvsc = _mm_cols(theta, x, geom, True)
        base = M3S_TO_SM3H * a2 * r * vsc   # yhat = base * softplus(nn)
        mult = _softplus_cols(nn_out)
        yhat = base * mult
        sse, c = _residuals(y, yhat, inv_var)
        grad[..., :5] += _row_sum((c * M3S_TO_SM3H * a2 * mult)[..., None]
                                  * (dr * vsc[..., None] + r[..., None] * dvsc), -2)
        _nn_backward(net, acts, (c * base * _sigmoid_cols(nn_out))[..., None])
        return sse, yhat, int(np.count_nonzero(neg))
    th = theta[:5].tolist()
    geom = geom.tolist()
    inv_var = float(inv_var)
    g = [0.0] * 5
    sse = 0.0
    nneg = 0
    yhat = []
    delta_nn = []
    for xi, yi, z in zip(x.tolist(), y.tolist(), nn_out.tolist()):
        a2, r, vsc, neg, dr, dvsc = _mm_row(th, xi, geom, True)
        nneg += neg
        base = M3S_TO_SM3H * a2 * r * vsc   # yhat = base * softplus(nn)
        mult = _softplus(z)
        yh = base * mult
        yhat.append(yh)
        resid = yi - yh
        sse += resid * resid * inv_var
        c = -2.0 * resid * inv_var
        for j in range(5):
            g[j] += c * M3S_TO_SM3H * a2 * mult * (dr[j] * vsc + r * dvsc[j])
        delta_nn.append(c * base * _sigmoid(z))
    grad[:5] = g
    _nn_backward(net, acts, np.array(delta_nn, dtype=np.float64)[:, None])
    return sse, np.array(yhat, dtype=np.float64), nneg


def ham_loss_grad(theta, widths, x, xs, geom, y, inv_var):
    grad = np.zeros(theta.shape)
    sse, _, nneg = _ham_grad(_nn_bind(theta, 5, widths.tolist(), grad), theta, x, xs, geom, y,
                             inv_var, grad)
    return sse, grad, nneg


# ----------------------------------------------------------------------- MTL
# Parameter layout for dims = (d, P, h, L, M):
#   W01 (d,h), W02 (P,h), b0 (h)
#   per block l: Wl1 (h,h), bl1 (h), Wl2 (h,h), bl2 (h)
#   Wout (h,1), bout (1)
#   B (P,M) row-major; column j is the task embedding of well-index j
# Up to B this is a network of widths (d + P, h, ..., h, 1): W01 and W02 are
# the row blocks of its (d + P, h) input layer.


def _mtl_bind(theta, dims, grad=None):
    """MTL at theta bound for any number of passes, as _nn_bind binds a
    network, which it calls once for the trunk: (dot, layers, inp, bt, dbt,
    fits).  layers are the trunk's layers: residual block l is layers
    2l + 1 and 2l + 2, an (h, h, h) network, and the last layer the (h, 1)
    output.  inp holds the input layer's views (W01, W02, b0, dW01, dW02,
    db0); bt and dbt are the (..., M, P) views of B in theta and grad, and
    fits the leading index that pairs each stacked fit with its own rows
    (none for one fit).  The gradient views are None without grad."""
    d, p, h, nblk, m = dims.tolist()
    dot, layers = _nn_bind(theta, 0, [d + p] + [h] * (2 * nblk + 1) + [1], grad)
    w0, b0, dw0, db0 = layers[0]
    lead = theta.shape[:-1]
    bt = theta[..., -p * m:].reshape(lead + (p, m)).swapaxes(-1, -2)
    if grad is None:
        inp, dbt = (w0[..., :d, :], w0[..., d:, :], b0, None, None, None), None
    else:
        inp = (w0[..., :d, :], w0[..., d:, :], b0, dw0[..., :d, :], dw0[..., d:, :], db0)
        dbt = grad[..., -p * m:].reshape(lead + (p, m)).swapaxes(-1, -2)
    fits = () if theta.ndim == 1 else (np.arange(lead[0])[:, None],)
    return dot, layers, inp, bt, dbt, fits


def _mtl_forward(net, xs, wells):
    """(outputs, zs, acts, beta) of the bound MTL on xs and the task columns
    wells: zs is the residual stream (the input layer's output, then each
    block's sum), acts each block's _nn_forward activations and beta each
    row's task embedding."""
    dot, layers, (w01, w02, b0, _, _, _), bt, _, fits = net
    wout, bout, _, _ = layers[-1]
    # each row's task embedding: column wells[i] of B (of its own fit's B);
    # take gathers one fit's rows 2 to 3 times faster than an index array
    beta = bt[fits + (wells,)] if fits else bt.take(wells, 0)
    # the sums are in place, which saves a new array each: dot(xs, w01) +
    # dot(beta, w02) + b0 in that order, then each block's output r + z, which
    # equals z + r bit for bit (_nn_backward never reads a block's output)
    z = dot(xs, w01)
    z += dot(beta, w02)
    z += b0
    zs = [z]
    acts = []
    for i in range(1, len(layers) - 1, 2):
        z, a = _nn_forward((dot, layers[i:i + 2]), np.maximum(z, 0.0))
        z += zs[-1]
        zs.append(z)
        acts.append(a)
    # in column form at every row count: it is faster than the loop even at n = 1
    return _affine_cols(bout[..., 0], z, wout.swapaxes(-1, -2)), zs, acts, beta


def _mtl_grad(net, xs, wells, y, inv_var):
    """mtl_loss_grad on a bound MTL: adds the gradient into its views and
    returns (sse, forward)."""
    yhat, zs, acts, beta = _mtl_forward(net, xs, wells)
    sse, delta = _residuals(y, yhat, inv_var)
    dot, layers, (_, w02, _, dw01, dw02, db0), _, dbt, fits = net
    dz = _nn_backward((dot, layers[-1:]), zs[-1:], delta[..., None], True)
    for l in range(len(acts) - 1, -1, -1):
        block = (dot, layers[2 * l + 1:2 * l + 3])
        # a block's input is relu(zs[l]): its input gradient takes that mask
        dz += _relu_mask(_nn_backward(block, acts[l], dz, True), zs[l])
    dw01 += dot(np.ascontiguousarray(xs.swapaxes(-1, -2)), dz)
    dw02 += dot(np.ascontiguousarray(beta.swapaxes(-1, -2)), dz)
    db0 += dot(_ones(xs.shape[-2]), dz)
    # np.add.at applies rows in index order, so the rows of one well add up
    # as in a loop over rows; a per-well sum could reorder them.
    np.add.at(dbt, fits + (wells,), dot(dz, np.ascontiguousarray(w02.swapaxes(-1, -2))))
    return sse, yhat


def mtl_predict(theta, dims, xs, wells):
    return _mtl_forward(_mtl_bind(theta, dims), xs, wells)[0]


def mtl_loss_grad(theta, dims, xs, wells, y, inv_var):
    grad = np.zeros(theta.shape)
    return _mtl_grad(_mtl_bind(theta, dims, grad), xs, wells, y, inv_var)[0], grad


# ------------------------------------------------------------------ optimizer
# Flat-vector update steps: each element goes through the same roundings in
# the same order as a per-parameter loop, so the result is bit-identical to
# one.  The clamp equals the loop's "below lower, else above upper" test
# wherever lower <= upper and no value ties a zero bound of the other sign.
# The array steps write theta' into theta (Adam updates m and v in place
# too), working in a pair of scratch arrays of theta's shape that the caller
# may own; an in-place operation rounds as the expression it replaces.
# sgd_floats and adam_floats are the steps of one fit on Python floats, for
# the online-learning update of LR and MM.


def sgd_step(theta, grad, gamma_k, lower, upper, scratch=None):
    """One clipped SGD step, written into theta, which it returns; stacked
    fits at different steps give gamma_k as an (R, 1) column, one rate per
    row.  scratch: a pair of arrays of theta's shape to work in (made per
    call without it)."""
    s = np.empty(theta.shape) if scratch is None else scratch[0]
    np.multiply(gamma_k, grad, out=s)
    theta -= s
    np.maximum(theta, lower, out=theta)
    return np.minimum(theta, upper, out=theta)


def adam_step(theta, grad, m, v, k, gamma_k, beta1, beta2, eps, lower, upper, scratch=None):
    """One bias-corrected Adam step, written into theta, which it returns;
    updates m and v in place.  Stacked, theta, grad, m and v hold one row
    per fit and the bounds are shared; fits at different steps give k as a
    list, one step index per row, and gamma_k as an (R, 1) column.  scratch:
    as for sgd_step."""
    if isinstance(k, list):   # each row's bias corrections on Python floats, as one fit's
        c1 = np.array([1.0 - beta1 ** j for j in k])[:, None]
        c2 = np.array([1.0 - beta2 ** j for j in k])[:, None]
    else:
        c1, c2 = 1.0 - beta1 ** k, 1.0 - beta2 ** k
    s, t = (np.empty(theta.shape), np.empty(theta.shape)) if scratch is None else scratch
    m *= beta1
    np.multiply(1.0 - beta1, grad, out=s)
    m += s
    v *= beta2
    np.multiply(1.0 - beta2, grad, out=s)
    s *= grad
    v += s
    np.divide(m, c1, out=s)         # mhat
    np.divide(v, c2, out=t)         # vhat
    np.sqrt(t, out=t)
    t += eps
    s *= gamma_k
    s /= t                          # gamma_k * mhat / (sqrt(vhat) + eps)
    theta -= s
    np.maximum(theta, lower, out=theta)
    return np.minimum(theta, upper, out=theta)


def sgd_floats(theta, grad, prior, lower, upper, gamma_k):
    """sgd_step of one fit on lists of Python floats, in one pass over the
    entries with the prior's gradient term and the finite check: per entry,
    the data gradient from grad plus, where prior holds (mean, std) for it
    (None elsewhere), 2 * ((theta - mean) / std) / std, rounded as
    ``optim._Prior.add_grad`` rounds it; None at the first entry whose sum
    is not finite (the caller skips the update).  The clip is that of
    np.minimum(np.maximum(val, lower), upper): the bound on a tie (-0.0
    against 0.0 included), NaN if either side is NaN.  Returns theta' as a
    new list."""
    out = []
    for th, g, pr, lo, hi in zip(theta, grad, prior, lower, upper):
        if pr is not None:
            g += 2.0 * ((th - pr[0]) / pr[1]) / pr[1]
        if g - g != 0.0:   # inf or NaN
            return None
        val = th - gamma_k * g
        if not val > lo and val == val:
            val = lo
        if not val < hi and val == val:
            val = hi
        out.append(val)
    return out


def adam_floats(theta, grad, prior, lower, upper, gamma_k, m, v, c1, c2, beta1, beta2, eps):
    """adam_step of one fit on lists of Python floats, with the prior's term,
    the finite check and the clip of ``sgd_floats``; c1 and c2 are the bias
    corrections 1 - beta1**k and 1 - beta2**k.  Returns (theta', m', v') as
    new lists, or None at a non-finite gradient entry."""
    b1 = 1.0 - beta1
    b2 = 1.0 - beta2
    sqrt = math.sqrt
    out = []
    ms = []
    vs = []
    for th, g, pr, lo, hi, mi, vi in zip(theta, grad, prior, lower, upper, m, v):
        if pr is not None:
            g += 2.0 * ((th - pr[0]) / pr[1]) / pr[1]
        if g - g != 0.0:   # inf or NaN
            return None
        mi = mi * beta1 + b1 * g
        vi = vi * beta2 + b2 * g * g
        ms.append(mi)
        vs.append(vi)
        val = th - gamma_k * (mi / c1) / (sqrt(vi / c2) + eps)
        if not val > lo and val == val:
            val = lo
        if not val < hi and val == val:
            val = hi
        out.append(val)
    return out, ms, vs
