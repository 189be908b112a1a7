"""The loop kernels as they stood before the array and column rewrites, frozen
as an oracle.

Each function is a verbatim copy of its ``vfmlab.kernels`` namesake in the
loop style (explicit per-row and per-parameter loops).  ``test_kernel_oracle``
asserts that the optimizer steps and the LR, NN and MTL kernels return
exactly the same bits, so a rewrite that reorders floating-point operations
fails there; the MM, HEM and HAM kernels are held to a stated tolerance.  Do
not edit these bodies: they are the reference.
"""

import math

import numpy as np


def lr_predict(theta, xs):
    n, d = xs.shape
    w = theta[:d]
    b = theta[d]
    yhat = np.dot(xs, w)
    for i in range(n):
        yhat[i] += b
    return yhat


def nn_predict(theta, off, widths, xs):
    n = xs.shape[0]
    nl = widths.shape[0] - 1
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
        h = z
    out = np.empty(n)
    for i in range(n):
        out[i] = h[i, 0]
    return out


def _nn_backprop(theta, off, widths, xs, delta, grad):
    """Accumulate d(sum_i delta_i * nn_i)/dtheta into grad[off:...].

    Recomputes the forward pass to store activations. Returns nn outputs.
    """
    n = xs.shape[0]
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
    out = np.empty(n)
    for i in range(n):
        out[i] = h[i, 0]

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
    return out


def nn_loss_grad(theta, off, widths, xs, y, inv_var):
    n = xs.shape[0]
    yhat = nn_predict(theta, off, widths, xs)
    delta = np.empty(n)
    sse = 0.0
    for i in range(n):
        resid = y[i] - yhat[i]
        sse += resid * resid * inv_var
        delta[i] = -2.0 * resid * inv_var
    grad = np.zeros(theta.shape[0])
    _nn_backprop(theta, off, widths, xs, delta, grad)
    return sse, grad


def _mtl_forward(theta, dims, xs, wells):
    d = dims[0]
    p = dims[1]
    h = dims[2]
    nblk = dims[3]
    m = dims[4]
    n = xs.shape[0]

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

    beta = np.empty((n, p))
    for i in range(n):
        j = wells[i]
        for q in range(p):
            beta[i, q] = bmat[q * m + j]

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
    yhat = np.empty(n)
    for i in range(n):
        acc = bout
        for q in range(h):
            acc += z[i, q] * wout[q, 0]
        yhat[i] = acc
    return yhat, zs, h1s, a1s, beta


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
    delta = np.empty((n, 1))
    sse = 0.0
    for i in range(n):
        resid = y[i] - yhat[i]
        sse += resid * resid * inv_var
        delta[i, 0] = -2.0 * resid * inv_var

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
    for i in range(n):
        j = wells[i]
        for q in range(p):
            grad[b_pos + q * m + j] += dbeta[i, q]
    return sse, grad


def sgd_step(theta, grad, gamma_k, lower, upper):
    n = theta.shape[0]
    out = np.empty(n)
    for i in range(n):
        v = theta[i] - gamma_k * grad[i]
        if v < lower[i]:
            v = lower[i]
        elif v > upper[i]:
            v = upper[i]
        out[i] = v
    return out


def adam_step(theta, grad, m, v, k, gamma_k, beta1, beta2, eps, lower, upper):
    """One bias-corrected Adam step; mutates m and v in place, returns theta'."""
    n = theta.shape[0]
    out = np.empty(n)
    bc1 = 1.0 - beta1 ** k
    bc2 = 1.0 - beta2 ** k
    for i in range(n):
        g = grad[i]
        m[i] = beta1 * m[i] + (1.0 - beta1) * g
        v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
        mhat = m[i] / bc1
        vhat = v[i] / bc2
        val = theta[i] - gamma_k * mhat / (math.sqrt(vhat) + eps)
        if val < lower[i]:
            val = lower[i]
        elif val > upper[i]:
            val = upper[i]
        out[i] = val
    return out


# Physical constants and loop MM/HEM/HAM kernels, copied with the constants
# they use; the column forms in vfmlab.kernels agree with these to a stated
# tolerance (test_kernel_oracle).

GAS_R = 8.31446          # J/(mol K)
P_SC = 1.01325e5         # Pa, standard conditions
T_SC = 288.15            # K
M3S_TO_SM3H = 3600.0     # the radical yields m3/s at standard conditions


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


def _area(u, geom):
    return geom[0] * (geom[1] * u + geom[2] * u * u + geom[3] * u * u * u)


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
    non-C_D mechanistic parameters, order (rho_oil, rho_wat, kappa, M_gas, p_cr).

    At a clamped radicand (S <= 0) all derivatives are zero: the output is
    constant there.
    """
    dr = np.zeros(5)
    dvsc = np.zeros(5)

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
    dvsc[0] = -eo / (ro * ro)
    dvsc[1] = -ew / (rw * rw)
    dvsc[3] = -eg / (rgsc * mg)

    ck = kp / (kp - 1.0)
    tg = ck * eg * (1.0 / rg1 - pr / rg2)
    tl = (vo + vw) * (1.0 - pr)
    g = tg + tl
    s = 2.0 * rho2 * rho2 * p1 * g
    if s <= 0.0:
        return 0.0, vsc, dr, dvsc, 1
    r = math.sqrt(s)

    # rho_gas,2 sensitivities
    drg2_k = -rg2 * math.log(pr) / (kp * kp)
    drg2_m = rg2 / mg
    drg2_pc = rg2 / (kp * pr) if clamped else 0.0

    # throat mixture density via v2
    inv_rg2sq = eg / (rg2 * rg2)
    dv2 = np.zeros(5)
    dv2[0] = -eo / (ro * ro)
    dv2[1] = -ew / (rw * rw)
    dv2[2] = -inv_rg2sq * drg2_k
    dv2[3] = -inv_rg2sq * drg2_m
    dv2[4] = -inv_rg2sq * drg2_pc
    # drho2/dp = -rho2^2 * dv2/dp

    # radical inner term G
    dg = np.zeros(5)
    dg[0] = -(eo / (ro * ro)) * (1.0 - pr)
    dg[1] = -(ew / (rw * rw)) * (1.0 - pr)
    dck = -1.0 / ((kp - 1.0) * (kp - 1.0))
    dg[2] = dck * eg * (1.0 / rg1 - pr / rg2) + ck * eg * (pr / (rg2 * rg2)) * drg2_k
    dg[3] = -tg / mg
    if clamped:
        dg[4] = -eg / rg2 - (vo + vw)

    for i in range(5):
        drho2 = -rho2 * rho2 * dv2[i]
        ds = 2.0 * p1 * (2.0 * rho2 * drho2 * g + rho2 * rho2 * dg[i])
        dr[i] = ds / (2.0 * r)
    return r, vsc, dr, dvsc, 0


def lr_loss_grad(theta, xs, y, inv_var):
    n, d = xs.shape
    w = theta[:d]
    b = theta[d]
    grad = np.zeros(theta.shape[0])
    sse = 0.0
    for i in range(n):
        yh = b
        for j in range(d):
            yh += xs[i, j] * w[j]
        resid = y[i] - yh
        sse += resid * resid * inv_var
        c = -2.0 * resid * inv_var
        for j in range(d):
            grad[j] += c * xs[i, j]
        grad[d] += c
    return sse, grad


def mm_predict(theta, x, geom):
    n = x.shape[0]
    yhat = np.empty(n)
    nneg = 0
    for i in range(n):
        r, vsc, neg = _mm_parts(theta[0], theta[1], theta[2], theta[3], theta[4],
                                x[i, 1], x[i, 2], x[i, 3], x[i, 4], x[i, 5])
        nneg += neg
        yhat[i] = M3S_TO_SM3H * theta[5] * _area(x[i, 0], geom) * r * vsc
    return yhat, nneg


def mm_loss_grad(theta, x, geom, y, inv_var):
    n = x.shape[0]
    grad = np.zeros(theta.shape[0])
    sse = 0.0
    nneg = 0
    for i in range(n):
        r, vsc, dr, dvsc, neg = _mm_parts_grad(
            theta[0], theta[1], theta[2], theta[3], theta[4],
            x[i, 1], x[i, 2], x[i, 3], x[i, 4], x[i, 5])
        nneg += neg
        a2 = _area(x[i, 0], geom)
        base = M3S_TO_SM3H * theta[5] * a2
        yh = base * r * vsc
        resid = y[i] - yh
        sse += resid * resid * inv_var
        c = -2.0 * resid * inv_var
        for j in range(5):
            grad[j] += c * base * (dr[j] * vsc + r * dvsc[j])
        grad[5] += c * M3S_TO_SM3H * a2 * r * vsc
    return sse, grad, nneg


def hem_predict(theta, widths, x, xs, geom, nn_scale):
    ymm, nneg = mm_predict(theta, x, geom)
    ynn = nn_predict(theta, 6, widths, xs)
    return ymm + nn_scale * ynn, nneg


def hem_loss_grad(theta, widths, x, xs, geom, y, inv_var, nn_scale):
    n = x.shape[0]
    ymm, nneg = mm_predict(theta, x, geom)
    ynn = nn_predict(theta, 6, widths, xs)
    delta = np.empty(n)
    delta_nn = np.empty(n)
    sse = 0.0
    for i in range(n):
        resid = y[i] - (ymm[i] + nn_scale * ynn[i])
        sse += resid * resid * inv_var
        delta[i] = -2.0 * resid * inv_var
        delta_nn[i] = delta[i] * nn_scale
    grad = np.zeros(theta.shape[0])
    _nn_backprop(theta, 6, widths, xs, delta_nn, grad)
    for i in range(n):
        r, vsc, dr, dvsc, _ = _mm_parts_grad(
            theta[0], theta[1], theta[2], theta[3], theta[4],
            x[i, 1], x[i, 2], x[i, 3], x[i, 4], x[i, 5])
        a2 = _area(x[i, 0], geom)
        base = M3S_TO_SM3H * theta[5] * a2
        for j in range(5):
            grad[j] += delta[i] * base * (dr[j] * vsc + r * dvsc[j])
        grad[5] += delta[i] * M3S_TO_SM3H * a2 * r * vsc
    return sse, grad, nneg


def ham_predict(theta, widths, x, xs, geom):
    n = x.shape[0]
    nn_out = nn_predict(theta, 5, widths, xs)
    yhat = np.empty(n)
    nneg = 0
    for i in range(n):
        r, vsc, neg = _mm_parts(theta[0], theta[1], theta[2], theta[3], theta[4],
                                x[i, 1], x[i, 2], x[i, 3], x[i, 4], x[i, 5])
        nneg += neg
        yhat[i] = M3S_TO_SM3H * _area(x[i, 0], geom) * _softplus(nn_out[i]) * r * vsc
    return yhat, nneg


def ham_loss_grad(theta, widths, x, xs, geom, y, inv_var):
    n = x.shape[0]
    nn_out = nn_predict(theta, 5, widths, xs)
    grad = np.zeros(theta.shape[0])
    sse = 0.0
    nneg = 0
    delta_nn = np.empty(n)
    resids = np.empty(n)
    for i in range(n):
        r, vsc, dr, dvsc, neg = _mm_parts_grad(
            theta[0], theta[1], theta[2], theta[3], theta[4],
            x[i, 1], x[i, 2], x[i, 3], x[i, 4], x[i, 5])
        nneg += neg
        a2 = _area(x[i, 0], geom)
        base = M3S_TO_SM3H * a2 * r * vsc   # yhat = base * softplus(nn)
        mult = _softplus(nn_out[i])
        yh = base * mult
        resid = y[i] - yh
        resids[i] = resid
        sse += resid * resid * inv_var
        c = -2.0 * resid * inv_var
        for j in range(5):
            grad[j] += c * M3S_TO_SM3H * a2 * mult * (dr[j] * vsc + r * dvsc[j])
        delta_nn[i] = c * base * _sigmoid(nn_out[i])
    _nn_backprop(theta, 5, widths, xs, delta_nn, grad)
    return sse, grad, nneg
