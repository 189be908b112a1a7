"""The loop kernels as they stood before the array rewrite, frozen as an oracle.

Each function is a verbatim copy of its ``vfmlab.kernels`` namesake in the
loop style (explicit per-row and per-parameter loops).  ``test_kernel_oracle``
asserts that the array-form kernels return exactly the same bits, so a
rewrite that reorders floating-point operations fails there.  Do not edit
these bodies: they are the reference.
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
