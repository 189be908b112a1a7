"""The row-at-a-time passes outside the fits as they stood before their
columnar rewrite, frozen as oracles.

``generate_stream`` is the synthetic well generator as it was then: per
row, scalar ``rng.standard_normal()`` draws in the order wobbles, jitters,
noise, a scalar ``np.interp``, a six-element input array and a one-row
``kernels.mm_predict``.  ``estimate_update_frequency`` is the Hotelling-T2
scan as it was then: one ``np.linalg.solve`` per scanned point.
``test_pass_oracle`` and ``tools/io_layer.py --smoke`` hold the package's
functions to these bit for bit, through ``stream_differences`` and
``scan_differences``.  Do not edit these bodies to follow a change
in the package: they are the reference.
"""

from __future__ import annotations

import math

import numpy as np

from vfmlab import kernels
from vfmlab.core import D_INPUT, SECONDS_PER_DAY, Source, WellDataset, substream
from vfmlab.drift import _REG, ShiftReport, f_quantile, f_statistic
from vfmlab.errors import ConfigError, DataError, DegenerateFeatureError, ScenarioError
from vfmlab.models import HARD_BOUNDS, MM_PARAM_NAMES
from vfmlab.synth import WellScenario


def _frac_at(sc, name: str, frac_of_horizon: float) -> float:
    start, end = sc.fraction_drift.get(name, (0.0, 0.0))
    return start + (end - start) * frac_of_horizon


def _ramp_value(v0: float, end_value: float, d0: float, d1: float, day: float) -> float:
    w = min(1.0, (day - d0) / (d1 - d0))
    return v0 + (end_value - v0) * w


def generate_stream(sc: WellScenario) -> WellDataset:
    """Simulate the scenario into a time-ordered single-well dataset."""
    rng = substream(sc.seed, f"synth.{sc.well_id}")
    geom = sc.geometry.as_array()
    u_days = np.array([k[0] for k in sc.u_profile])
    u_vals = np.array([k[1] for k in sc.u_profile])

    events = sorted(sc.real_drift_events)
    rows: list[tuple[int, Source]] = []
    dt = SECONDS_PER_DAY / sc.obs_per_day
    for i in range(sc.n_mpfm()):
        rows.append((sc.t0 + int(round(i * dt)), Source.MPFM))
    mpfm_times = {r[0] for r in rows}
    k = 1
    while k * sc.welltest_interval_days <= sc.horizon_days:
        tw = sc.t0 + int(round(k * sc.welltest_interval_days * SECONDS_PER_DAY))
        if tw in mpfm_times:
            tw += 1
        rows.append((tw, Source.WELLTEST))
        k += 1
    rows.sort(key=lambda r: r[0])

    theta = sc.true_params.as_array()
    ramps = [(MM_PARAM_NAMES.index(name), d0, d1, end_value)
             for name, d0, d1, end_value in sc.param_ramps]
    # exact Ornstein-Uhlenbeck transition between (irregular) row times
    wobbles = [[MM_PARAM_NAMES.index(name), rel_std, corr_days, 0.0,
                HARD_BOUNDS[name]] for name, rel_std, corr_days in sc.param_wobble]
    ev_idx = 0
    prev_day = 0.0
    ts, xs, ys, sources = [], [], [], []  # the dataset's columns, row by row
    for t, source in rows:
        day = (t - sc.t0) / SECONDS_PER_DAY
        frac = day / sc.horizon_days
        while ev_idx < len(events) and events[ev_idx][0] <= day:
            _, name, value = events[ev_idx]
            theta = theta.copy()
            theta[MM_PARAM_NAMES.index(name)] = value
            ev_idx += 1
        theta_eval = theta
        for idx, d0, d1, end_value in ramps:
            if day >= d0:
                if theta_eval is theta:
                    theta_eval = theta.copy()
                # steps on a ramped parameter at or past d0 are rejected up
                # front, so theta[idx] is the ramp's starting value
                theta_eval[idx] = _ramp_value(theta[idx], end_value, d0, d1, day)
        dt_days = day - prev_day
        prev_day = day
        for wob in wobbles:
            idx, rel_std, corr, w, (lo, hi) = wob
            decay = math.exp(-dt_days / corr)
            w = w * decay + rel_std * math.sqrt(1.0 - decay * decay) * rng.standard_normal()
            w = min(max(w, -3.0 * rel_std), 3.0 * rel_std)
            wob[3] = w
            if theta_eval is theta:
                theta_eval = theta.copy()
            v = theta_eval[idx] * (1.0 + w)
            theta_eval[idx] = min(max(v, lo + 1e-12), hi * (1.0 - 1e-9))

        u = float(np.interp(day, u_days, u_vals))
        p1 = sc.p1_start + (sc.p1_end - sc.p1_start) * frac
        p2 = sc.p2_start + (sc.p2_end - sc.p2_start) * frac
        temp = sc.temp_k
        eta_o = _frac_at(sc, "eta_oil", frac)
        eta_g = _frac_at(sc, "eta_gas", frac)
        if sc.u_jitter > 0:
            u = min(1.0, max(0.0, u + sc.u_jitter * rng.standard_normal()))
        if sc.p_jitter_rel > 0:
            p1 *= 1.0 + sc.p_jitter_rel * rng.standard_normal()
            p2 *= 1.0 + sc.p_jitter_rel * rng.standard_normal()
        if sc.temp_jitter > 0:
            temp += sc.temp_jitter * rng.standard_normal()
        if sc.frac_jitter > 0:
            eta_o = max(0.0, eta_o + sc.frac_jitter * rng.standard_normal())
            eta_g = max(0.0, eta_g + sc.frac_jitter * rng.standard_normal())
            s = eta_o + eta_g
            if s > 1.0:
                eta_o, eta_g = eta_o / s, eta_g / s
        p2 = min(p2, 0.98 * p1)
        if p1 <= 0 or p2 <= 0 or temp <= 0:
            raise ScenarioError(f"nonpositive pressure or temperature at t={t}")

        x = np.array([u, p1, p2, temp, eta_o, eta_g])
        y_true, _ = kernels.mm_predict(theta_eval, x[None, :], geom)
        y = float(y_true[0])
        if not math.isfinite(y):
            raise ScenarioError(f"flow evaluation failed at t={t}")
        std = sc.noise_std_welltest if source is Source.WELLTEST else sc.noise_std_mpfm
        if std > 0:
            y *= 1.0 + std * rng.standard_normal()
        ts.append(t)
        xs.append(x)
        ys.append(max(y, 0.0))
        sources.append(source)
    # rows are in time order, so the columns need no sort
    n = len(rows)
    return WellDataset(np.array(ts, dtype=np.float64), np.array(xs).reshape(n, D_INPUT),
                       np.array(ys), np.array(sources, dtype=np.uint8),
                       np.full(n, sc.well_id, dtype=np.int64))


def estimate_update_frequency(train: WellDataset, t1_fraction: float,
                              cfg: DriftConfig) -> ShiftReport:
    """Scan the stream after an initial reference cut for an input-mean shift.

    The reference window is the first floor(t1_fraction * n) observations;
    every later point is tested against it, and estimated_tau is the time from
    the cut to the start of the first run of confirm_count consecutive
    rejections.
    """
    if not 0.0 < t1_fraction < 1.0:
        raise ConfigError("t1_fraction must lie in (0, 1)")
    t, x = train.t, train.X
    n, d = x.shape
    n1 = int(math.floor(t1_fraction * n))
    if n1 < d + 2:
        raise DataError(f"need at least {d + 2} observations before the cut, have {n1}")
    if n1 >= n:
        raise DataError("no observations after the cut")

    d1 = x[:n1]
    mu1 = d1.mean(axis=0)
    s1 = np.cov(d1.T, ddof=1)
    var1 = np.diag(s1)
    # work in the reference window's standardized basis, so the diagonal
    # ridge does not favor large-unit features
    scale = np.sqrt(var1)
    scale[scale == 0.0] = 1.0
    s1_std = s1 / np.outer(scale, scale)
    m = s1_std / n1 + s1_std / 1
    a = m + _REG * float(np.trace(m)) / d * np.eye(d)
    degenerate = int(np.argmin(var1 + np.diag(s1_std)))
    crit = f_quantile(1.0 - cfg.alpha, d, n1 - d)

    diffs = (mu1 - x[n1:]) / scale
    ht2 = np.zeros(n - n1)
    for k, diff in enumerate(diffs):
        if not np.any(diff):
            continue
        try:
            sol = np.linalg.solve(a, diff)
        except np.linalg.LinAlgError:
            sol = np.full(d, np.nan)
        if not np.all(np.isfinite(sol)):
            raise DegenerateFeatureError(degenerate)
        ht2[k] = float(diff @ sol)
    f_stat = f_statistic(ht2, d, n1, 1)
    f_crit = np.full(n - n1, crit)
    detected = f_stat > f_crit

    tau = None
    run = 0
    for i, flag in enumerate(detected):
        run = run + 1 if flag else 0
        if run >= cfg.confirm_count:
            start = i - cfg.confirm_count + 1
            tau = float(t[n1 + start] - t[n1 - 1])
            break
    return ShiftReport(t=t[n1:].copy(), ht2=ht2, f_stat=f_stat, f_crit=f_crit,
                       detected=detected, estimated_tau=tau)


# --------------------------------------------------- comparison with vfmlab


def _differing_columns(have, want, names) -> list[str]:
    return [name for name in names
            if (getattr(have, name).dtype, getattr(have, name).shape,
                getattr(have, name).tobytes())
            != (getattr(want, name).dtype, getattr(want, name).shape,
                getattr(want, name).tobytes())]


def _outcome(fn, *args):
    """fn(*args), or the type and message of the package error it raised."""
    from vfmlab.errors import VfmlabError

    try:
        return fn(*args)
    except VfmlabError as e:
        return f"{type(e).__name__}: {e}"


def stream_differences(sc) -> list[str]:
    """How ``vfmlab.synth.generate_stream`` on one scenario differs from the
    reference: each column byte for byte, or the error raised.  An empty
    list when they agree."""
    from vfmlab import synth

    have, want = _outcome(synth.generate_stream, sc), _outcome(generate_stream, sc)
    where = f"well {sc.well_id} seed {sc.seed}"
    if isinstance(have, str) or isinstance(want, str):
        return [] if have == want else [f"{where}: generated {have!r:.200}, reference {want!r:.200}"]
    return [f"{where}: column {name} differs"
            for name in _differing_columns(have, want, ("t", "X", "y", "source", "well"))]


def scan_differences(ds, t1_fraction: float, cfg) -> list[str]:
    """How ``vfmlab.drift.estimate_update_frequency`` on one stream differs
    from the reference: each column of the report byte for byte and the
    estimated tau, or the error raised.  An empty list when they agree."""
    from vfmlab import drift

    have = _outcome(drift.estimate_update_frequency, ds, t1_fraction, cfg)
    want = _outcome(estimate_update_frequency, ds, t1_fraction, cfg)
    where = f"scan of {len(ds)} rows at {t1_fraction}"
    if isinstance(have, str) or isinstance(want, str):
        return [] if have == want else [f"{where}: gave {have!r:.200}, reference {want!r:.200}"]
    out = [f"{where}: column {name} differs" for name in
           _differing_columns(have, want, ("t", "ht2", "f_stat", "f_crit", "detected"))]
    if have.estimated_tau != want.estimated_tau:
        out.append(f"{where}: tau {have.estimated_tau}, reference {want.estimated_tau}")
    return out
