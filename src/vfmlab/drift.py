"""Two-sample mean-shift detection on input windows.

Statistic: HT2 = (mu1-mu2) (S1/N1 + S2/N2)^(-1) (mu1-mu2)^T, compared through
an F transform against F(d, N1+N2-d-1).  A reference window D1 stays fixed
while a short trailing window D2 slides over the incoming stream; a shift is
confirmed after `confirm_count` consecutive rejections, and the time from the
reference cut to the start of that run estimates how long a freshly trained
model stays valid.  A one-point trailing window (every window at the
default `d2_window` = 1, and the first point after the cut at any width) has
no covariance of its own, so the scan takes the reference window's S1 as its
S2.  The F transform scales HT2 by (N1+N2-d-1) / (d (N1+N2-2)).

The decision rule rejects equal means when the F statistic EXCEEDS the
critical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.special import betainc

from .core import WellDataset, float_strings, int_strings, text_table, time_strings
from .errors import ConfigError, DataError, DegenerateFeatureError

_REG = 1e-9


@dataclass(frozen=True)
class DriftConfig:
    alpha: float = 0.05
    confirm_count: int = 3
    d2_window: int = 1              # trailing-window width for the sliding sample

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if self.confirm_count < 1:
            raise ConfigError("confirm_count must be >= 1")
        if self.d2_window < 1:
            raise ConfigError("d2_window must be >= 1")


@dataclass(frozen=True)
class ShiftReport:
    """Per-observation scan results over the post-reference stream."""

    t: np.ndarray
    ht2: np.ndarray
    f_stat: np.ndarray
    f_crit: np.ndarray
    detected: np.ndarray            # bool: f_stat > f_crit at that point
    estimated_tau: float | None     # seconds from the reference cut, or None

    def __len__(self) -> int:
        return len(self.t)


def _regularized_inverse_apply(m: np.ndarray, rhs: np.ndarray,
                               var_diag: np.ndarray) -> np.ndarray:
    d = m.shape[0]
    reg = _REG * float(np.trace(m)) / d
    a = m + reg * np.eye(d)
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        sol = np.full(d, np.nan)
    if not np.all(np.isfinite(sol)):
        raise DegenerateFeatureError(int(np.argmin(var_diag)))
    return sol


def hotelling_t2(x1: np.ndarray, x2: np.ndarray) -> float:
    """Two-sample location statistic; columns are observations, rows features.

    A single-column second sample contributes no covariance of its own.
    """
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    x2 = np.atleast_2d(np.asarray(x2, dtype=np.float64))
    if x1.shape[0] != x2.shape[0]:
        raise DataError("samples must share the feature dimension")
    d, n1 = x1.shape
    n2 = x2.shape[1]
    if n1 < 2:
        raise DataError("first sample needs at least 2 observations")
    if n2 < 1:
        raise DataError("second sample is empty")
    mu1 = x1.mean(axis=1)
    mu2 = x2.mean(axis=1)
    s1 = np.atleast_2d(np.cov(x1, ddof=1))
    s2 = np.atleast_2d(np.cov(x2, ddof=1)) if n2 >= 2 else np.zeros((d, d))
    diff = mu1 - mu2
    if not np.any(diff):
        return 0.0
    # work in a per-feature standardized basis so the diagonal ridge does not
    # favor large-unit features; the statistic itself is scale-invariant
    scale = np.sqrt(np.diag(s1) + np.diag(s2))
    scale[scale == 0.0] = 1.0
    outer = np.outer(scale, scale)
    m = (s1 / n1 + s2 / n2) / outer
    sol = _regularized_inverse_apply(m, diff / scale, np.diag(s1) + np.diag(s2))
    return float((diff / scale) @ sol)


def f_cdf(x: float, d1: int, d2: int) -> float:
    if d1 < 1 or d2 < 1:
        raise ConfigError("degrees of freedom must be >= 1")
    if x <= 0.0:
        return 0.0
    return float(betainc(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2)))


def f_quantile(p: float, d1: int, d2: int) -> float:
    if not 0.0 < p < 1.0:
        raise ConfigError("p must lie in (0, 1)")
    if d1 < 1 or d2 < 1:
        raise ConfigError("degrees of freedom must be >= 1")
    hi = 1.0
    for _ in range(2100):
        if f_cdf(hi, d1, d2) >= p:
            break
        hi *= 2.0
    else:
        raise ArithmeticError("quantile bracket did not close")
    return float(brentq(lambda x: f_cdf(x, d1, d2) - p, 0.0, hi, xtol=1e-10))


def f_statistic(ht2: float, d: int, n1: int, n2: int) -> float:
    return ht2 * (n1 + n2 - d - 1) / (d * (n1 + n2 - 2))


def _scan(t: np.ndarray, x: np.ndarray, n1: int, cfg: DriftConfig) -> ShiftReport:
    n, d = x.shape
    d1 = x[:n1]
    mu1 = d1.mean(axis=0)
    s1 = np.atleast_2d(np.cov(d1.T, ddof=1))
    var1 = np.diag(s1)
    scale = np.sqrt(var1.copy())
    scale[scale == 0.0] = 1.0
    outer = np.outer(scale, scale)
    s1_std = s1 / outer

    n_scan = n - n1
    ht2 = np.empty(n_scan)
    f_stat = np.empty(n_scan)
    f_crit = np.empty(n_scan)
    crit_cache: dict[int, float] = {}
    for k in range(1, n_scan + 1):
        end = n1 + k
        w = min(cfg.d2_window, k)
        d2 = x[end - w:end]
        mu2 = d2.mean(axis=0)
        if w >= 2:
            s2 = np.atleast_2d(np.cov(d2.T, ddof=1)) / outer
        else:
            s2 = s1_std
        m = s1_std / n1 + s2 / w
        diff = (mu1 - mu2) / scale
        if not np.any(diff):
            h = 0.0
        else:
            sol = _regularized_inverse_apply(m, diff, var1 + np.diag(s2))
            h = float(diff @ sol)
        dof2 = n1 + w - d - 1
        if dof2 < 1:
            raise DataError("reference window too small for the feature count")
        crit = crit_cache.get(dof2)
        if crit is None:
            crit = f_quantile(1.0 - cfg.alpha, d, dof2)
            crit_cache[dof2] = crit
        ht2[k - 1] = h
        f_stat[k - 1] = f_statistic(h, d, n1, w)
        f_crit[k - 1] = crit
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


def estimate_update_frequency(train: WellDataset, t1_fraction: float,
                              cfg: DriftConfig) -> ShiftReport:
    """Scan the stream after an initial reference cut for an input-mean shift.

    The reference window is the first floor(t1_fraction * n) observations;
    every later point (or trailing window) is tested against it, and
    estimated_tau is the time from the cut to the start of the first run of
    confirm_count consecutive rejections.
    """
    if not 0.0 < t1_fraction < 1.0:
        raise ConfigError("t1_fraction must lie in (0, 1)")
    n, d = train.X.shape
    n1 = int(math.floor(t1_fraction * n))
    if n1 < d + 2:
        raise DataError(f"need at least {d + 2} observations before the cut, have {n1}")
    if n1 >= n:
        raise DataError("no observations after the cut")
    return _scan(train.t, train.X, n1, cfg)


def write_shift_csv(report: ShiftReport, path: str | Path) -> None:
    Path(path).write_text(text_table(
        "t,ht2,f_stat,f_crit,detected", time_strings(report.t), float_strings(report.ht2),
        float_strings(report.f_stat), float_strings(report.f_crit),
        int_strings(report.detected)))
