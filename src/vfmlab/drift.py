"""Two-sample mean-shift detection on input windows.

Statistic: HT2 = (mu1-mu2) (S1/N1 + S2/N2)^(-1) (mu1-mu2)^T, compared through
an F transform against F(d, N1+N2-d-1).  A reference window D1 of N1 points
stays fixed, and every later point is tested against it as a one-point
trailing window D2 (N2 = 1); a shift is confirmed after `confirm_count`
consecutive rejections, and the time from the reference cut to the start of
that run estimates how long a freshly trained model stays valid.  A one-point
window has no covariance of its own, so the scan takes the reference window's
S1 as its S2: the matrix S1/N1 + S1/1, its ridge and the critical value of
F(d, N1-d) are the same at every point.  The F transform scales HT2 by
(N1+N2-d-1) / (d (N1+N2-2)), and the F quantile is `scipy.special.fdtri`.
`fdtri` is imported on the first `f_quantile` call, not with the module:
importing `scipy.special` takes 0.2-0.25 s and 18-25 MB (2-vCPU x86 VM,
scipy 1.17), and only `detect` needs it, so every other command starts
without it.

The decision rule rejects equal means when the F statistic EXCEEDS the
critical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import WellDataset, float_strings, int_strings, text_table, time_strings
from .errors import ConfigError, DataError, DegenerateFeatureError

_REG = 1e-9


@dataclass(frozen=True)
class DriftConfig:
    alpha: float = 0.05
    confirm_count: int = 3

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if self.confirm_count < 1:
            raise ConfigError("confirm_count must be >= 1")


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


def f_quantile(p: float, d1: int, d2: int) -> float:
    if not 0.0 < p < 1.0:
        raise ConfigError("p must lie in (0, 1)")
    if d1 < 1 or d2 < 1:
        raise ConfigError("degrees of freedom must be >= 1")
    from scipy.special import fdtri
    return float(fdtri(d1, d2, p))


def f_statistic(ht2: float, d: int, n1: int, n2: int) -> float:
    return ht2 * (n1 + n2 - d - 1) / (d * (n1 + n2 - 2))


def estimate_update_frequency(train: WellDataset, t1_fraction: float,
                              cfg: DriftConfig) -> ShiftReport:
    """Scan the stream after an initial reference cut for an input-mean shift.

    The reference window is the first floor(t1_fraction * n) observations;
    every later point is tested against it, and estimated_tau is the time from
    the cut to the start of the first run of confirm_count consecutive
    rejections.

    Every point whose difference from the reference mean is nonzero is
    solved against the same matrix in one batched ``np.linalg.solve``: the
    matrix broadcast to one copy per point, each against its own one-column
    right-hand side, which LAPACK solves as it solves a lone point, bit for
    bit.  The multi-right-hand-side form ``solve(a, diffs.T)`` rounds
    differently (it changed the statistic on every default well), and each
    point's ``diff @ sol`` stays its own dot product for the same reason.
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
    moved = np.flatnonzero(diffs.any(axis=1))
    if moved.size:
        try:
            sols = np.linalg.solve(np.broadcast_to(a, (moved.size, d, d)),
                                   diffs[moved, :, None])[..., 0]
        except np.linalg.LinAlgError:
            sols = np.full((moved.size, d), np.nan)
        if not np.all(np.isfinite(sols)):
            raise DegenerateFeatureError(degenerate)
        ht2[moved] = [float(diff @ sol) for diff, sol in zip(diffs[moved], sols)]
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


def write_shift_csv(report: ShiftReport, path: str | Path) -> None:
    Path(path).write_text(text_table(
        "t,ht2,f_stat,f_crit,detected", time_strings(report.t), float_strings(report.ht2),
        float_strings(report.f_stat), float_strings(report.f_crit),
        int_strings(report.detected)))
