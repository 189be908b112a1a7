"""The scan's shift statistic, the F quantile, and the stream scanner."""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import hadamard

from vfmlab import (
    ConfigError,
    DataError,
    DriftConfig,
    WellDataset,
    estimate_update_frequency,
    f_quantile,
)
from vfmlab.drift import DegenerateFeatureError, f_statistic, write_shift_csv


def rows(X):
    """A stream of the given feature rows at t = 0, 1, 2, ..."""
    n = len(X)
    return WellDataset(np.arange(float(n)), X, np.full(n, 100.0),
                       np.zeros(n, np.uint8), np.ones(n, np.int64))


def scan(X, n1, cfg=DriftConfig()):
    """Scan with the reference cut after the first n1 rows."""
    return estimate_update_frequency(rows(X), (n1 + 0.5) / len(X), cfg)


# ------------------------------------------------------------------- statistic


def test_identical_samples_score_zero():
    ref = np.random.default_rng(0).normal(size=(20, 6))
    X = np.vstack([ref, np.tile(ref.mean(axis=0), (5, 1))])
    rep = scan(X, 20)
    assert rep.ht2.tolist() == [0.0] * 5
    assert not rep.detected.any()


def test_univariate_hand_example():
    # columns 1-6 of an 8 x 8 Hadamard matrix are orthogonal +-1 columns, so
    # the reference window has mean 0, variance 8/7 and no covariance; a point
    # moved by 4 in feature 0 alone reduces HT2 to a squared t statistic,
    # 4^2 / (8/7 / 8 + 8/7 / 1) = 112/9, and F scales it by (8+1-6-1) / (6 (8+1-2))
    X = np.vstack([hadamard(8)[:, 1:7], [4.0, 0, 0, 0, 0, 0]])
    rep = scan(X, 8)
    assert rep.ht2[0] == pytest.approx(112.0 / 9.0, rel=1e-8)
    assert rep.f_stat[0] == pytest.approx(112.0 / 9.0 * 2.0 / 42.0, rel=1e-8)
    assert rep.f_crit[0] == f_quantile(0.95, 6, 2)


def test_matches_linear_algebra_oracle():
    # every trailing window is one point, which takes S1 as its covariance
    rng = np.random.default_rng(1)
    n1 = 40
    A = np.eye(6) + 0.3 * rng.normal(size=(6, 6))
    X = rng.normal(size=(n1 + 25, 6)) @ A.T
    X[n1:] += rng.normal(size=6)
    rep = scan(X, n1)
    S1 = np.cov(X[:n1].T, ddof=1)
    for k, x in enumerate(X[n1:]):
        diff = X[:n1].mean(axis=0) - x
        want = float(diff @ np.linalg.solve(S1 * (1 / n1 + 1), diff))
        assert rep.ht2[k] == pytest.approx(want, rel=1e-6)


def test_statistic_is_invariant_to_common_affine_maps():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(45, 6))
    X[30:] += 0.5
    base = scan(X, 30).ht2
    scale = np.array([3.0, 0.25, 100.0, 1e-3, 7.0, 1e5])
    shift = np.array([5.0, -2.0, 1e4, 0.0, -1e-3, 3e6])
    np.testing.assert_allclose(scan(X * scale + shift, 30).ht2, base, rtol=1e-6)


def test_statistic_input_validation():
    for kw in ({"alpha": 0.0}, {"alpha": 1.0}, {"confirm_count": 0}):
        with pytest.raises(ConfigError):
            DriftConfig(**kw)
    for d1, d2 in ((0, 10), (2, 0)):
        with pytest.raises(ConfigError):
            f_quantile(0.95, d1, d2)


def test_degenerate_features():
    # one flat feature with a moved mean: the ridge keeps the solve finite,
    # and the certain shift dominates the statistic
    X = np.random.default_rng(3).normal(size=(40, 6))
    X[:20, 1] = 7.0
    X[20:, 1] = 9.0
    ht2 = scan(X, 20).ht2
    assert np.all(np.isfinite(ht2)) and ht2.min() > 1e6
    # every feature flat on both sides with differing means cannot be scored
    X = np.full((9, 6), 7.0)
    X[8:] = 9.0
    with pytest.raises(DegenerateFeatureError) as err:
        scan(X, 8)
    assert err.value.feature_index == 0


def test_f_statistic_scales_ht2():
    want = 6.0 * (30 + 1 - 2 - 1) / (2 * (30 + 1 - 2))
    assert f_statistic(6.0, 2, 30, 1) == pytest.approx(want)
    # one feature: HT2 is a squared t statistic, already F(1, N1+N2-2)
    assert f_statistic(6.0, 1, 30, 1) == 6.0


def run_fresh(code):
    """Run `code` in a new interpreter and return what it prints."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-1000:]
    return proc.stdout


def test_import_leaves_scipy_special_and_optimize_out():
    # scipy.special serves only the F quantile of detect, and scipy.optimize
    # serves nothing; importing either costs time and memory, so a command
    # that does not scan, such as config, must start without both
    out = run_fresh("import contextlib, io, sys, vfmlab, vfmlab.cli\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    "    code = vfmlab.cli.main(['config', '--defaults'])\n"
                    "print(code, 'scipy.special' in sys.modules, "
                    "'scipy.optimize' in sys.modules)")
    assert out == "0 False False\n"


# (p, d1, d2): the default scan's 1 - alpha at d = 6 features and the
# N1 - d of wells 1 and 4, then the tails and small and large dof
FDTRI_POINTS = [(0.95, 6, 182), (0.95, 6, 178), (0.5, 30, 30), (0.99, 1, 10),
                (0.01, 10, 500), (0.2, 2, 50), (1e-6, 3, 7)]


def test_f_quantile_loads_fdtri_on_first_use_and_returns_its_bits():
    out = run_fresh("import sys\n"
                    "from vfmlab import f_quantile\n"
                    "before = 'scipy.special' in sys.modules\n"
                    f"got = [f_quantile(*pt) for pt in {FDTRI_POINTS!r}]\n"
                    "after = 'scipy.special' in sys.modules\n"
                    "from scipy.special import fdtri\n"
                    f"want = [float(fdtri(d1, d2, p)) for p, d1, d2 in {FDTRI_POINTS!r}]\n"
                    "print(before, after, [g.hex() for g in got] == [w.hex() for w in want])")
    assert out == "False True True\n"


# -------------------------------------------------------------- F distribution


def f_density(x, d1, d2):
    lognum = (math.lgamma((d1 + d2) / 2) - math.lgamma(d1 / 2)
              - math.lgamma(d2 / 2) + (d1 / 2) * math.log(d1 / d2)
              + (d1 / 2 - 1) * math.log(x)
              - ((d1 + d2) / 2) * math.log1p(d1 * x / d2))
    return math.exp(lognum)


@pytest.mark.parametrize("d1,d2", [(1, 10), (2, 50), (6, 100), (10, 500), (30, 30)])
def test_f_cdf_matches_density_quadrature(d1, d2):
    # the F CDF, integrated from the density, is what f_quantile inverts
    for x in (0.3, 1.0, 2.5):
        p, err = integrate.quad(f_density, 0.0, x, args=(d1, d2))
        assert err < 1e-9
        assert f_quantile(p, d1, d2) == pytest.approx(x, rel=1e-8)


def test_f_quantile_rises_with_p_and_has_median_one_at_equal_dof():
    xs = [f_quantile(p, 4, 17) for p in np.linspace(0.01, 0.99, 40)]
    assert np.all(np.diff(xs) > 0)
    for k in (2, 7, 20):
        # equal numerator and denominator dof put the median exactly at one
        assert f_quantile(0.5, k, k) == pytest.approx(1.0, rel=1e-12)


def test_f_quantile_rejects_probabilities_outside_the_open_interval():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ConfigError):
            f_quantile(p, 2, 10)


# --------------------------------------------------------------------- scanner


BASE = np.array([0.5, 150e5, 90e5, 350.0, 0.30, 0.45])
SPREAD = np.array([0.04, 3e5, 2e5, 2.0, 0.04, 0.04])


def stream(n, seed=0, jump_at=None, jump_size=0.0):
    """Stationary full-rank feature noise, optional mean jump on two columns."""
    rng = np.random.default_rng(seed)
    X6 = BASE + SPREAD * rng.normal(size=(n, 6))
    if jump_at is not None:
        X6[jump_at:, 4] += jump_size * SPREAD[4]
        X6[jump_at:, 5] -= jump_size * SPREAD[5]
    t = np.arange(float(n))
    y = np.full(n, 100.0)
    return WellDataset(t, X6, y, np.zeros(n, np.uint8), np.ones(n, np.int64))


def test_stationary_stream_stays_quiet():
    ds = stream(240, seed=4)
    rep = estimate_update_frequency(ds, 0.4, DriftConfig(alpha=0.05,
                                                         confirm_count=3))
    assert rep.estimated_tau is None
    # marginal rejections happen at roughly the test level, never in runs
    assert rep.detected.mean() < 0.15


def test_large_jump_is_confirmed_at_onset():
    ds = stream(100, seed=5, jump_at=70, jump_size=5.0)
    cfg = DriftConfig(alpha=0.05, confirm_count=3)
    rep = estimate_update_frequency(ds, 0.4, cfg)
    assert rep.estimated_tau is not None
    # reference ends at t=39; the run should start at the jump, allowing a
    # short noise delay before three consecutive rejections line up
    assert 31.0 <= rep.estimated_tau <= 34.0
    assert len(rep) == 60
    assert rep.t[0] == 40.0


def test_rejection_rate_is_near_the_nominal_level():
    cfg = DriftConfig(alpha=0.05, confirm_count=1)
    rates = []
    for seed in range(8):
        rep = estimate_update_frequency(stream(400, seed=seed), 0.5, cfg)
        rates.append(rep.detected.mean())
    assert 0.01 <= float(np.mean(rates)) <= 0.12


def test_scanner_input_validation():
    ds = stream(50, seed=7)
    with pytest.raises(ConfigError):
        estimate_update_frequency(ds, 0.0, DriftConfig())
    with pytest.raises(ConfigError):
        estimate_update_frequency(ds, 1.0, DriftConfig())
    with pytest.raises(DataError):
        estimate_update_frequency(ds, 0.05, DriftConfig())  # 2 < 6 + 2 rows


def test_shift_report_csv_round_trip(tmp_path):
    ds = stream(80, seed=8, jump_at=60, jump_size=3.0)
    rep = estimate_update_frequency(ds, 0.5, DriftConfig())
    p = tmp_path / "shifts.csv"
    write_shift_csv(rep, p)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "t,ht2,f_stat,f_crit,detected"
    assert len(lines) == 1 + len(rep)
    cells = lines[1].split(",")
    assert float(cells[0]) == rep.t[0]
    assert float(cells[1]) == rep.ht2[0]
    assert float(cells[3]) == rep.f_crit[0]
    assert cells[4] in ("0", "1")


def test_shift_report_csv_keeps_fractional_seconds(tmp_path):
    ds = stream(80, seed=8, jump_at=60, jump_size=3.0)
    ds = WellDataset(1.7e9 + 0.5 * ds.t, ds.X, ds.y, ds.source, ds.well)
    rep = estimate_update_frequency(ds, 0.5, DriftConfig())
    p = tmp_path / "shifts.csv"
    write_shift_csv(rep, p)
    lines = p.read_text().strip().split("\n")
    assert [float(ln.split(",")[0]) for ln in lines[1:]] == rep.t.tolist()
    assert lines[2].startswith("1700000020.5,")
