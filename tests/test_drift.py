"""Shift statistics, F distribution helpers, and the stream scanner."""

import math

import numpy as np
import pytest
from scipy import integrate

from vfmlab import (
    ConfigError,
    DataError,
    DriftConfig,
    WellDataset,
    estimate_update_frequency,
    f_cdf,
    f_quantile,
    hotelling_t2,
)
from vfmlab.drift import DegenerateFeatureError, f_statistic, write_shift_csv


# ------------------------------------------------------------------- statistic


def test_identical_samples_score_zero():
    x = np.random.default_rng(0).normal(size=(3, 20))
    assert hotelling_t2(x, x.copy()) == 0.0


def test_univariate_hand_example():
    # x1 = {0, 2}: mean 1, variance 2 (ddof 1); two constant points at 6
    # carry no spread of their own, so T2 = 5^2 / (2/2 + 0/2) = 25
    x1 = np.array([[0.0, 2.0]])
    x2 = np.array([[6.0, 6.0]])
    assert hotelling_t2(x1, x2) == pytest.approx(25.0, rel=1e-8)


def test_matches_linear_algebra_oracle():
    rng = np.random.default_rng(1)
    d, n1, n2 = 3, 40, 25
    A = rng.normal(size=(d, d))
    x1 = A @ rng.normal(size=(d, n1))
    x2 = A @ rng.normal(size=(d, n2)) + rng.normal(size=(d, 1))
    got = hotelling_t2(x1, x2)
    diff = x1.mean(axis=1) - x2.mean(axis=1)
    m = np.cov(x1, ddof=1) / n1 + np.cov(x2, ddof=1) / n2
    want = float(diff @ np.linalg.solve(m, diff))
    assert got == pytest.approx(want, rel=1e-6)


def test_statistic_is_invariant_to_common_affine_maps():
    rng = np.random.default_rng(2)
    x1 = rng.normal(size=(4, 30))
    x2 = rng.normal(size=(4, 15)) + 0.5
    base = hotelling_t2(x1, x2)
    scale = np.array([[3.0], [0.25], [100.0], [1e-3]])
    shift = np.array([[5.0], [-2.0], [1e4], [0.0]])
    assert hotelling_t2(x1 * scale + shift, x2 * scale + shift) == \
        pytest.approx(base, rel=1e-6)


def test_statistic_input_validation():
    ok = np.zeros((2, 5))
    with pytest.raises(DataError):
        hotelling_t2(np.zeros((3, 5)), ok)
    with pytest.raises(DataError):
        hotelling_t2(np.zeros((2, 1)), ok)
    with pytest.raises(DataError):
        hotelling_t2(ok, np.zeros((2, 0)))


def test_degenerate_features():
    # one flat feature with a moved mean: the ridge keeps the solve finite,
    # and the certain shift dominates the statistic
    rng = np.random.default_rng(3)
    x1 = rng.normal(size=(3, 20))
    x2 = rng.normal(size=(3, 20))
    x1[1] = 7.0
    x2[1] = 9.0
    v = hotelling_t2(x1, x2)
    assert math.isfinite(v) and v > 1e6
    # every feature flat on both sides with differing means cannot be scored
    with pytest.raises(DegenerateFeatureError) as err:
        hotelling_t2(np.full((2, 5), 7.0), np.full((2, 4), 9.0))
    assert err.value.feature_index == 0


def test_f_statistic_scales_ht2():
    want = 6.0 * (30 + 1 - 2 - 1) / (2 * (30 + 1 - 2))
    assert f_statistic(6.0, 2, 30, 1) == pytest.approx(want)
    # one feature: HT2 is a squared t statistic, already F(1, N1+N2-2)
    assert f_statistic(6.0, 1, 30, 1) == 6.0


# -------------------------------------------------------------- F distribution


def f_density(x, d1, d2):
    lognum = (math.lgamma((d1 + d2) / 2) - math.lgamma(d1 / 2)
              - math.lgamma(d2 / 2) + (d1 / 2) * math.log(d1 / d2)
              + (d1 / 2 - 1) * math.log(x)
              - ((d1 + d2) / 2) * math.log1p(d1 * x / d2))
    return math.exp(lognum)


@pytest.mark.parametrize("d1,d2", [(1, 10), (2, 50), (6, 100), (10, 500), (30, 30)])
def test_f_cdf_matches_density_quadrature(d1, d2):
    for x in (0.3, 1.0, 2.5):
        want, err = integrate.quad(f_density, 0.0, x, args=(d1, d2))
        assert err < 1e-9
        assert f_cdf(x, d1, d2) == pytest.approx(want, abs=1e-8)


def test_f_cdf_bounds_and_symmetric_median():
    assert f_cdf(0.0, 3, 9) == 0.0
    assert f_cdf(1e8, 3, 9) == pytest.approx(1.0, abs=1e-6)
    xs = np.linspace(0.01, 5.0, 40)
    vals = [f_cdf(x, 4, 17) for x in xs]
    assert np.all(np.diff(vals) > 0)
    for k in (2, 7, 20):
        # equal numerator and denominator dof put the median exactly at one
        assert f_cdf(1.0, k, k) == pytest.approx(0.5, rel=1e-12)


def test_f_quantile_inverts_the_cdf():
    for d1, d2 in [(1, 10), (2, 38), (6, 100), (30, 500)]:
        for p in (0.5, 0.9, 0.95, 0.99):
            x = f_quantile(p, d1, d2)
            assert f_cdf(x, d1, d2) == pytest.approx(p, abs=1e-9)


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


def test_window_mode_pools_recent_observations():
    ds = stream(120, seed=6, jump_at=80, jump_size=2.0)
    one = estimate_update_frequency(ds, 0.5, DriftConfig(confirm_count=2,
                                                         d2_window=1))
    five = estimate_update_frequency(ds, 0.5, DriftConfig(confirm_count=2,
                                                          d2_window=5))
    assert five.estimated_tau is not None
    if one.estimated_tau is not None:
        assert five.estimated_tau <= one.estimated_tau + 5.0


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
