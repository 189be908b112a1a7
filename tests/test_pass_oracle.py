"""The synthetic well generator and the drift scan against their
row-at-a-time references in ``tests/loop_passes.py``: every column of a
well, and every column of a shift report, bit for bit, and the same error
where the reference raises."""

import numpy as np
import pytest

import loop_passes
from conftest import quiet_scenario
from vfmlab import DriftConfig, StudyConfig, WellDataset, estimate_update_frequency
from vfmlab.drift import DegenerateFeatureError
from vfmlab.errors import ScenarioError
from vfmlab.synth import generate_stream


def assert_generates_as_the_reference(sc):
    assert loop_passes.stream_differences(sc) == []


# ------------------------------------------------------------------ generator


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_default_wells_equal_the_reference(seed):
    for sc in StudyConfig(seed=seed).scenario_objects():
        assert_generates_as_the_reference(sc)


NOISY = dict(noise_std_mpfm=0.05, noise_std_welltest=0.02, u_jitter=0.03, p_jitter_rel=0.01,
             temp_jitter=2.0, frac_jitter=0.02, horizon_days=60, obs_per_day=3.0,
             welltest_interval_days=7.0, u_profile=((0.0, 0.4), (20.0, 0.6), (50.0, 0.5)),
             fraction_drift={"eta_oil": (0.30, 0.25), "eta_gas": (0.40, 0.50)}, seed=3)
JITTERS = ("u_jitter", "p_jitter_rel", "temp_jitter", "frac_jitter")

BRANCHES = {
    "step-and-ramp": dict(real_drift_events=((10.0, "C_D", 0.7), (30.0, "kappa", 1.4)),
                          param_ramps=(("rho_oil", 15.0, 40.0, 900.0),)),
    "wobble": dict(param_wobble=(("C_D", 0.05, 3.0), ("M_gas", 0.1, 20.0))),
    "wobble-ramp-and-step": dict(real_drift_events=((5.0, "C_D", 0.6),),
                                 param_ramps=(("C_D", 20.0, 25.0, 0.9),),
                                 param_wobble=(("C_D", 0.02, 1.0),)),
    "no-mpfm-noise": dict(noise_std_mpfm=0.0),
    "no-welltest-noise": dict(noise_std_welltest=0.0),
    "no-noise": dict(noise_std_mpfm=0.0, noise_std_welltest=0.0),
    **{f"no-{name}": {name: 0.0} for name in JITTERS},
    "no-jitter": {name: 0.0 for name in JITTERS},
    # a well test every 10 days lands on a daily MPFM row and moves a second on
    "welltest-on-mpfm-row": dict(obs_per_day=1.0, welltest_interval_days=10.0),
    "welltest-only": dict(horizon_days=30, obs_per_day=0.01, welltest_interval_days=2.0),
    "empty": dict(horizon_days=1, obs_per_day=0.1, welltest_interval_days=5.0),
}


@pytest.mark.parametrize("patch", BRANCHES.values(), ids=BRANCHES.keys())
def test_each_branch_equals_the_reference(patch):
    assert_generates_as_the_reference(quiet_scenario(**{**NOISY, **patch}))


def test_the_welltest_branch_reaches_the_moved_row():
    ds = generate_stream(quiet_scenario(**{**NOISY, **BRANCHES["welltest-on-mpfm-row"]}))
    moved = ds.t[1:][np.diff(ds.t) == 1.0]
    assert moved.size == 5 and np.all(ds.source[np.isin(ds.t, moved)] == 1)


def test_a_failing_row_raises_as_the_reference():
    sc = quiet_scenario(**{**NOISY, "temp_k": 5.0, "temp_jitter": 3.0})
    assert_generates_as_the_reference(sc)
    with pytest.raises(ScenarioError, match="nonpositive pressure or temperature at t="):
        generate_stream(sc)


# ----------------------------------------------------------------------- scan


def assert_scans_as_the_reference(ds, t1_fraction, cfg=DriftConfig()):
    assert loop_passes.scan_differences(ds, t1_fraction, cfg) == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_scans_equal_the_per_point_solve(seed):
    cfg = StudyConfig(seed=seed)
    for ds in cfg.load_datasets().values():
        for t1_fraction in (cfg.t1_fraction, 0.3):
            assert_scans_as_the_reference(ds, t1_fraction, cfg.drift_config())


def rows(X):
    """A stream of a copy of the given feature rows at t = 0, 1, 2, ..."""
    n = len(X)
    return WellDataset(np.arange(float(n)), X.copy(), np.full(n, 100.0),
                       np.zeros(n, np.uint8), np.ones(n, np.int64))


def test_points_on_the_reference_mean_score_zero_as_the_reference():
    rng = np.random.default_rng(5)
    ref = rng.normal(size=(16, 6))
    later = rng.normal(size=(12, 6))
    later[[0, 4, 5, 11]] = ref.mean(axis=0)
    X = np.vstack([ref, later])
    assert_scans_as_the_reference(rows(X), 16.5 / 28)
    ht2 = estimate_update_frequency(rows(X), 16.5 / 28, DriftConfig()).ht2
    assert np.flatnonzero(ht2 == 0.0).tolist() == [0, 4, 5, 11]
    # every later point on the mean: nothing to solve
    X[16:] = ref.mean(axis=0)
    assert_scans_as_the_reference(rows(X), 16.5 / 28)


def test_a_degenerate_feature_raises_as_the_reference():
    X = np.full((9, 6), 7.0)
    X[8:] = 9.0
    assert_scans_as_the_reference(rows(X), 8.5 / 9)
    with pytest.raises(DegenerateFeatureError) as err:
        estimate_update_frequency(rows(X), 8.5 / 9, DriftConfig())
    assert err.value.feature_index == 0
