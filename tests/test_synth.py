"""Synthetic stream generator: determinism, drift mechanisms, invariants."""

import hashlib

import numpy as np
import pytest

from vfmlab import (
    DriftConfig,
    MechanisticParams,
    ScenarioError,
    Source,
    StudyConfig,
    WellScenario,
    estimate_update_frequency,
    generate_stream,
    init_model,
    predict,
)
from vfmlab.core import invariant_codes

from conftest import count_sources, quiet_scenario

DAY = 86400.0


# --------------------------------------------------------------- scenario type


def test_scenario_rejects_bad_shapes():
    with pytest.raises(ScenarioError):
        quiet_scenario(horizon_days=0)
    with pytest.raises(ScenarioError):
        quiet_scenario(noise_std_mpfm=-0.1)
    with pytest.raises(ScenarioError):
        quiet_scenario(welltest_interval_days=0.0)
    with pytest.raises(ScenarioError):
        quiet_scenario(u_profile=((0.0, 1.4),))


def test_scenario_rejects_inconsistent_ramps():
    # end day before start day
    with pytest.raises(ScenarioError):
        quiet_scenario(param_ramps=(("C_D", 20.0, 10.0, 0.7),))
    # target outside the hard physical bounds
    with pytest.raises(ScenarioError):
        quiet_scenario(param_ramps=(("C_D", 5.0, 10.0, 99.0),))
    # unknown parameter name
    with pytest.raises(ScenarioError):
        quiet_scenario(param_ramps=(("C_X", 5.0, 10.0, 0.7),))
    # step event on the ramped parameter after the ramp starts is ambiguous
    with pytest.raises(ScenarioError):
        quiet_scenario(param_ramps=(("C_D", 5.0, 10.0, 0.7),),
                       real_drift_events=((6.0, "C_D", 0.9),))


def test_scenario_rejects_bad_wobble():
    with pytest.raises(ScenarioError):
        quiet_scenario(param_wobble=(("C_D", -0.1, 10.0),))
    with pytest.raises(ScenarioError):
        quiet_scenario(param_wobble=(("C_D", 0.5, 10.0),))
    with pytest.raises(ScenarioError):
        quiet_scenario(param_wobble=(("C_D", 0.1, 0.0),))


# ----------------------------------------------------------------- determinism


def test_same_scenario_and_seed_is_bit_identical():
    sc = quiet_scenario(noise_std_mpfm=0.05, u_jitter=0.02, seed=7,
                        param_wobble=(("C_D", 0.1, 20.0),))
    a = generate_stream(sc)
    b = generate_stream(sc)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.source, b.source)


# sha256 over the t, X, y, source and well bytes of the default well 1 at
# seed 0; any change to the simulator's data shows here
DEFAULT_WELL_1_SHA256 = "86e6719bce4897cc140c84c147cdb834736a56568ee5e4a9cbf1918dc1c47b54"


def test_default_well_1_columns_keep_their_bytes():
    ds = generate_stream(StudyConfig(seed=0).scenario_objects()[0])
    assert ds.well_id == 1 and len(ds) == 754
    h = hashlib.sha256()
    for col in (ds.t, ds.X, ds.y, ds.source, ds.well):
        h.update(col.tobytes())
    assert h.hexdigest() == DEFAULT_WELL_1_SHA256


def test_different_seed_changes_noise_draws():
    a = generate_stream(quiet_scenario(noise_std_mpfm=0.05, seed=1))
    b = generate_stream(quiet_scenario(noise_std_mpfm=0.05, seed=2))
    assert not np.array_equal(a.y, b.y)


# -------------------------------------------------------------- stationary case


def test_constant_noiseless_stream_has_identical_rows(tiny_stream):
    assert len(np.unique(tiny_stream.y)) == 1
    assert np.all(tiny_stream.y > 0)
    # exchangeable-stationary inputs: every row equals the first
    assert np.allclose(tiny_stream.X, tiny_stream.X[0], rtol=0, atol=0)


def test_row_counts_and_welltest_interleave():
    ds = generate_stream(quiet_scenario(horizon_days=100, obs_per_day=2.0,
                                        welltest_interval_days=10.0))
    mpfm, wt = count_sources(ds)
    assert mpfm == 200
    assert wt == 10
    wt_rows = ds.only_source(Source.WELLTEST)
    rel_days = (wt_rows.t - ds.t[0]) / DAY
    assert np.allclose(rel_days, 10.0 * np.arange(1, 11))


def test_welltest_noise_is_tighter_than_mpfm():
    sc = quiet_scenario(horizon_days=400, obs_per_day=1.0,
                        noise_std_mpfm=0.10, noise_std_welltest=0.01,
                        welltest_interval_days=5.0, seed=3)
    ds = generate_stream(sc)
    truth = generate_stream(quiet_scenario(horizon_days=400, obs_per_day=1.0,
                                           welltest_interval_days=5.0)).y[0]
    rel = np.abs(ds.y / truth - 1.0)
    assert rel[ds.source == 1].std() < 0.25 * rel[ds.source == 0].std()


# --------------------------------------------------------------- virtual drift


def test_pressure_decline_gives_decreasing_flow():
    sc = quiet_scenario(horizon_days=200, p1_start=2.0e7, p1_end=1.2e7)
    ds = generate_stream(sc)
    mpfm = ds.only_source(Source.MPFM)
    assert np.all(np.diff(mpfm.y) < 0)
    assert np.all(np.diff(mpfm.X[:, 1]) < 0)


def test_choke_opening_schedule_is_piecewise_linear():
    sc = quiet_scenario(horizon_days=100,
                        u_profile=((0.0, 0.2), (50.0, 0.6), (100.0, 0.6)))
    ds = generate_stream(sc).only_source(Source.MPFM)
    days = (ds.t - ds.t[0]) / DAY
    u = ds.X[:, 0]
    expected = np.interp(days, [0, 50, 100], [0.2, 0.6, 0.6])
    assert np.allclose(u, expected, atol=1e-12)
    assert np.all(np.diff(ds.y)[days[1:] <= 50.0] > 0)


def test_fraction_ramps_move_composition():
    sc = quiet_scenario(horizon_days=100,
                        fraction_drift={"eta_oil": (0.40, 0.20),
                                        "eta_gas": (0.30, 0.50)})
    ds = generate_stream(sc).only_source(Source.MPFM)
    assert ds.X[0, 4] == pytest.approx(0.40, abs=1e-9)
    assert ds.X[-1, 4] == pytest.approx(0.20, abs=5e-3)
    assert np.all(np.diff(ds.X[:, 4]) < 0)
    assert np.all(np.diff(ds.X[:, 5]) > 0)


# ------------------------------------------------------------------ real drift


def test_step_event_jumps_flow_without_touching_inputs():
    ev_day = 50.0
    sc = quiet_scenario(horizon_days=100,
                        real_drift_events=((ev_day, "C_D", 0.95),))
    ds = generate_stream(sc).only_source(Source.MPFM)
    days = (ds.t - ds.t[0]) / DAY
    before = ds.y[days < ev_day]
    after = ds.y[days >= ev_day]
    assert len(np.unique(before)) == 1
    assert len(np.unique(after)) == 1
    assert after[0] > before[0] * 1.05
    # inputs stay continuous through the jump
    assert np.allclose(ds.X, ds.X[0])


def test_parameter_ramp_slides_flow_between_plateaus():
    sc = quiet_scenario(horizon_days=100,
                        param_ramps=(("C_D", 20.0, 60.0, 0.66),))
    ds = generate_stream(sc).only_source(Source.MPFM)
    days = (ds.t - ds.t[0]) / DAY
    y = ds.y
    pre = y[days <= 20.0]
    post = y[days >= 60.0]
    mid = y[(days > 20.0) & (days < 60.0)]
    assert len(np.unique(pre)) == 1
    assert len(np.unique(post)) == 1
    assert post[0] < pre[0]
    assert np.all(np.diff(mid) < 0)

    # endpoint flow matches the choke equation at the ramp target
    target = MechanisticParams(C_D=0.66)
    m = init_model("mm", priors={"C_D": (0.66, 0.05)})
    vals = m.params.values.copy()
    vals[5] = 0.66
    object.__setattr__(m.params, "values", vals)
    x = ds.X[-1]
    assert post[-1] == pytest.approx(predict(m, x)[0], rel=1e-9)
    del target


def test_wobble_modulates_within_three_sigma():
    sc = quiet_scenario(horizon_days=300, obs_per_day=1.0,
                        param_wobble=(("C_D", 0.10, 30.0),), seed=5)
    base = generate_stream(quiet_scenario(horizon_days=300, obs_per_day=1.0)).y[0]
    ds = generate_stream(sc).only_source(Source.MPFM)
    rel = ds.y / base - 1.0
    assert rel.std() > 0.02           # the modulation is alive
    assert np.all(np.abs(rel) < 0.45)  # bounded by the 3 sigma clamp + response
    # mean reversion keeps the long-run average near the unmodulated level
    assert abs(rel.mean()) < 0.05


def test_wobble_free_fields_leave_stream_unchanged():
    a = generate_stream(quiet_scenario(noise_std_mpfm=0.03, seed=9))
    b = generate_stream(quiet_scenario(noise_std_mpfm=0.03, seed=9,
                                       param_ramps=(), param_wobble=()))
    assert np.array_equal(a.y, b.y)


# -------------------------------------------------------------------- probing


def flagged_fraction(ds, alpha):
    """Share of the second half's points that the drift scan flags, each
    point tested on its own against the first half at level alpha."""
    rep = estimate_update_frequency(ds, 0.5, DriftConfig(alpha=alpha, confirm_count=1))
    return float(np.mean(rep.detected))


def test_probe_sees_nothing_in_a_stationary_stream(tiny_stream):
    assert flagged_fraction(tiny_stream, alpha=0.05) == 0.0


def test_probe_flags_inserted_pressure_jump():
    sc = quiet_scenario(horizon_days=200, obs_per_day=1.0, p_jitter_rel=0.01,
                        seed=11)
    ds = generate_stream(sc)
    X = ds.X.copy()
    half = len(ds) // 2
    X[half:, 1] *= 1.08
    from vfmlab import WellDataset
    jumped = WellDataset(ds.t, X, ds.y, ds.source, ds.well)
    frac = flagged_fraction(jumped, alpha=0.05)
    assert frac > 0.4


def test_generated_stream_passes_ingestion_invariants(tiny_stream):
    ds = tiny_stream
    assert np.all(invariant_codes(ds.t, ds.X, ds.y) == -1)
