"""Synthetic nonstationary well streams.

Ground truth comes from the package's own choke equation evaluated at
time-varying "true" parameters.  Virtual drift enters through input ramps
(reservoir-pressure decline, choke-opening schedule, fraction ramps); real
drift enters as step changes to the true parameters at given times and as
sustained linear parameter ramps (gradual equipment wear).  Noise is
multiplicative relative Gaussian, with a tighter std for well-test rows than
for the continuous metering rows.

Everything is a pure function of the scenario, so wells can be generated in
parallel and regenerated bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .core import D_INPUT, SECONDS_PER_DAY, Source, WellDataset, substream
from .errors import ConfigError, ScenarioError
from .models import HARD_BOUNDS, MM_PARAM_NAMES, ChokeGeometry, MechanisticParams

DEFAULT_T0 = 1_609_459_200  # 2021-01-01T00:00:00Z


def _validated(params: MechanisticParams, name: str, value: float) -> None:
    """Name and target-value check, reported as a scenario problem."""
    try:
        params.with_value(name, value)
    except ConfigError as e:
        raise ScenarioError(str(e)) from None


@dataclass(frozen=True)
class WellScenario:
    """One well's simulated life: input schedules, true physics, noise, events."""

    horizon_days: int = 90
    obs_per_day: float = 24.0
    p1_start: float = 2.0e7
    p1_end: float = 2.0e7
    u_profile: tuple[tuple[float, float], ...] = ((0.0, 0.5),)  # (day, opening)
    fraction_drift: dict[str, tuple[float, float]] = field(default_factory=lambda: {
        "eta_oil": (0.30, 0.30), "eta_gas": (0.40, 0.40)})
    true_params: MechanisticParams = field(default_factory=MechanisticParams)
    noise_std_mpfm: float = 0.05
    noise_std_welltest: float = 0.02
    welltest_interval_days: float = 7.0
    real_drift_events: tuple[tuple[float, str, float], ...] = ()  # (day, name, value)
    # (name, start_day, end_day, end_value): the parameter slides linearly from
    # its value at start_day to end_value, then stays there
    param_ramps: tuple[tuple[str, float, float, float], ...] = ()
    # (name, rel_std, corr_days): mean-reverting multiplicative modulation of
    # the parameter, stationary std rel_std, correlation time corr_days
    param_wobble: tuple[tuple[str, float, float], ...] = ()
    seed: int = 0
    # remaining inputs and their spread; jitter makes data-driven fits possible
    well_id: int = 1
    t0: int = DEFAULT_T0
    p2_start: float = 9.0e6
    p2_end: float = 9.0e6
    temp_k: float = 333.15
    u_jitter: float = 0.0
    p_jitter_rel: float = 0.0
    temp_jitter: float = 0.0
    frac_jitter: float = 0.0
    geometry: ChokeGeometry = field(default_factory=ChokeGeometry)

    def __post_init__(self):
        if self.horizon_days <= 0:
            raise ScenarioError("horizon_days must be positive")
        if self.obs_per_day <= 0:
            raise ScenarioError("obs_per_day must be positive")
        if self.noise_std_mpfm < 0 or self.noise_std_welltest < 0:
            raise ScenarioError("noise stds must be nonnegative")
        if self.welltest_interval_days <= 0:
            raise ScenarioError("welltest_interval_days must be positive")
        if min(self.u_jitter, self.p_jitter_rel, self.temp_jitter, self.frac_jitter) < 0:
            raise ScenarioError("jitter magnitudes must be nonnegative")
        if not self.u_profile:
            raise ScenarioError("u_profile needs at least one knot")
        days = [k[0] for k in self.u_profile]
        if any(b < a for a, b in zip(days, days[1:])):
            raise ScenarioError("u_profile knots must be in day order")
        if any(not 0.0 <= k[1] <= 1.0 for k in self.u_profile):
            raise ScenarioError("u_profile values must lie in [0, 1]")
        unknown = set(self.fraction_drift) - {"eta_oil", "eta_gas"}
        if unknown:
            raise ScenarioError(f"unknown fractions {sorted(unknown)}")
        for at in (0, 1):
            o = self._frac_at("eta_oil", at)
            g = self._frac_at("eta_gas", at)
            if o < 0 or g < 0 or o + g > 1.0:
                raise ScenarioError("fraction ramps must keep eta_oil, eta_gas, "
                                    "and the water remainder in [0, 1]")
        if min(self.p1_start, self.p1_end, self.p2_start, self.p2_end, self.temp_k) <= 0:
            raise ScenarioError("pressures and temperature must be positive")
        for day, name, value in self.real_drift_events:
            _validated(self.true_params, name, value)
            if not 0.0 <= day <= self.horizon_days:
                raise ScenarioError(f"event at day {day} outside the horizon")
        for name, d0, d1, end_value in self.param_ramps:
            _validated(self.true_params, name, end_value)
            if not (0.0 <= d0 < d1):
                raise ScenarioError(f"ramp on {name} needs 0 <= start < end day")
            for ev_day, ev_name, _ in self.real_drift_events:
                if ev_name == name and ev_day >= d0:
                    raise ScenarioError(
                        f"step event on {name} at day {ev_day} overlaps its ramp")
        for name, rel_std, corr_days in self.param_wobble:
            self.true_params.value_of(name)
            if not 0.0 <= rel_std < 0.3:
                raise ScenarioError(f"wobble std on {name} must lie in [0, 0.3)")
            if corr_days <= 0:
                raise ScenarioError(f"wobble correlation time on {name} must be positive")

    def _frac_at(self, name: str, frac_of_horizon: float) -> float:
        start, end = self.fraction_drift.get(name, (0.0, 0.0))
        return start + (end - start) * frac_of_horizon

    def n_mpfm(self) -> int:
        return int(round(self.horizon_days * self.obs_per_day))


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
        eta_o = sc._frac_at("eta_oil", frac)
        eta_g = sc._frac_at("eta_gas", frac)
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
