"""Study configuration: one JSON file drives every command.

All defaults live here and print via `vfmlab config --defaults`.  Randomness
fans out from the single global seed through named substreams (scenario
generation, model init, batch shuffling, grid search), so a config file plus
the code pins every byte of the outputs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .core import SECONDS_PER_DAY, WellDataset, ingest_csv
from .drift import DriftConfig
from .errors import ConfigError
from .learning import ScheduleConfig
from .models import ChokeGeometry, MechanisticParams, ModelKind, MtlParams, NetworkShape
from .optim import EarlyStoppingConfig, LossSpec, Method, OptimizerConfig, PriorMode
from .synth import WellScenario, generate_stream

DEFAULT_KINDS = ("benchmark", "lr", "nn", "mtl", "mm", "hem", "ham")

_BASE_PBL_OPT = {"method": "Adam", "gamma0": 1e-3, "schedule": "constant",
                 "batch_size": 64, "seed": 0}

DEFAULT_SCHEDULES = (
    {"name": "OL", "mode": "ol", "steps": 10,
     "optimizer": {"method": "Adam", "gamma0": 1e-3, "schedule": "constant", "seed": 0},
     "per_kind": {"lr": {"gamma0": 5e-3},
                  "nn": {"gamma0": 2e-4}, "mtl": {"gamma0": 4e-4},
                  "hem": {"gamma0": 5e-4}, "ham": {"gamma0": 5e-3}}},
    {"name": "PBL-2w", "mode": "pbl", "period_days": 14.0,
     "optimizer": dict(_BASE_PBL_OPT)},
    {"name": "PBL-6m", "mode": "pbl", "period_days": 182.5,
     "optimizer": dict(_BASE_PBL_OPT)},
)

# five drifting wells: reservoir pressure declines and the choke opens over two
# years (input drift), while sustained discharge-coefficient slides plus a few
# parameter jumps age the physics (response drift)
DEFAULT_SCENARIOS = (
    {"well_id": 1, "horizon_days": 730, "obs_per_day": 1.0,
     "p1_start": 2.05e7, "p1_end": 1.50e7, "p2_start": 9.2e6, "p2_end": 8.4e6,
     "u_profile": [[0, 0.35], [180, 0.44], [550, 0.56], [730, 0.91]],
     "fraction_drift": {"eta_oil": [0.34, 0.27], "eta_gas": [0.38, 0.44]},
     "param_ramps": [["C_D", 230, 520, 0.70]],
     "real_drift_events": [[600, "M_gas", 0.0225]],
     "param_wobble": [["C_D", 0.13, 40]],
     "welltest_interval_days": 30.0,
     "noise_std_mpfm": 0.035, "noise_std_welltest": 0.015,
     "u_jitter": 0.04, "p_jitter_rel": 0.015, "temp_jitter": 1.0, "frac_jitter": 0.015},
    {"well_id": 2, "horizon_days": 730, "obs_per_day": 1.0,
     "p1_start": 2.10e7, "p1_end": 1.56e7, "p2_start": 9.5e6, "p2_end": 8.6e6,
     "u_profile": [[0, 0.30], [200, 0.40], [560, 0.55], [730, 0.87]],
     "fraction_drift": {"eta_oil": [0.36, 0.30], "eta_gas": [0.35, 0.42]},
     "param_ramps": [["C_D", 260, 730, 0.66]],
     "real_drift_events": [[450, "kappa", 1.42]],
     "param_wobble": [["C_D", 0.11, 35]],
     "welltest_interval_days": 60.0,
     "noise_std_mpfm": 0.035, "noise_std_welltest": 0.015,
     "u_jitter": 0.04, "p_jitter_rel": 0.015, "temp_jitter": 1.0, "frac_jitter": 0.015},
    {"well_id": 3, "horizon_days": 730, "obs_per_day": 1.0,
     "p1_start": 1.95e7, "p1_end": 1.44e7, "p2_start": 8.8e6, "p2_end": 8.1e6,
     "u_profile": [[0, 0.40], [250, 0.48], [555, 0.60], [730, 0.89]],
     "fraction_drift": {"eta_oil": [0.32, 0.26], "eta_gas": [0.40, 0.46]},
     "param_ramps": [["C_D", 400, 700, 0.68]],
     "real_drift_events": [[240, "C_D", 0.78]],
     "param_wobble": [["C_D", 0.14, 45]],
     "welltest_interval_days": 45.0,
     "noise_std_mpfm": 0.035, "noise_std_welltest": 0.015,
     "u_jitter": 0.04, "p_jitter_rel": 0.015, "temp_jitter": 1.0, "frac_jitter": 0.015},
    {"well_id": 4, "horizon_days": 730, "obs_per_day": 1.0,
     "p1_start": 2.00e7, "p1_end": 1.46e7, "p2_start": 9.0e6, "p2_end": 8.2e6,
     "u_profile": [[0, 0.33], [300, 0.46], [600, 0.60], [730, 0.85]],
     "fraction_drift": {"eta_oil": [0.35, 0.29], "eta_gas": [0.37, 0.43]},
     "param_ramps": [["C_D", 300, 620, 0.72]],
     "real_drift_events": [[520, "kappa", 1.18]],
     "param_wobble": [["C_D", 0.13, 38]],
     "welltest_interval_days": 85.0,
     "noise_std_mpfm": 0.035, "noise_std_welltest": 0.015,
     "u_jitter": 0.04, "p_jitter_rel": 0.015, "temp_jitter": 1.0, "frac_jitter": 0.015},
    {"well_id": 5, "horizon_days": 730, "obs_per_day": 1.0,
     "p1_start": 2.08e7, "p1_end": 1.52e7, "p2_start": 9.3e6, "p2_end": 8.5e6,
     "u_profile": [[0, 0.38], [150, 0.45], [565, 0.54], [730, 0.88]],
     "fraction_drift": {"eta_oil": [0.33, 0.27], "eta_gas": [0.39, 0.45]},
     "param_ramps": [["C_D", 220, 560, 0.70]],
     "real_drift_events": [[640, "M_gas", 0.0185]],
     "param_wobble": [["C_D", 0.12, 42]],
     "welltest_interval_days": 75.0,
     "noise_std_mpfm": 0.035, "noise_std_welltest": 0.015,
     "u_jitter": 0.04, "p_jitter_rel": 0.015, "temp_jitter": 1.0, "frac_jitter": 0.015},
)

DEFAULT_GRIDS = {
    "ol": {"gamma0": [1e-4, 1e-3, 5e-3, 1e-2], "steps": [1, 10, 20]},
    "pbl": {"gamma0": [1e-4, 1e-3, 1e-2]},
}


def _build(cls, section: str, kw: dict):
    """cls(**kw), with a key that is not a field of cls reported as a
    ConfigError naming the config section and the key."""
    unknown = sorted(set(kw) - {f.name for f in fields(cls) if f.init})
    if unknown:
        raise ConfigError(f"{section}: unknown keys {unknown}")
    return cls(**kw)


def _ocfg_from(base: dict, per_kind: dict, kind: str, section: str) -> OptimizerConfig:
    """base updated by the per_kind entry of kind.  per_kind is keyed by kind
    name in any case; a key that names no kind is a ConfigError."""
    kw = dict(base)
    want = ModelKind.from_str(kind)
    for key, entry in per_kind.items():
        try:
            key_kind = ModelKind.from_str(key)
        except ConfigError:
            raise ConfigError(f"{section}: per-kind entry {key!r} names no model kind") from None
        if key_kind is want:
            kw.update(entry)
    if "method" in kw:
        kw["method"] = Method.from_str(kw["method"])
    return _build(OptimizerConfig, f"{section} for {kind}", kw)


@dataclass(frozen=True)
class ScheduleSpec:
    """Config-level schedule: one learning method with per-kind optimizer tweaks."""

    name: str
    mode: str
    period_days: float | None = None
    steps: int | None = None
    window_days: float | None = None
    optimizer: dict = field(default_factory=dict)
    per_kind: dict = field(default_factory=dict)
    update_sources: tuple | None = None

    def __post_init__(self):
        if self.mode not in ("pbl", "ol"):
            raise ConfigError(f"schedule {self.name!r}: unknown mode {self.mode!r}")
        if self.mode == "pbl" and self.period_days is None:
            raise ConfigError(f"schedule {self.name!r}: pbl needs period_days")
        if self.mode == "ol" and self.steps is None:
            raise ConfigError(f"schedule {self.name!r}: ol needs steps")

    def optimizer_for(self, kind: str) -> OptimizerConfig:
        return _ocfg_from(self.optimizer, self.per_kind, kind,
                          f"schedule {self.name!r} optimizer")

    def to_schedule(self, kind: str, loss: LossSpec,
                    escfg: EarlyStoppingConfig) -> ScheduleConfig:
        if self.mode == "pbl":
            return ScheduleConfig(
                mode="pbl", ocfg=self.optimizer_for(kind), loss=loss,
                period_s=self.period_days * SECONDS_PER_DAY,
                window_s=None if self.window_days is None
                else self.window_days * SECONDS_PER_DAY,
                escfg=escfg, update_sources=self.update_sources)
        return ScheduleConfig(
            mode="ol", ocfg=self.optimizer_for(kind), loss=loss,
            steps=self.steps, escfg=escfg, update_sources=self.update_sources)


@dataclass(frozen=True)
class StudyConfig:
    seed: int = 0
    out_dir: str = "study_out"
    case: str = "all"                 # "all" | "welltest"
    split_day: float = 180.0
    kinds: tuple = DEFAULT_KINDS
    scenarios: tuple = DEFAULT_SCENARIOS
    csv_paths: tuple = ()
    schedules: tuple = DEFAULT_SCHEDULES
    grids: dict = field(default_factory=lambda: json.loads(json.dumps(DEFAULT_GRIDS)))
    drift: dict = field(default_factory=lambda: {"alpha": 0.05, "confirm_count": 3})
    t1_fraction: float = 0.25
    noise_rel: float = 0.05
    prior_mode: str = "Full"
    init_optimizer: dict = field(default_factory=lambda: dict(_BASE_PBL_OPT))
    init_per_kind: dict = field(default_factory=dict)
    early_stopping: dict = field(default_factory=lambda: {
        "val_fraction": 0.2, "patience": 10, "max_epochs": 100})
    metric_window_days: float = 14.0
    hidden: tuple = (32, 32)
    mtl_task_dim: int = 8
    mtl_blocks: int = 1

    def __post_init__(self):
        if self.case not in ("all", "welltest"):
            raise ConfigError(f"unknown case {self.case!r}")
        if not self.kinds:
            raise ConfigError("at least one model kind is required")
        if not self.schedules:
            raise ConfigError("at least one schedule is required")
        for k in self.kinds:
            ModelKind.from_str(k)
        if not self.scenarios and not self.csv_paths:
            raise ConfigError("either scenarios or csv_paths must provide data")

    # ---------------------------------------------------------- constructors

    @classmethod
    def from_dict(cls, d: dict) -> "StudyConfig":
        """The config of a parsed JSON object.  Every nested section is built
        once here, so a bad key or value anywhere fails before any work."""
        kw = dict(d)
        for name in ("kinds", "csv_paths"):
            if name in kw:
                kw[name] = tuple(kw[name])
        for name in ("scenarios", "schedules"):
            if name in kw:
                kw[name] = tuple(kw[name])
        if "hidden" in kw:
            kw["hidden"] = tuple(int(h) for h in kw["hidden"])
        cfg = _build(cls, "config", kw)
        specs = cfg.schedule_specs()
        escfg = cfg.escfg()
        for kind in cfg.kinds:
            cfg.init_ocfg_for(kind)
            for spec in specs:
                spec.to_schedule(kind, LossSpec(noise_std=1.0), escfg)
        cfg.drift_config()
        cfg.scenario_objects()
        return cfg

    def to_dict(self) -> dict:
        d = asdict(self)
        return json.loads(json.dumps(d))  # tuples to lists, canonical form

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def with_overrides(self, **kw) -> "StudyConfig":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw) if kw else self

    # --------------------------------------------------------------- helpers

    def schedule_specs(self) -> "list[ScheduleSpec]":
        specs = []
        for i, raw in enumerate(self.schedules):
            kw = dict(raw)
            for name in ("optimizer", "per_kind"):
                if name in kw and kw[name] is not None:
                    kw[name] = json.loads(json.dumps(kw[name]))
            if "update_sources" in kw and kw["update_sources"] is not None:
                kw["update_sources"] = tuple(kw["update_sources"])
            specs.append(_build(ScheduleSpec, f"schedules[{i}]", kw))
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ConfigError("schedule names must be unique")
        return specs

    def scenario_objects(self) -> "list[WellScenario]":
        out = []
        for i, raw in enumerate(self.scenarios):
            kw = dict(raw)
            kw.setdefault("seed", self.seed)
            if "u_profile" in kw:
                kw["u_profile"] = tuple((float(a), float(b)) for a, b in kw["u_profile"])
            if "fraction_drift" in kw:
                kw["fraction_drift"] = {k: (float(v[0]), float(v[1]))
                                        for k, v in kw["fraction_drift"].items()}
            if "real_drift_events" in kw:
                kw["real_drift_events"] = tuple(
                    (float(d), str(n), float(v)) for d, n, v in kw["real_drift_events"])
            if "param_ramps" in kw:
                kw["param_ramps"] = tuple(
                    (str(n), float(a), float(b), float(v))
                    for n, a, b, v in kw["param_ramps"])
            if "param_wobble" in kw:
                kw["param_wobble"] = tuple(
                    (str(n), float(s), float(c)) for n, s, c in kw["param_wobble"])
            if "true_params" in kw:
                kw["true_params"] = _build(MechanisticParams, f"scenarios[{i}].true_params",
                                           kw["true_params"])
            if "geometry" in kw:
                kw["geometry"] = _build(ChokeGeometry, f"scenarios[{i}].geometry",
                                        kw["geometry"])
            out.append(_build(WellScenario, f"scenarios[{i}]", kw))
        ids = [sc.well_id for sc in out]
        if len(set(ids)) != len(ids):
            raise ConfigError("scenario well_ids must be unique")
        return out

    def load_datasets(self) -> "dict[int, WellDataset]":
        if self.csv_paths:
            wells: dict[int, WellDataset] = {}
            for p in self.csv_paths:
                for ds in ingest_csv(p):
                    wid = ds.well_id
                    if wid in wells:
                        wells[wid] = WellDataset.merge([wells[wid], ds])
                    else:
                        wells[wid] = ds
            return wells
        return {sc.well_id: generate_stream(sc) for sc in self.scenario_objects()}

    def split_time(self, datasets: "dict[int, WellDataset] | None" = None) -> float:
        """split_day days after the study's start: the earliest timestamp of
        ``datasets`` (the wells as ``load_datasets`` returns them, required
        when the data come from ``csv_paths``), otherwise the earliest
        scenario ``t0``."""
        from .synth import DEFAULT_T0
        if self.csv_paths:
            if datasets is None:
                raise ConfigError("split_time of a csv_paths study needs its loaded datasets")
            t0 = min(float(ds.t[0]) for ds in datasets.values() if len(ds))
        else:
            t0 = min(int(raw.get("t0", DEFAULT_T0)) for raw in self.scenarios)
        return t0 + self.split_day * SECONDS_PER_DAY

    def drift_config(self) -> DriftConfig:
        return _build(DriftConfig, "drift", self.drift)

    def escfg(self) -> EarlyStoppingConfig:
        return _build(EarlyStoppingConfig, "early_stopping", self.early_stopping)

    def init_ocfg_for(self, kind: str) -> OptimizerConfig:
        """Optimizer for the shared initial fit (and tune-time batch fits)."""
        return _ocfg_from(self.init_optimizer, self.init_per_kind, kind, "init_optimizer")

    def prior(self) -> PriorMode:
        return PriorMode.from_str(self.prior_mode)

    def network_shape(self) -> NetworkShape:
        return NetworkShape(hidden=self.hidden)

    def mtl_params(self, well_ids) -> MtlParams:
        return MtlParams(well_ids=tuple(int(w) for w in well_ids),
                         task_dim=self.mtl_task_dim,
                         block_width=self.hidden[0] if self.hidden else 32,
                         n_blocks=self.mtl_blocks)


def load_config(path: str | Path) -> StudyConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} does not exist")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}: invalid JSON ({e})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    return StudyConfig.from_dict(raw)
