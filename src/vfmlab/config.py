"""Study configuration: one JSON file drives every command.

All defaults live here and print via `vfmlab config --defaults`.  Randomness
fans out from the single global seed through named substreams (scenario
generation, model init, batch shuffling, grid search), so a config file plus
the code pins every byte of the outputs.  Every section is read through one
reader driven by the dataclasses' field annotations, so a value of the wrong
type or shape is a ConfigError naming its path.
"""

from __future__ import annotations

import enum
import functools
import json
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .core import SECONDS_PER_DAY, WellDataset, ingest_csv
from .drift import DriftConfig
from .errors import ConfigError
from .learning import ScheduleConfig
from .models import ModelKind, MtlParams, NetworkShape
from .optim import EarlyStoppingConfig, LossSpec, OptimizerConfig, PriorMode, check_grids
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


def _object(section: str, raw) -> dict:
    """A copy of the config section raw; anything but a JSON object is a
    ConfigError naming the section."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{section}: must be a JSON object, not {raw!r}")
    return dict(raw)


# get_type_hints evaluates the string annotations (about 0.5 ms for
# WellScenario), and one load builds dozens of sections
_hints = functools.cache(typing.get_type_hints)
_SCALARS = {int: ("an integer", int), float: ("a number", (int, float)), str: ("a string", str)}


def _value(tp, raw, where: str):
    """The parsed JSON value raw read as the annotation tp, or a ConfigError
    naming its path where.  Dataclasses, enums, ``X | None``, tuples and
    dicts are read entry by entry; a scalar is checked, not converted (a
    float field takes an integer, a bool serves neither)."""
    args = typing.get_args(tp)
    if is_dataclass(tp):
        return _build(tp, where, raw)
    if isinstance(tp, enum.EnumMeta):
        try:
            return tp.from_str(raw)
        except ConfigError as e:
            raise ConfigError(f"{where}: {e}") from None
    if isinstance(tp, types.UnionType):
        return None if raw is None else _value(args[0], raw, where)
    if tuple in (tp, typing.get_origin(tp)):
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"{where}: must be a JSON array, not {raw!r}")
        if not args:
            return tuple(raw)
        if args[-1] is Ellipsis:
            args = args[:1] * len(raw)
        elif len(args) != len(raw):
            raise ConfigError(f"{where}: must hold {len(args)} entries, not {raw!r}")
        return tuple(_value(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, raw)))
    if dict in (tp, typing.get_origin(tp)):
        raw = _object(where, raw)
        return {k: _value(args[1], v, f"{where}.{k}") for k, v in raw.items()} if args else raw
    what, ok = _SCALARS[tp]
    if isinstance(raw, bool) or not isinstance(raw, ok):
        raise ConfigError(f"{where}: must be {what}, not {raw!r}")
    return raw


def _fields(cls, section: str, raw) -> dict:
    """The fields of cls that the JSON object raw sets, each read through
    _value; a key that is not a field of cls is a ConfigError naming the
    section (fields of the top-level section "config" are named without
    it)."""
    kw = _object(section, raw)
    unknown = sorted(set(kw) - {f.name for f in fields(cls) if f.init})
    if unknown:
        raise ConfigError(f"{section}: unknown keys {unknown}")
    prefix = "" if section == "config" else f"{section}."
    hints = _hints(cls)
    return {k: _value(hints[k], v, prefix + k) for k, v in kw.items()}


def _build(cls, section: str, raw):
    """cls built from the fields that the JSON object raw sets."""
    return cls(**_fields(cls, section, raw))


def _ocfg_from(base: dict, per_kind: dict, kind: str, section: str,
               per_kind_section: str) -> OptimizerConfig:
    """base updated by the per_kind entry of kind.  Every field is read with
    the path of the key that sets it, in base (section) or in an entry
    (per_kind_section and the entry's key), before the merge.  per_kind is
    keyed by kind name in any case; a key that names no kind, or an entry
    that is not a JSON object, is a ConfigError."""
    kw = _fields(OptimizerConfig, section, base)
    want = ModelKind.from_str(kind)
    for key, entry in _object(f"{section}: per-kind entries", per_kind).items():
        try:
            key_kind = ModelKind.from_str(key)
        except ConfigError:
            raise ConfigError(f"{section}: per-kind entry {key!r} names no model kind") from None
        entry = _object(f"{section}: per-kind entry {key!r}", entry)
        entry = _fields(OptimizerConfig, f"{per_kind_section}.{key}", entry)
        if key_kind is want:
            kw.update(entry)
    return OptimizerConfig(**kw)


def _seconds(days: float | None) -> float | None:
    return None if days is None else days * SECONDS_PER_DAY


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
    update_sources: tuple[str, ...] | None = None

    def optimizer_for(self, kind: str) -> OptimizerConfig:
        return _ocfg_from(self.optimizer, self.per_kind, kind,
                          f"schedule {self.name!r} optimizer", f"schedule {self.name!r} per_kind")

    def to_schedule(self, kind: str, loss: LossSpec,
                    escfg: EarlyStoppingConfig) -> ScheduleConfig:
        """The schedule of kind; ScheduleConfig refuses a field that its mode
        does not read."""
        ocfg = self.optimizer_for(kind)
        try:
            return ScheduleConfig(
                mode=self.mode, ocfg=ocfg, loss=loss, period_s=_seconds(self.period_days),
                steps=self.steps, window_s=_seconds(self.window_days), escfg=escfg,
                update_sources=self.update_sources)
        except ConfigError as e:
            raise ConfigError(f"schedule {self.name!r}: {e}") from None


@dataclass(frozen=True)
class StudyConfig:
    seed: int = 0
    out_dir: str = "study_out"
    case: str = "all"                 # "all" | "welltest"
    split_day: float = 180.0
    kinds: tuple = DEFAULT_KINDS
    scenarios: tuple = DEFAULT_SCENARIOS
    csv_paths: tuple[str, ...] = ()
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
    hidden: tuple[int, ...] = (32, 32)
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
        cfg = _build(cls, "config", d)
        cfg.prior()
        specs = cfg.schedule_specs()
        escfg = cfg.escfg()
        for kind in cfg.kinds:
            cfg.init_ocfg_for(kind)
            for spec in specs:
                spec.to_schedule(kind, LossSpec(noise_std=1.0), escfg)
        check_grids(cfg.grids)
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
        specs = [_build(ScheduleSpec, f"schedules[{i}]", raw)
                 for i, raw in enumerate(self.schedules)]
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ConfigError("schedule names must be unique")
        return specs

    def scenario_objects(self) -> "list[WellScenario]":
        out = []
        for i, raw in enumerate(self.scenarios):
            kw = _object(f"scenarios[{i}]", raw)
            kw.setdefault("seed", self.seed)
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
        return _ocfg_from(self.init_optimizer, self.init_per_kind, kind, "init_optimizer",
                          "init_per_kind")

    def prior(self) -> PriorMode:
        return _value(PriorMode, self.prior_mode, "prior_mode")

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
