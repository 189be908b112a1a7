"""The three study workloads: their inputs, one pass of work, and its check.

All workloads use the default StudyConfig wells (five wells, 730 days, split
at day 180) generated from the run's seed.  They are closed loops: the
study is a batch job, so each pass replays its inputs as fast as the
learning loops consume them, one unit at a time in one process.  A unit is one
schedule x kind x well, or the merged wells for MTL.

* ``ol-stream``: online learning, lr and mm on all five wells (one well is
  too short to time), hem on well 1.  Every kernel call has n = 1: one
  predict, 10 loss gradients and 10 Adam steps per observation, so
  per-call overhead and the Python Adam loop dominate.  hem calls
  ``nn_predict`` inside its kernels and runs Adam at 1319 parameters.  An
  nn unit (1313 parameters) would add about 15 s a pass, more than the
  benchmark's repeated runs have time for; the kernel probe times
  ``nn_loss_grad`` at n = 1 instead.
* ``pbl-refit``: PBL-2w, mm and nn on well 1, 39 refits each.  ``fit_map``
  dominates, with kernels at n = 64 (validation batches of roughly 40 to
  150 rows), plus one predict per row between refits.  It is the kernel
  layer of ``ol-stream`` at another n: a rewrite that wins at n = 64 and
  loses at n = 1 shows as a gain here and a loss there.
* ``study-cli``: ``simulate -> tune -> run -> detect -> report`` through
  ``cli.main``, on CSVs that simulate wrote: all five wells, kinds
  benchmark, lr, mm and mtl (MTL on the merged five-well set), schedule
  PBL-6m.  ``tune`` searches the default PBL grid for lr and mm; ``run`` is
  called once per kind, as a user who picks kinds would, and ``report``
  aggregates the four logs into the study table.

A unit of ``ol-stream``/``pbl-refit`` is driven through the public API,
``init_model``/``fit_map`` then ``run_schedule``, with the settings the CLI
derives from the StudyConfig, and its log is written with ``write_log``.

One setting departs from the study's: each MAP fit runs a fixed number of
epochs (patience equals the epoch cap, so the best epoch is still kept).
Where early stopping ends a fit depends on the data, and it moved a pass's
work by up to a factor of two between seeds, more than any regression the
benchmark must detect.  ``FIT_EPOCHS`` holds the counts: for each group of
fits that share a setting (a unit's initial fits or refits of one kind, or
one CLI call), the row-weighted mean stopping epoch of that group's fits
under the default early stopping (patience 10, at most 100 epochs) at
seed 0.  So a pass spends the rows x epochs the default study spends there.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vfmlab import cli
from vfmlab.config import DEFAULT_SCHEDULES, StudyConfig
from vfmlab.core import EmptySplitWarning, WellDataset, chronological_split, fit_scaler
from vfmlab.errors import VfmlabError
from vfmlab.learning import read_log, run_schedule, write_log
from vfmlab.models import init_model
from vfmlab.optim import LossSpec, fit_map
from vfmlab.synth import generate_stream

from . import gate

WORKLOADS = ("ol-stream", "pbl-refit", "study-cli")
# fixed epochs of every MAP fit, by "<call site>:<kind>" on the unit
# workloads and by CLI call on study-cli
FIT_EPOCHS = {
    "ol-stream": {"initial:lr": 100, "initial:mm": 14, "initial:hem": 100},
    "pbl-refit": {"initial:mm": 15, "refit:mm": 17, "initial:nn": 100, "refit:nn": 48},
    "study-cli": {"tune": 59, "run:lr": 67, "run:mm": 15, "run:mtl": 28},
}


@dataclass(frozen=True)
class Unit:
    schedule: str
    kind: str
    well: int

    @property
    def name(self) -> str:
        return f"{self.schedule}__{self.kind}__w{self.well}"


@dataclass(frozen=True)
class Workload:
    """A workload: its config, and either units or CLI kinds.

    ``network_kinds`` are the workload's neural-network kinds (nn, hem or
    mtl); their time is reported as ``kind_s.network``.  ``fit_epochs``
    holds the fixed epochs of the MAP fits (see ``FIT_EPOCHS``); fits it
    does not name follow ``cfg.early_stopping``.
    """

    name: str
    cfg: StudyConfig
    network_kinds: tuple[str, ...]
    units: tuple[Unit, ...] = ()
    tune_kinds: tuple[str, ...] = ()
    fit_epochs: dict = field(default_factory=dict)

    @property
    def is_cli(self) -> bool:
        return not self.units


@dataclass
class Op:
    """One op: a unit's log, or one ``cli.main`` call, started at
    ``start`` (``time.perf_counter``) and lasting ``seconds``."""

    name: str
    kind: str | None
    seconds: float
    start: float = 0.0
    error: str | None = None
    meta: dict = field(default_factory=dict)


def _pbl_6m() -> dict:
    return next(s for s in DEFAULT_SCHEDULES if s["name"] == "PBL-6m")


def make_workload(name: str, seed: int) -> Workload:
    cfg = StudyConfig(seed=seed)
    epochs = FIT_EPOCHS.get(name)
    if name == "ol-stream":
        units = tuple(Unit("OL", k, w) for k in ("lr", "mm") for w in range(1, 6))
        return Workload(name, cfg, ("hem",), units + (Unit("OL", "hem", 1),), fit_epochs=epochs)
    if name == "pbl-refit":
        return Workload(name, cfg, ("nn",), (Unit("PBL-2w", "mm", 1), Unit("PBL-2w", "nn", 1)),
                        fit_epochs=epochs)
    if name == "study-cli":
        cfg = dataclasses.replace(cfg, kinds=("benchmark", "lr", "mm", "mtl"),
                                  schedules=(_pbl_6m(),))
        return Workload(name, cfg, ("mtl",), tune_kinds=("benchmark", "lr", "mm"),
                        fit_epochs=epochs)
    raise ValueError(f"unknown workload {name!r}")


def make_tiny_workload(name: str, seed: int = 0) -> Workload:
    """The workload's code path on a split near the horizon (a few test rows
    per unit), kinds lr and mm only, and fits of 3 epochs; used by the
    self-test."""
    wl = make_workload(name, seed)
    cfg = dataclasses.replace(wl.cfg, split_day=722.0, early_stopping=dict(
        wl.cfg.early_stopping, patience=3, max_epochs=3))
    if name == "ol-stream":
        return Workload(name, cfg, ("mm",), tuple(Unit("OL", k, w) for k in ("lr", "mm")
                                                  for w in (1, 2)))
    if name == "pbl-refit":
        schedules = cfg.schedules + ({"name": "PBL-2d", "mode": "pbl", "period_days": 2.0,
                                      "optimizer": dict(cfg.schedules[1]["optimizer"])},)
        cfg = dataclasses.replace(cfg, schedules=schedules)
        return Workload(name, cfg, ("mm",), (Unit("PBL-2d", "lr", 2), Unit("PBL-2d", "mm", 2)))
    pbl = dict(_pbl_6m(), name="PBL-3d", period_days=3.0)
    cfg = dataclasses.replace(cfg, kinds=("benchmark", "lr", "mm"), schedules=(pbl,),
                              grids={"pbl": {"gamma0": [1e-3]}})
    return Workload(name, cfg, ("lr",), tune_kinds=("benchmark", "lr"))


# ------------------------------------------------------------------- set-up


@dataclass
class Inputs:
    """What a pass needs: per-well splits, or the CLI config files."""

    splits: dict = field(default_factory=dict)
    configs: dict = field(default_factory=dict)


def fixed_epochs(cfg: StudyConfig, epochs: int | None) -> StudyConfig:
    """``cfg`` with every MAP fit running ``epochs`` epochs (None: unchanged)."""
    if epochs is None:
        return cfg
    return dataclasses.replace(cfg, early_stopping=dict(
        cfg.early_stopping, patience=epochs, max_epochs=epochs))


def _split(cfg: StudyConfig, ds: WellDataset):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=EmptySplitWarning)
        return chronological_split(ds, cfg.split_time())


def prepare(wl: Workload, work_dir: Path) -> Inputs:
    """Build the inputs of one run: generate the wells the units use, or
    write the config files the CLI commands read."""
    if not wl.is_cli:
        wells = {u.well for u in wl.units}
        return Inputs(splits={sc.well_id: _split(wl.cfg, generate_stream(sc))
                              for sc in wl.cfg.scenario_objects() if sc.well_id in wells})
    study_dir = work_dir / "study"
    csv_paths = tuple(str(study_dir / "data" / f"well_{sc.well_id}.csv")
                      for sc in wl.cfg.scenario_objects())
    base = dataclasses.replace(wl.cfg, out_dir=str(study_dir))
    on_csv = dataclasses.replace(base, csv_paths=csv_paths)
    configs = {"simulate": base, "tune": dataclasses.replace(on_csv, kinds=wl.tune_kinds)}
    configs.update({f"run:{k}": dataclasses.replace(on_csv, kinds=(k,)) for k in wl.cfg.kinds})
    configs.update({"detect": on_csv, "report": on_csv})
    cfg_dir = work_dir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for op, cfg in configs.items():
        paths[op] = cfg_dir / f"{op.replace(':', '_')}.json"
        paths[op].write_text(fixed_epochs(cfg, wl.fit_epochs.get(op)).to_json())
    return Inputs(configs=paths)


# --------------------------------------------------------------------- pass


def _drive_unit(wl: Workload, unit: Unit, split, path: Path) -> dict:
    cfg = wl.cfg
    spec = next(s for s in cfg.schedule_specs() if s.name == unit.schedule)

    def escfg(site: str):
        return fixed_epochs(cfg, wl.fit_epochs.get(f"{site}:{unit.kind}")).escfg()

    loss = LossSpec.from_data(split.train, rel=cfg.noise_rel, prior_mode=cfg.prior())
    m0 = init_model(unit.kind, shape=cfg.network_shape(), seed=cfg.seed,
                    scaler=fit_scaler(split.train))
    m0 = fit_map(m0, split.train, loss, cfg.init_ocfg_for(unit.kind), escfg("initial"))
    log = run_schedule(m0, split, spec.to_schedule(unit.kind, loss, escfg("refit")))
    write_log(log, path)
    return log.metadata


def _timed(op: Op, fn) -> Op:
    t0 = op.start = time.perf_counter()
    try:
        fn(op)
    except Exception:  # one broken op must not stop the run; it counts as failed
        op.error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        traceback.print_exc(file=sys.stderr)
    op.seconds = time.perf_counter() - t0
    return op


def output_dir(wl: Workload, work_dir: Path) -> Path:
    """Where a pass writes; the caller empties it before each pass."""
    return work_dir / ("study" if wl.is_cli else "logs")


def run_pass(wl: Workload, inputs: Inputs, work_dir: Path) -> list[Op]:
    """One pass over the workload's ops, in order."""
    out_dir = output_dir(wl, work_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    if not wl.is_cli:
        for unit in wl.units:
            def drive(op, unit=unit):
                op.meta = _drive_unit(wl, unit, inputs.splits[unit.well],
                                      out_dir / f"{unit.name}.csv")
            ops.append(_timed(Op(unit.name, unit.kind, 0.0), drive))
        return ops
    with open(work_dir / "cli_stdout.txt", "w") as out:
        for op_name, path in inputs.configs.items():
            def call(op, argv=[op_name.split(":")[0], "--config", str(path)]):
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                if code != 0:
                    op.error = f"exit code {code}"
            kind = op_name.split(":")[1] if ":" in op_name else None
            ops.append(_timed(Op(op_name, kind, 0.0), call))
    return ops


# -------------------------------------------------------------------- check


def _test_times(wl: Workload) -> dict[int, np.ndarray]:
    """Test-side timestamps of every well, from an independent generation."""
    return {sc.well_id: _split(wl.cfg, generate_stream(sc)).test.t
            for sc in wl.cfg.scenario_objects()}


def _judge(op: Op, check) -> None:
    """Run one output check; an output that cannot be read also fails the op."""
    if op.error:
        return
    try:
        problems = check()
    except (OSError, ValueError, IndexError, KeyError, VfmlabError) as e:
        problems = [f"unreadable output: {e!r}"]
    if problems:
        op.error = "; ".join(problems)


def check_pass(wl: Workload, inputs: Inputs, work_dir: Path, ops: list[Op],
               ref: dict | None, record: dict | None = None) -> None:
    """Set ``op.error`` on each op whose output is wrong.  With ``record``
    given, also collect the outputs in reference form."""
    split_time = wl.cfg.split_time()
    out_dir = output_dir(wl, work_dir)

    def keep(name: str, log, counts) -> list[str]:
        if record is not None:
            record["logs"][name] = gate.log_columns(log)
            record["counts"][name] = counts
        return [] if ref is None else gate.compare_unit(log, counts, ref, name)

    if not wl.is_cli:
        for op, unit in zip(ops, wl.units):
            def check_unit(op=op, unit=unit):
                log = read_log(out_dir / f"{unit.name}.csv")
                problems, counts = gate.check_unit_log(
                    log, op.meta, inputs.splits[unit.well].test.t, unit.well, unit.kind,
                    split_time)
                return problems + keep(unit.name, log, counts)
            _judge(op, check_unit)
        return

    by_name = {op.name: op for op in ops}
    tests = _test_times(wl)
    spec = wl.cfg.schedule_specs()[0]
    period_s = spec.period_days * 86400.0
    logs = {}
    for kind in wl.cfg.kinds:
        def check_log(kind=kind):
            name = f"{spec.name}__{kind}"
            log = logs[kind] = read_log(out_dir / "logs" / wl.cfg.case / f"{name}.csv")
            problems, refits = gate.check_study_log(log, kind, tests, split_time, period_s)
            return problems + keep(name, log, refits)
        _judge(by_name[f"run:{kind}"], check_log)

    def check_report():
        text = (out_dir / "reports" / f"summary_{wl.cfg.case}.csv").read_text()
        problems = gate.check_summary(text, logs, spec.name, wl.cfg.kinds)
        if record is not None:
            record["summary"] = text
        if ref is not None and text != ref["summary"]:
            problems.append("summary table differs from the reference")
        return problems

    def check_tune():
        lines = (out_dir / f"tuned_{wl.cfg.case}.csv").read_text().splitlines()[1:]
        tuned = sorted(k for k in wl.tune_kinds if k != "benchmark")
        if sorted(ln.split(",")[1] for ln in lines) != tuned or \
                not all(np.isfinite(float(ln.split(",")[-1])) for ln in lines):
            return [f"tune table does not hold one finite row per kind {tuned}"]
        return []

    def check_detect():
        lines = (out_dir / "detect" / "summary.csv").read_text().splitlines()[1:]
        if [int(ln.split(",")[0]) for ln in lines] != sorted(tests):
            return ["detect summary does not list every well"]
        return []

    _judge(by_name["report"], check_report)
    _judge(by_name["tune"], check_tune)
    _judge(by_name["detect"], check_detect)


def new_record(wl: Workload, seed: int) -> dict:
    return {"workload": wl.name, "seed": seed, "logs": {}, "counts": {}}
