"""Command-line orchestration of end-to-end studies.

Subcommands: simulate (scenarios to CSV), tune (hyperparameter grids), run
(the full prequential study), detect (input-shift scan per well), report
(rebuild reports/ from the logs), config (print defaults or echo a validated
file).

Every command is a pure function of (config, input files, seed): re-running
overwrites outputs with identical bytes.  Exit codes: 0 success, 1 config
error, 2 data error, 3 numeric failure.

run and tune use the cores, by one dealing rule (``optim._deal``, longest
first, through ``optim._fork``): run's lockstep fits of every kind split
across forked workers (``optim.fit_maps``) and so do its OL units
(``learning.run_schedules``), and tune deals its scoring jobs to them.
Under ``taskset -c 0`` either runs in one process, and its outputs, stdout,
exit code and stderr (but for run's stage seconds) are the same either way.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import StudyConfig, load_config
from .core import (DataSplit, EmptySplitWarning, Source, WellDataset,
                   chronological_split, fit_scaler, write_csv)
from .drift import estimate_update_frequency, write_shift_csv
from .errors import ConfigError, DataError, NumericError, VfmlabError
from .learning import PredictionLog, run_schedules, write_log, read_log
from .metrics import (SummaryTable, mape_details, summarize, save_plot, write_excluded_csv,
                      write_rolling_csv, write_summary_csv)
from .models import KIND_TABLE, ModelKind, init_model
from . import optim
from .optim import LossSpec, OptimizerConfig, fit_maps, grid_schedules, grid_search
from .synth import generate_stream

_CASE_FLAGS = ("all", "welltest")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage problems are config errors
        raise ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="vfmlab", description="passive-learning study runner")
    sub = p.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": "generate synthetic well CSVs from the configured scenarios",
        "tune": "grid-search optimizer settings per model and schedule",
        "run": "execute the full prequential study and write metrics",
        "detect": "scan each well for input-distribution shift",
        "report": "re-aggregate previously written prediction logs",
        "config": "print the default or validated configuration",
    }
    for name, help_text in commands.items():
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", metavar="PATH", default=None,
                       help="study config JSON (defaults used when omitted)")
        q.add_argument("--out", metavar="DIR", default=None,
                       help="output directory override")
        q.add_argument("--seed", type=int, default=None, help="global seed override")
        q.add_argument("--case", choices=_CASE_FLAGS, default=None,
                       help="train on all rows or well-test rows only")
        if name == "config":
            q.add_argument("--defaults", action="store_true",
                           help="print the built-in defaults and exit")
        if name == "report":
            q.add_argument("--plot", metavar="PATH", default=None,
                           help="also write rolling-error/box plots (svg or pdf)")
    return p


def _resolve_config(args) -> StudyConfig:
    cfg = load_config(args.config) if args.config else StudyConfig()
    return cfg.with_overrides(out_dir=args.out, seed=args.seed, case=args.case)


# ------------------------------------------------------------- study helpers


def _case_datasets(cfg: StudyConfig) -> tuple[dict[int, WellDataset], float]:
    """The wells of ``cfg.case`` and the split time, which is taken from all
    loaded rows, so the case filter does not move it."""
    datasets = cfg.load_datasets()
    t_split = cfg.split_time(datasets)
    if cfg.case == "welltest":
        datasets = {w: ds.only_source(Source.WELLTEST) for w, ds in datasets.items()}
    for w, ds in sorted(datasets.items()):
        if len(ds) == 0:
            raise DataError(f"well {w}: no observations under case={cfg.case!r}")
    return dict(sorted(datasets.items())), t_split


def _split_all(cfg: StudyConfig, datasets: dict[int, WellDataset], t_split: float):
    splits = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=EmptySplitWarning)
        for w, ds in datasets.items():
            sp = chronological_split(ds, t_split)
            if len(sp.train) < 2 or len(sp.test) == 0:
                raise DataError(f"well {w}: split at day {cfg.split_day} leaves "
                                f"{len(sp.train)} train / {len(sp.test)} test rows")
            splits[w] = sp
        merged = chronological_split(WellDataset.merge(list(datasets.values())), t_split)
    return splits, merged


def _holdout(train: WellDataset, name: str) -> DataSplit:
    """``train`` split before its last fifth of rows: the data on which tune
    fits its candidates (the train side) and scores them (the test side)."""
    cut = train.t[int(0.8 * len(train))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=EmptySplitWarning)
        sp = chronological_split(train, cut)
    if len(sp.train) < 2 or len(sp.test) == 0:
        raise DataError(f"{name}: the tune holdout of the last 20% of its training rows "
                        f"leaves {len(sp.train)} train / {len(sp.test)} test rows")
    return sp


def _initial_units(cfg: StudyConfig, kind: str, splits: dict, merged: DataSplit,
                   ocfg: OptimizerConfig) -> list:
    """(m0 fitted with ocfg, split, loss) per unit of kind: one per well of
    ``splits``, or for MTL one on ``merged``, whose tasks are every well of
    ``splits``.  The units' initial fits run in one lockstep
    (``optim.fit_maps``); a failure raises the error of the first failing
    unit, in well order."""
    kindk = ModelKind.from_str(kind)
    if kindk is ModelKind.MTL:
        parts, mtl = [merged], cfg.mtl_params(sorted(splits))
    else:
        parts, mtl = list(splits.values()), None
    units, failed = [], []
    for sp in parts:
        try:
            loss = LossSpec.from_data(sp.train, rel=cfg.noise_rel, prior_mode=cfg.prior())
            if kindk is ModelKind.BENCHMARK:
                m0 = init_model(kindk, seed=cfg.seed)
            else:
                m0 = init_model(kindk, shape=cfg.network_shape(), mtl=mtl, seed=cfg.seed,
                                scaler=fit_scaler(sp.train))
        except VfmlabError as e:   # raised once the wells before it are fitted
            failed.append(e)
            break
        units.append((m0, sp, loss))
    if kindk is not ModelKind.BENCHMARK:
        fitted = fit_maps([(m0, sp.train, loss) for m0, sp, loss in units], ocfg, cfg.escfg())
        failed[:0] = [f for f in fitted if isinstance(f, Exception)]
        units = [(m0, sp, loss) for (_, sp, loss), m0 in zip(units, fitted)]
    if failed:
        raise failed[0]
    return units


def _stage(name: str, units: int, t0: float, counts: str = "") -> None:
    """One progress line of ``run`` on stderr: a stage (initial fits of a
    kind, or one schedule x kind), its units, what they did, and its wall
    time since t0."""
    done = f"{units} unit" + "s" * (units != 1) + (f", {counts}" if counts else "")
    print(f"run: {name}: {done}, {time.perf_counter() - t0:.2f} s", file=sys.stderr)


def _write_reports(cfg: StudyConfig, logs: dict, plot: str | None = None) -> None:
    """Summarize the logs into reports/: the summary, excluded and rolling
    CSVs of ``cfg.case``, the plot if asked for, then the table on stdout."""
    table = summarize(logs, window_s=cfg.metric_window_days * 86400.0)
    rep_dir = Path(cfg.out_dir) / "reports"
    rep_dir.mkdir(parents=True, exist_ok=True)
    write_summary_csv(table, rep_dir / f"summary_{cfg.case}.csv")
    write_excluded_csv(table, rep_dir / f"excluded_{cfg.case}.csv")
    for (method, kind), rep in table.reports.items():
        write_rolling_csv(rep, rep_dir / f"rolling_{cfg.case}_{method}__{kind}.csv")
    if plot is not None:
        save_plot(table, plot)
        print(f"wrote {plot}")
    _print_table(table)


def _print_table(table: SummaryTable) -> None:
    # every cell opens with a space, so a value wider than its column (a
    # diverged fit's MAPE) still stands apart from its neighbours
    w = max(9, *(len(k) for k in table.kinds))
    print(f"{'method':<9} " + "".join(f" {k:>{w}}" for k in (*table.kinds, "All")))
    for i, method in enumerate(table.methods):
        print(f"{method:<9} " + "".join(f" {v:{w}.2f}"
                                        for v in (*table.cells[i], table.all_column[i])))
    if np.any(table.excluded):
        print("entries left out of the MAPE (zero targets, non-finite predictions):")
        for i, method in enumerate(table.methods):
            print(f"{method:<9} " + "".join(f" {v:{w}d}" for v in table.excluded[i]))


# ----------------------------------------------------------------- commands


def cmd_simulate(cfg: StudyConfig) -> int:
    if not cfg.scenarios:
        raise ConfigError("simulate needs scenarios in the config")
    out = Path(cfg.out_dir) / "data"
    out.mkdir(parents=True, exist_ok=True)
    for sc in cfg.scenario_objects():
        ds = generate_stream(sc)
        path = out / f"well_{sc.well_id}.csv"
        write_csv(path, [ds])
        print(f"wrote {path} ({len(ds)} rows)")
    return 0


# tune's cost model, by which its jobs are dealt: a job costs one for its
# initial fits and one per combination, times this weight for a kind with a
# network (NN, MTL, HEM, HAM; 1 for LR and MM).  Each default tune job run
# alone (2-core VM, one process): the four 14-combination network jobs took
# 2.35-2.94 s against 0.27-0.39 s for LR and MM, and the 2-combination ones
# 0.21-0.77 s against 0.06-0.12 s.  Dealt by this model, the two shares hold
# 8.2 and 7.5 s of those 15.7 s (8.7 and 7.0 s at weight 1, as at any
# weight from 2 to 100 the 8.2 and 7.5 s): the four long network jobs go two
# to a share first, and the short jobs fill in.
_NETWORK_JOB_WEIGHT = 10


def _job_cost(job) -> int:
    """The cost of a ``(kind, initial optimizer, schedules)`` job of tune."""
    kind, _, scheds = job
    entry = KIND_TABLE[ModelKind.from_str(kind)]
    return (1 + len(scheds)) * (_NETWORK_JOB_WEIGHT if entry.network or entry.multitask else 1)


def _score_jobs(cfg: StudyConfig, holdouts: dict, merged_holdout: DataSplit, jobs: list) -> list:
    """Per ``(kind, initial optimizer, schedules)`` job of `jobs`, per
    schedule its holdout score, or the error that scoring it raised: the
    job's holdout units are fitted once, with the initial optimizer, and
    every schedule starts from them.  An error is kept, not raised, so that
    ``cmd_tune`` raises it where a search in one process would meet it."""
    scored = []
    for kind, ocfg, scheds in jobs:
        try:
            units = _initial_units(cfg, kind, holdouts, merged_holdout, ocfg)
        except Exception as e:   # every schedule of the job meets it
            scored.append([e] * len(scheds))
            continue
        scores = []
        for sched in scheds:
            try:
                scores.append(_holdout_score(units, sched))
            except Exception as e:
                scores.append(e)
        scored.append(scores)
    return scored


def _holdout_score(units: list, sched) -> float:
    """The mean over wells of the MAPE of `sched` run on the holdout units;
    inf when a well has nothing scoreable."""
    logs = run_schedules([(m0, sp, replace(sched, loss=loss)) for m0, sp, loss in units])
    try:
        mapes = [mape_details(log, w)[0] for log in logs for w in log.well_ids()]
    except DataError:   # a well with nothing scoreable
        return math.inf
    return float(np.mean(mapes))


def cmd_tune(cfg: StudyConfig) -> int:
    """Per schedule and trainable kind, the grid combination with the lowest
    cross-well mean MAPE on the holdouts of the training period.

    Every combination is listed first and scored in a job of the
    combinations that share a kind and an initial optimizer (PBL's
    candidate optimizer, OL's ``init_optimizer``), whose holdout units are
    fitted once.  The jobs are dealt to min(CPUs, jobs) processes, longest
    first by :func:`_job_cost` (``optim._deal``), and run through
    ``optim._fork``.  Then ``optim.grid_search`` picks per schedule and
    kind, in the config's order, from the dealt outcomes: each
    combination's score, or the error its scoring raised, raised here as a
    search in one process would meet it.  So the picks, the errors, stdout
    and the CSV do not depend on the CPUs.  A pick on an edge of its grid
    also gets a line on stderr."""
    splits, merged = _split_all(cfg, *_case_datasets(cfg))
    holdouts = {w: _holdout(sp.train, f"well {w}") for w, sp in splits.items()}
    merged_holdout = _holdout(merged.train, "the merged wells")
    escfg = cfg.escfg()
    searches = []    # (schedule name, kind, grids, protocol), in search order
    jobs: dict = {}  # (kind, initial OptimizerConfig) -> its combinations' schedules
    for spec in cfg.schedule_specs():
        grids = cfg.grids.get(spec.mode)
        if not grids:
            continue
        for kind in cfg.kinds:
            if ModelKind.from_str(kind) is ModelKind.BENCHMARK:
                continue
            protocol = spec.to_schedule(kind, LossSpec(noise_std=1.0), escfg)
            searches.append((spec.name, kind, grids, protocol))
            for _, sched in grid_schedules(grids, protocol):
                # PBL's initial fit takes the candidate optimizer, OL's the study's
                ocfg = sched.ocfg if sched.mode == "pbl" else cfg.init_ocfg_for(kind)
                jobs.setdefault((kind, ocfg), []).append(sched)
    listed = [(kind, ocfg, scheds) for (kind, ocfg), scheds in jobs.items()]
    shares = optim._deal(listed, optim._fork_workers(len(listed)), _job_cost)
    outcomes = {}    # (kind, schedule) -> its score or error
    done = optim._fork(functools.partial(_score_jobs, cfg, holdouts, merged_holdout), shares)
    for share, scored in zip(shares, done):
        for (kind, _, scheds), scores in zip(share, scored):
            outcomes.update(((kind, sched), got) for sched, got in zip(scheds, scores))

    def score(kind: str, sched) -> float:
        got = outcomes[kind, sched]
        if isinstance(got, Exception):
            raise got
        return got

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["schedule,kind,method,gamma0,lr_schedule,power_a,steps,batch_size,score"]
    for name, kind, grids, protocol in searches:
        best, best_score = grid_search(grids, protocol, functools.partial(score, kind))
        o = best.ocfg
        # OL takes its steps per observation; only PBL's fits use a batch size
        if best.mode == "ol":
            steps, bs, knob = best.steps, "", f"steps={best.steps}"
        else:
            steps, bs = "", "" if o.batch_size is None else o.batch_size
            knob = f"batch_size={o.batch_size}"
        lines.append(f"{name},{kind},{o.method.value},{o.gamma0!r},"
                     f"{o.schedule},{o.power_a!r},{steps},{bs},{best_score!r}")
        print(f"{name}/{kind}: gamma0={o.gamma0} {knob} score={best_score:.3f}")
        for key, value in (("gamma0", o.gamma0), ("steps", best.steps),
                           ("batch_size", o.batch_size)):
            grid = [v for v in grids.get(key, ()) if v is not None]
            if len(set(grid)) > 1 and value in (min(grid), max(grid)):
                edge = "largest" if value == max(grid) else "smallest"
                print(f"{name}/{kind}: {key}={value} is the {edge} in its grid", file=sys.stderr)
    path = out / f"tuned_{cfg.case}.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


def cmd_run(cfg: StudyConfig) -> int:
    splits, merged = _split_all(cfg, *_case_datasets(cfg))
    log_dir = Path(cfg.out_dir) / "logs" / cfg.case
    log_dir.mkdir(parents=True, exist_ok=True)

    units_by_kind = {}
    for kind in cfg.kinds:
        t0 = time.perf_counter()
        units_by_kind[kind] = _initial_units(cfg, kind, splits, merged, cfg.init_ocfg_for(kind))
        _stage(f"initial fits {kind}", len(units_by_kind[kind]), t0)
    escfg = cfg.escfg()
    logs: dict[tuple[str, str], PredictionLog] = {}
    for spec in cfg.schedule_specs():
        for kind in cfg.kinds:
            t0 = time.perf_counter()
            parts = run_schedules([(m0, sp, spec.to_schedule(kind, loss, escfg))
                                   for m0, sp, loss in units_by_kind[kind]])
            log = parts[0] if len(parts) == 1 else PredictionLog.concat(parts)
            meta = log.metadata
            counts = (f"{meta['n_updates']} updates, {len(meta['skipped_updates'])} skipped"
                      if spec.mode == "ol" else
                      f"{meta['n_retrains']} refits, {len(meta['failed_periods'])} failed periods")
            _stage(f"{spec.name} {kind}", len(parts), t0, counts)
            logs[(spec.name, kind)] = log
            write_log(log, log_dir / f"{spec.name}__{kind}.csv")
    _write_reports(cfg, logs)
    return 0


def cmd_detect(cfg: StudyConfig) -> int:
    datasets, _ = _case_datasets(cfg)
    out = Path(cfg.out_dir) / "detect"
    out.mkdir(parents=True, exist_ok=True)
    dcfg = cfg.drift_config()
    lines = ["well_id,estimated_tau_days,n_flagged,n_scanned"]
    for w, ds in datasets.items():
        rep = estimate_update_frequency(ds, cfg.t1_fraction, dcfg)
        write_shift_csv(rep, out / f"well_{w}.csv")
        tau = "" if rep.estimated_tau is None else repr(rep.estimated_tau / 86400.0)
        lines.append(f"{w},{tau},{int(np.sum(rep.detected))},{len(rep)}")
        shown = "none" if rep.estimated_tau is None else f"{rep.estimated_tau / 86400.0:.1f} days"
        print(f"well {w}: tau = {shown}")
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    return 0


def cmd_report(cfg: StudyConfig, plot: str | None = None) -> int:
    log_dir = Path(cfg.out_dir) / "logs" / cfg.case
    if not log_dir.is_dir():
        raise DataError(f"{log_dir} does not exist; run the study first")
    logs = {}
    for path in sorted(log_dir.glob("*.csv")):
        stem = path.stem
        if "__" not in stem:
            continue
        method, kind = stem.split("__", 1)
        logs[(method, kind)] = read_log(path)
    if not logs:
        raise DataError(f"no prediction logs under {log_dir}")
    _write_reports(cfg, logs, plot)
    return 0


def cmd_config(cfg: StudyConfig, defaults: bool) -> int:
    print((StudyConfig() if defaults else cfg).to_json(), end="")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "tune":
            return cmd_tune(cfg)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "detect":
            return cmd_detect(cfg)
        if args.command == "report":
            return cmd_report(cfg, plot=args.plot)
        return cmd_config(cfg, defaults=args.defaults)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except VfmlabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
