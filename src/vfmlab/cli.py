"""Command-line orchestration of end-to-end studies.

Subcommands: simulate (scenarios to CSV), tune (hyperparameter grids), run
(the full prequential study), detect (input-shift scan per well), report
(re-aggregate logs), config (print defaults or echo a validated file).

Every command is a pure function of (config, input files, seed): re-running
overwrites outputs with identical bytes.  Exit codes: 0 success, 1 config
error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from .config import StudyConfig, load_config
from .core import (DataSplit, EmptySplitWarning, Source, WellDataset,
                   chronological_split, fit_scaler, write_csv)
from .drift import estimate_update_frequency, write_shift_csv
from .errors import ConfigError, DataError, NumericError, VfmlabError
from .learning import PredictionLog, run_schedule, write_log, read_log
from .metrics import (SummaryTable, summarize, save_plot, write_excluded_csv,
                      write_rolling_csv, write_summary_csv)
from .models import ModelKind, init_model
from .optim import LossSpec, fit_map, grid_search
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


def _initial_units(cfg: StudyConfig, kind: str, splits: dict,
                   merged: DataSplit) -> list:
    """(well_or_None, fitted m0, split, loss) per driver instance; the initial
    fit is shared by every schedule."""
    kindk = ModelKind.from_str(kind)
    escfg = cfg.escfg()
    if kindk is ModelKind.MTL:
        train = merged.train
        loss = LossSpec.from_data(train, rel=cfg.noise_rel, prior_mode=cfg.prior())
        m0 = init_model(kindk, shape=cfg.network_shape(),
                        mtl=cfg.mtl_params(train.well_ids), seed=cfg.seed,
                        scaler=fit_scaler(train))
        m0 = fit_map(m0, train, loss, cfg.init_ocfg_for(kind), escfg)
        return [(None, m0, merged, loss)]
    units = []
    for w, sp in splits.items():
        loss = LossSpec.from_data(sp.train, rel=cfg.noise_rel, prior_mode=cfg.prior())
        if kindk is ModelKind.BENCHMARK:
            m0 = init_model(kindk, seed=cfg.seed)
        else:
            m0 = init_model(kindk, shape=cfg.network_shape(), seed=cfg.seed,
                            scaler=fit_scaler(sp.train))
            m0 = fit_map(m0, sp.train, loss, cfg.init_ocfg_for(kind), escfg)
        units.append((w, m0, sp, loss))
    return units


def _print_table(table: SummaryTable) -> None:
    width = max(10, *(len(k) for k in table.kinds))
    head = "method".ljust(10) + "".join(k.rjust(width) for k in table.kinds)
    print(head + "All".rjust(width))
    for i, method in enumerate(table.methods):
        row = method.ljust(10)
        row += "".join(f"{table.cells[i, j]:{width}.2f}" for j in range(len(table.kinds)))
        row += f"{table.all_column[i]:{width}.2f}"
        print(row)
    if np.any(table.excluded):
        print("entries left out of the MAPE (zero targets, non-finite predictions):")
        for i, method in enumerate(table.methods):
            print(method.ljust(10) + "".join(f"{v:{width}d}" for v in table.excluded[i]))


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


def cmd_tune(cfg: StudyConfig) -> int:
    datasets, t_split = _case_datasets(cfg)
    splits, merged = _split_all(cfg, datasets, t_split)
    trains = [sp.train for sp in splits.values()]
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["schedule,kind,method,gamma0,lr_schedule,power_a,steps,batch_size,score"]
    for spec in cfg.schedule_specs():
        grids = cfg.grids.get(spec.mode)
        if not grids:
            continue
        for kind in cfg.kinds:
            kindk = ModelKind.from_str(kind)
            if kindk is ModelKind.BENCHMARK:
                continue
            protocol = spec.to_schedule(kind, LossSpec(noise_std=1.0), cfg.escfg())
            best, score = grid_search(
                kindk, grids, trains, protocol, init_ocfg=cfg.init_ocfg_for(kind),
                loss_rel=cfg.noise_rel, escfg=cfg.escfg(), shape=cfg.network_shape(),
                mtl=cfg.mtl_params(sorted(datasets)) if kindk is ModelKind.MTL else None,
                seed=cfg.seed)
            o = best.ocfg
            # OL takes its steps per observation; only PBL's fits use a batch size
            if best.mode == "ol":
                steps, bs, knob = best.steps, "", f"steps={best.steps}"
            else:
                steps, bs = "", "" if o.batch_size is None else o.batch_size
                knob = f"batch_size={o.batch_size}"
            lines.append(f"{spec.name},{kind},{o.method.value},{o.gamma0!r},"
                         f"{o.schedule},{o.power_a!r},{steps},{bs},{score!r}")
            print(f"{spec.name}/{kind}: gamma0={o.gamma0} {knob} score={score:.3f}")
    path = out / f"tuned_{cfg.case}.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


def cmd_run(cfg: StudyConfig) -> int:
    splits, merged = _split_all(cfg, *_case_datasets(cfg))
    out = Path(cfg.out_dir)
    log_dir = out / "logs" / cfg.case
    rep_dir = out / "reports"
    log_dir.mkdir(parents=True, exist_ok=True)
    rep_dir.mkdir(parents=True, exist_ok=True)

    units_by_kind = {kind: _initial_units(cfg, kind, splits, merged)
                     for kind in cfg.kinds}
    escfg = cfg.escfg()
    logs: dict[tuple[str, str], PredictionLog] = {}
    for spec in cfg.schedule_specs():
        for kind in cfg.kinds:
            parts = []
            for _, m0, sp, loss in units_by_kind[kind]:
                sched = spec.to_schedule(kind, loss, escfg)
                parts.append(run_schedule(m0, sp, sched))
            log = parts[0] if len(parts) == 1 else PredictionLog.concat(parts)
            logs[(spec.name, kind)] = log
            write_log(log, log_dir / f"{spec.name}__{kind}.csv")

    window_s = cfg.metric_window_days * 86400.0
    table = summarize(logs, window_s=window_s)
    write_summary_csv(table, rep_dir / f"summary_{cfg.case}.csv")
    write_excluded_csv(table, rep_dir / f"excluded_{cfg.case}.csv")
    for (method, kind), rep in table.reports.items():
        write_rolling_csv(rep, rep_dir / f"rolling_{cfg.case}_{method}__{kind}.csv")
    _print_table(table)
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
    table = summarize(logs, window_s=cfg.metric_window_days * 86400.0)
    rep_dir = Path(cfg.out_dir) / "reports"
    rep_dir.mkdir(parents=True, exist_ok=True)
    write_summary_csv(table, rep_dir / f"summary_{cfg.case}.csv")
    write_excluded_csv(table, rep_dir / f"excluded_{cfg.case}.csv")
    if plot is not None:
        save_plot(table, plot)
        print(f"wrote {plot}")
    _print_table(table)
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
