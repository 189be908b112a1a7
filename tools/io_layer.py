"""Time text I/O, synthetic wells and the drift scan, columnar against row at a time.

These are the passes that come before and after the fits: CSV ingest, the
four writers, log reads, the synthetic well generator and the drift scan.

Builds the wells of the default StudyConfig at seed 0 and writes each to
its CSV as ``vfmlab simulate`` does.  From them it builds what the study
writes: four prediction logs over the merged rows after the split
(``vfmlab run`` writes one per schedule and kind), the rolling-error report
of each log, and one shift report per well (``vfmlab detect``).  Then it
times, alternating the two sides, ``--repeats`` times each,

* ``ingest``: ``ingest_csv_report`` over every well CSV,
* ``write_csv``: every well to its CSV,
* ``write_log``, ``write_rolling_csv``, ``write_shift_csv``: every log and
  report,
* ``read_log``: every log, as ``vfmlab report`` reads them,
* ``generate_stream``: every well of the default scenarios,
* ``scan``: ``estimate_update_frequency`` over every well, as ``vfmlab
  detect`` runs it,

once with ``vfmlab``'s functions and once with the frozen row-at-a-time
references in ``tests/loop_io.py`` and ``tests/loop_passes.py``, and prints
one JSON object: per operation, the rows it handles and each side's min
seconds.

    PYTHONPATH=src python3 tools/io_layer.py
    PYTHONPATH=src python3 tools/io_layer.py --repeats 15
    PYTHONPATH=src python3 tools/io_layer.py --smoke

``--smoke`` runs in a few seconds: it compares the two sides' bytes instead
of timing them: ingest and the writers on the first 120 days of wells 1 to
3, on a CSV with each reject reason, unparseable fields, blank lines and
rows out of time order, and on that CSV with ISO times; ``read_log`` on the
written logs and on a log with source aliases, NaN predictions and a blank
line; the generator on every default well at seeds 0 and 1 and on a
scenario with a step, a ramp, a wobble and every jitter; the scan on every
default well.  It prints the differences and exits 1 when there is any.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import tempfile
import time
import warnings
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import loop_io  # noqa: E402  (the frozen references)
import loop_passes  # noqa: E402
from vfmlab import core, drift, learning, metrics, synth  # noqa: E402
from vfmlab.config import StudyConfig  # noqa: E402
from vfmlab.core import CSV_HEADER, WellDataset, substream  # noqa: E402
from vfmlab.learning import PredictionLog  # noqa: E402
from vfmlab.models import MechanisticParams  # noqa: E402
from vfmlab.synth import WellScenario, generate_stream  # noqa: E402

DAY = 86400.0
SEED = 0
N_LOGS = 4


def study_inputs(n_logs: int, n_wells: int | None = None,
                 days: float | None = None) -> dict:
    """The default study's wells (the first n_wells, their first ``days``
    when set), prediction logs over the merged rows after the split, each
    log's rolling-error report and each well's shift report."""
    cfg = StudyConfig(seed=SEED)
    wells = [generate_stream(sc) for sc in cfg.scenario_objects()[:n_wells]]
    if days is not None:
        wells = [ds.take(ds.t < ds.t[0] + days * DAY) for ds in wells]
    merged = WellDataset.merge(wells)
    test = merged.from_time(cfg.split_time() if days is None else
                            merged.t[0] + days / 2 * DAY)
    rng = substream(SEED, "io_layer")
    logs = []
    for i in range(n_logs):
        y_pred = test.y * (1.0 + 0.05 * rng.standard_normal(len(test)))
        y_pred[rng.random(len(test)) < 0.01] = np.nan
        logs.append(PredictionLog(test.t, test.well, test.y, y_pred,
                                  np.cumsum(rng.random(len(test)) < 0.1), test.source,
                                  {"log": i, "skipped_updates": [float(test.t[0])]}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rolling = [metrics.metric_report(log) for log in logs]
        shifts = [drift.estimate_update_frequency(ds, cfg.t1_fraction, cfg.drift_config())
                  for ds in wells]
    return {"wells": wells, "logs": logs, "rolling": rolling, "shifts": shifts,
            "scenarios": cfg.scenario_objects()[:n_wells], "t1_fraction": cfg.t1_fraction,
            "drift": cfg.drift_config()}


# every branch of the generator: a step, a ramp, a wobble, every jitter, both
# noises and a well test on an MPFM row
BRANCHY = WellScenario(
    horizon_days=60, obs_per_day=2.0, welltest_interval_days=5.0, seed=SEED,
    u_profile=((0.0, 0.4), (30.0, 0.6)), real_drift_events=((10.0, "C_D", 0.7),),
    param_ramps=(("rho_oil", 20.0, 40.0, 900.0),), param_wobble=(("kappa", 0.02, 5.0),),
    u_jitter=0.02, p_jitter_rel=0.01, temp_jitter=1.0, frac_jitter=0.01,
    true_params=MechanisticParams())

# a log row per source spelling, NaN and infinite predictions, and a blank line
EDGE_LOG = ("t,well_id,y_true,y_pred,model_version,source\n0,1,100.0,90.0,0,MPFM\n"
            "3600,2,50.5,nan,1,welltest\n\n7200.5,1,0.0,-inf,1,mpfm\n"
            "9000,3,12.0,inf,2, well-test \n9001,1,1e300,0.5,3,well_test\n")


def edge_rows(iso: bool) -> list[list[str]]:
    """A CSV's rows with each reject reason, unparseable fields (a bad float,
    an unknown source, well id 1.0, a short row, a time in the other format),
    blank lines, two wells, times out of order and a pressure of 2**53."""
    good = dict(well_id="1", t="7200", u="0.5", p1="15000000", p2="9000000", T1="350",
                eta_oil="0.3", eta_gas="0.5", q_total="55.5", source="MPFM")
    patches = [{}, dict(u="nan"), dict(u="1.5"), dict(p1="-5"), dict(p2="0"),
               dict(T1="-1"), dict(eta_oil="-0.01"), dict(eta_oil="0.7", eta_gas="0.4"),
               dict(q_total="-1"), dict(u="-1", T1="0"), dict(q_total="x"),
               dict(source="Venturi"), dict(well_id="1.0"), dict(t="3600", well_id="2"),
               dict(t="0", source="WellTest"), dict(t="0"), dict(t="3600.5", q_total="-0.0"),
               dict(t="10", p1="9007199254740992")]
    rows = [list(CSV_HEADER)]
    for patch in patches:
        row = {**good, **patch}
        if iso:
            row["t"] = datetime.fromtimestamp(1.5e9 + float(row["t"]), timezone.utc).isoformat()
        rows.append([row[c] for c in CSV_HEADER])
    rows[4:4] = [[], ["", " "]]
    rows.append(rows[1][:5])
    rows.append([{**good, "t": "2017-07-14T04:40:00Z" if not iso else "7200"}[c]
                 for c in CSV_HEADER])
    return rows


def smoke(out: Path) -> list[str]:
    inputs = study_inputs(n_logs=2, n_wells=3, days=120.0)
    diffs = []
    for i, ds in enumerate(inputs["wells"]):
        path = out / f"well_{i}.csv"
        core.write_csv(path, [ds])
        diffs += loop_io.ingest_differences(path)
    edges = []
    for iso in (False, True):
        path = out / f"edges_{'iso' if iso else 'numeric'}.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(edge_rows(iso))
        diffs += loop_io.ingest_differences(path)
        edges += core.ingest_csv(path)
    diffs += loop_io.writer_differences(out / "writers", inputs["wells"] + edges,
                                        inputs["logs"], inputs["rolling"], inputs["shifts"])
    (out / "edge_log.csv").write_text(EDGE_LOG)
    diffs += loop_io.log_differences(out / "edge_log.csv")
    diffs += [d for p in sorted((out / "writers" / "vfmlab").glob("log_*.csv"))
              for d in loop_io.log_differences(p)]
    for seed in (SEED, SEED + 1):
        cfg = StudyConfig(seed=seed)
        diffs += [d for sc in cfg.scenario_objects() for d in loop_passes.stream_differences(sc)]
        diffs += [d for ds in cfg.load_datasets().values()
                  for d in loop_passes.scan_differences(ds, cfg.t1_fraction, cfg.drift_config())]
    diffs += loop_passes.stream_differences(BRANCHY)
    return diffs


def operations(inputs: dict, out: Path) -> dict:
    """{operation: (rows, {side: callable})} over the study's inputs."""
    wells, logs, rolling, shifts = (inputs[k] for k in ("wells", "logs", "rolling", "shifts"))
    paths = [out / f"well_{i}.csv" for i in range(len(wells))]
    for path, ds in zip(paths, wells):
        core.write_csv(path, [ds])
    log_paths = [out / f"read_log_{i}.csv" for i in range(len(logs))]
    for path, log in zip(log_paths, logs):
        learning.write_log(log, path)
    names = ("ingest_csv_report", "write_csv", "write_log", "write_rolling_csv",
             "write_shift_csv", "read_log", "generate_stream", "estimate_update_frequency")
    vfmlab = SimpleNamespace(**{name: getattr(module, name) for module in (
        core, learning, metrics, drift, synth) for name in names if hasattr(module, name)})
    reference = SimpleNamespace(**{name: getattr(module, name) for module in (
        loop_io, loop_passes) for name in names if hasattr(module, name)})

    def calls(m) -> dict:
        return {
            "ingest": lambda: [m.ingest_csv_report(p) for p in paths],
            "write_csv": lambda: [m.write_csv(out / f"written_{i}.csv", [ds])
                                  for i, ds in enumerate(wells)],
            "write_log": lambda: [m.write_log(log, out / f"log_{i}.csv")
                                  for i, log in enumerate(logs)],
            "write_rolling_csv": lambda: [m.write_rolling_csv(rep, out / f"rolling_{i}.csv")
                                          for i, rep in enumerate(rolling)],
            "write_shift_csv": lambda: [m.write_shift_csv(rep, out / f"shift_{i}.csv")
                                        for i, rep in enumerate(shifts)],
            "read_log": lambda: [m.read_log(p) for p in log_paths],
            "generate_stream": lambda: [m.generate_stream(sc) for sc in inputs["scenarios"]],
            "scan": lambda: [m.estimate_update_frequency(ds, inputs["t1_fraction"],
                                                         inputs["drift"]) for ds in wells]}

    sides = {"vfmlab": calls(vfmlab), "reference": calls(reference)}
    rows = {"ingest": sum(map(len, wells)), "write_csv": sum(map(len, wells)),
            "write_log": sum(map(len, logs)),
            "write_rolling_csv": sum(len(r.rolling_series[0]) for r in rolling),
            "write_shift_csv": sum(map(len, shifts)), "read_log": sum(map(len, logs)),
            "generate_stream": sum(map(len, wells)), "scan": sum(map(len, shifts))}
    return {name: (rows[name], {side: fns[name] for side, fns in sides.items()})
            for name in rows}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        if a.smoke:
            diffs = smoke(Path(tmp))
            for d in diffs:
                print(d)
            print(json.dumps({"smoke": "differ" if diffs else "identical",
                              "differences": len(diffs)}))
            return 1 if diffs else 0
        ops = operations(study_inputs(N_LOGS), Path(tmp))
        out = {"seed": SEED, "repeats": a.repeats, "logs": N_LOGS, "ops": {}}
        for name, (rows, fns) in ops.items():
            times = {side: [] for side in fns}
            for i in range(a.repeats):
                for side in sorted(fns, reverse=i % 2 == 1):
                    t0 = time.perf_counter()
                    fns[side]()
                    times[side].append(time.perf_counter() - t0)
            best = {side: min(v) for side, v in times.items()}
            out["ops"][name] = {"rows": rows, **{f"{s}_s": round(v, 5) for s, v in best.items()},
                                "speedup": round(best["reference"] / best["vfmlab"], 2)}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
