"""Re-anchor mode: the default ``vfmlab run`` once, checked against the Baseline.

Runs the full default study (5 wells x 730 days, 7 kinds, OL, PBL-2w and
PBL-6m; about 22 minutes on a 2-core machine) through ``cli.main``, then
compares ``reports/summary_all.csv`` with the Baseline table of ROADMAP.md
to 4 decimals and prints the wall time of each stage: data generation,
initial fits, the drives of each schedule (also per kind), and the rest
(log and report writing).  Not a benchmark workload.
"""

from __future__ import annotations

import shutil
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from vfmlab import cli
from vfmlab.config import StudyConfig

from bench import gate
from bench.tracer import Target, Tracer

KINDS = ("benchmark", "lr", "nn", "mtl", "mm", "hem", "ham")
BASELINE = {
    "OL": (21.9549, 10.1359, 6.48808, 8.41354, 4.94177, 7.03631, 6.75789, 7.29559),
    "PBL-2w": (21.9549, 17.5218, 13.8963, 12.5794, 13.3701, 12.7245, 15.9832, 14.3459),
    "PBL-6m": (21.9549, 20.6574, 16.8763, 13.9522, 14.3187, 16.4453, 21.2926, 17.2571),
}


def _schedule_of(args, result) -> tuple:
    m0, _, sched = args
    return sched.mode, sched.period_s, m0.kind.value.lower()


def run(out_dir: Path) -> int:
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = StudyConfig()
    names = {(s.mode, None if s.mode == "ol" else s.period_days * 86400.0): s.name
             for s in cfg.schedule_specs()}
    tracer = Tracer((Target("vfmlab.synth", "generate_stream"),
                     Target("vfmlab.optim", "fit_map"),
                     Target("vfmlab.learning", "run_schedule", extra=_schedule_of)))
    tracer.install()
    t0 = time.perf_counter()
    try:
        code = cli.main(["run", "--out", str(out_dir)])
    finally:
        total = time.perf_counter() - t0
        tracer.uninstall()
    spans = tracer.spans()
    dur = spans.duration
    roots = spans.parent < 0
    stages = {"data": float(np.sum(dur[roots & (spans.name == spans.ix("synth.generate_stream"))])),
              "initial_fits": float(np.sum(dur[roots & (spans.name == spans.ix("optim.fit_map"))]))}
    per_kind: dict[str, float] = defaultdict(float)
    for i, (mode, period_s, kind) in spans.extra.items():
        name = names[(mode, None if mode == "ol" else period_s)]
        stages[name] = stages.get(name, 0.0) + float(dur[i])
        per_kind[f"{name}/{kind}"] += float(dur[i])
    stages["logs_and_reports"] = total - sum(stages.values())

    print(f"vfmlab run exit code {code}, wall {total:.1f} s")
    for name, s in stages.items():
        print(f"  stage {name:<18} {s:8.1f} s")
    for name, s in per_kind.items():
        print(f"  drive {name:<18} {s:8.1f} s")
    if code != 0:
        return 1

    head, rows = gate.read_table((out_dir / "reports" / "summary_all.csv").read_text())
    ok = head == list(KINDS) + ["All"] and list(rows) == list(BASELINE)
    for method, want in BASELINE.items():
        got = rows.get(method, [])
        same = len(got) == len(want) and all(round(g, 4) == round(w, 4)
                                             for g, w in zip(got, want))
        ok &= same
        print(f"  {method:<7} {'matches' if same else 'DIFFERS from'} the Baseline: {got}")
    print("re-anchor " + ("reproduces the Baseline" if ok else "does NOT reproduce the Baseline"))
    return 0 if ok else 1
