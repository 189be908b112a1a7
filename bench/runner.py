"""Measured runs: set-up, timed passes, checks, and the result record."""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bench import envinfo, workloads
from bench.layers import ARROWS, layer_metrics
from bench.probe import run_probe
from bench.speed import REFERENCE_S, SpeedProbe, speed
from bench.tracer import Tracer, per_span_cost
from vfmlab.models import mm_clamp_count

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
_IMPORT = ("import time; t = time.perf_counter(); import bench.runner, bench.workloads; "
           "print(time.perf_counter() - t)")


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name to unit of the metrics BENCHMARK.json declares for a run, in order:
    ``per_layer`` for a traced run, ``end_to_end`` otherwise."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _import_s() -> float:
    """Median time a fresh interpreter takes to import the benchmark and
    vfmlab (a single import timing varied by up to 2x between runs)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", _IMPORT], env=env, cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(SETUP_REPEATS))


def _speed_report(p: dict) -> dict:
    durations = p["speed"].window(p["t0"], p["t1"])
    return {"samples": len(durations), "probe_speed_s": speed(durations),
            "probe_mean_s": statistics.fmean(durations),
            "probe_median_s": statistics.median(durations), "reference_s": REFERENCE_S}


def measure(wl, seed: int, seconds: float, trace: bool, work_dir: Path,
            ref: dict | None, record: dict | None = None) -> tuple[dict, dict]:
    """Set up, run and check the workload; returns (result, report)."""
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    load_start = envinfo.loadavg()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
        clamps0 = mm_clamp_count()

    import_s = None if trace else _import_s()
    prep_s = []
    for _ in range(1 if trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workloads.prepare(wl, work_dir)
        prep_s.append(time.perf_counter() - t0)

    passes = []
    while True:
        shutil.rmtree(workloads.output_dir(wl, work_dir), ignore_errors=True)
        sampler = None if tracer else SpeedProbe()
        if sampler:
            sampler.start()
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            ops = workloads.run_pass(wl, inputs, work_dir)
            t1, cpu1 = time.perf_counter(), _cpu_s()
        finally:
            if sampler:
                sampler.stop()
        if tracer:
            tracer.uninstall()
            clamps = mm_clamp_count() - clamps0
        workloads.check_pass(wl, inputs, work_dir, ops, ref, record)
        passes.append({"t0": t0, "t1": t1, "cpu_s": cpu1 - cpu0, "ops": ops, "speed": sampler})
        if tracer or sum(p["t1"] - p["t0"] for p in passes) >= seconds:
            break

    def per_pass(fn) -> float:
        return statistics.median(fn(p) for p in passes)

    if tracer:
        values = layer_metrics(tracer.spans(), [(p["t0"], p["t1"]) for p in passes],
                               clamps, per_span_cost())
        values.update(run_probe(seed))
        tracer.save(work_dir / "spans.npz")
    else:
        np.save(work_dir / "speed.npy", np.array(
            [(i, t - p["t0"], d) for i, p in enumerate(passes) for t, d in p["speed"].samples]))
        for p in passes:
            sp, t0, t1 = p["speed"], p["t0"], p["t1"]
            p["scaled"] = {
                "wall_s": sp.scaled(t1 - t0, t0, t1),
                "cpu_s": sp.scaled(p["cpu_s"], t0, t1),
                "kind_s.network": sum(sp.scaled(op.seconds, op.start, op.start + op.seconds)
                                      for op in p["ops"] if op.kind in wl.network_kinds)}
        values = {"setup_s": import_s + statistics.median(prep_s),
                  **{k: per_pass(lambda p: p["scaled"][k])
                     for k in ("wall_s", "cpu_s", "kind_s.network")},
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    all_ops = [op for p in passes for op in p["ops"]]
    failed = sum(1 for op in all_ops if op.error)
    result = {"correct": failed == 0, "attempted": len(all_ops), "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in declared_metrics(trace).items()}}
    report = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "network_kinds": wl.network_kinds, "reference": ref is not None,
        "env": envinfo.environment(ROOT),
        "loadavg": {"start": load_start, "end": envinfo.loadavg()},
        "setup": {"import_s": import_s, "prepare_s": prep_s},
        "passes": [{"wall_s": p["t1"] - p["t0"], "cpu_s": p["cpu_s"],
                    "scaled": p.get("scaled"), "speed": p["speed"] and _speed_report(p),
                    "ops": [{"name": op.name, "kind": op.kind, "s": op.seconds,
                             "error": op.error} for op in p["ops"]]} for p in passes],
    }
    if trace:
        report["arrows"] = ARROWS
    return result, report
