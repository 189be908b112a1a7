"""Self-test of the benchmark on a tiny configuration (seconds, not minutes).

For each workload's tiny variant (kinds lr and mm, split near the horizon),
it runs the measured path twice: once recording outputs in reference form,
once comparing against that record, which must pass.  A copy of the record
with one ``y_pred`` changed by 1e-6 relative must then make exactly that
op fail.  Each tiny workload also runs traced, with the kernel probe, and
must emit every per-layer metric BENCHMARK.json declares, with top-level
spans covering the pass.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

from bench import workloads
from bench.runner import declared_metrics, measure

ROOT = Path(__file__).resolve().parent.parent


def _tampered(record: dict) -> tuple[dict, str]:
    bad = copy.deepcopy(record)
    name = sorted(bad["logs"])[0]
    y = bad["logs"][name]["y_pred"]
    y[len(y) // 2] *= 1.0 + 1e-6
    return bad, name


def run(out_dir: Path) -> int:
    problems = []

    def expect(cond: bool, what: str) -> None:
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            problems.append(what)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the workloads")

    for name in workloads.WORKLOADS:
        wl = workloads.make_tiny_workload(name)
        work = out_dir / name
        record = workloads.new_record(wl, 0)
        res, _ = measure(wl, 0, 0.0, False, work, None, record)
        expect(res["failed"] == 0 and res["attempted"] > 0,
               f"{name}: tiny run passes the invariants ({res['attempted']} ops)")
        expect(list(res["metrics"]) == list(declared_metrics(False))
               and all(m["value"] > 0 for m in res["metrics"].values()),
               f"{name}: every end-to-end metric is emitted and non-zero")
        res, _ = measure(wl, 0, 0.0, False, work, record)
        expect(res["failed"] == 0, f"{name}: a second run matches the recorded outputs")
        bad, bad_name = _tampered(record)
        res, report = measure(wl, 0, 0.0, False, work, bad)
        failed = [op["name"] for op in report["passes"][0]["ops"] if op["error"]]
        expect(res["failed"] == 1 and res["correct"] is False,
               f"{name}: y_pred off by 1e-6 relative in {bad_name} fails one op {failed}")
        res, _ = measure(wl, 0, 0.0, True, work, record)
        metrics = res["metrics"]
        expect(list(metrics) == list(declared_metrics(True)) and res["failed"] == 0
               and all(math.isfinite(m["value"]) for m in metrics.values()),
               f"{name}: traced run emits every per-layer metric, each finite")
        share = metrics["trace.top_level_share"]["value"]
        expect(share >= 0.9, f"{name}: top-level spans cover {share:.3f} of the pass")
        expect(metrics["kernels.adam_step.calls"]["value"] > 0
               and metrics["probe.mtl.grad_us.n1024"]["value"] > 0,
               f"{name}: kernel spans and the kernel probe are recorded")

    print("self-test " + ("passed" if not problems else f"failed: {len(problems)} checks"))
    return 0 if not problems else 1
