"""Pair a checkout whose fit_maps splits across workers with its parent; write the record.

Runs, from a parent checkout and a changed one:

* ``tools/ab_pairs.py`` on every workload of BENCHMARK.json: ``--pairs``
  alternating pairs at ``--seed``, at the benchmark's default run length.
  The claim, ``--claim WORKLOAD/METRIC`` (an end-to-end metric; default
  pbl-refit/wall_s), is met when the change is better in at least nine
  tenths of the pairs and the medians differ by more than the parent's
  interquartile range;
* ``bench/run.py --workload W --seed SEED --trace 1`` once per side, W the
  claim's workload, for the per-layer counts (the tracer records spans in
  the process that makes them, so under a split they cover this process's
  share);
* ``bench/run.py --reanchor`` once per side, unless ``--no-reanchor``: the
  default study's wall time and whether its 24 cells match the Baseline.

It prints the record as one JSON object and writes it to ``--out``.

    python3 tools/split_bench.py --parent ../parent --change . --seed 67 --out BENCH_26.json
    python3 tools/split_bench.py --parent ../parent --change . --claim study-cli/kind_s.network
    python3 tools/split_bench.py --parent ../parent --change . --pairs 2 --no-reanchor
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
TRACED = ("kernels.nn_loss_grad.calls", "kernels.mm_loss_grad.calls",
          "kernels.hem_loss_grad.calls", "kernels.mtl_loss_grad.calls",
          "optim.optimizer_step.calls", "optim.fit_map.calls", "models.mm_clamps")


def pairs(trees: dict, workload: str, seed: int, n: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "pairs.json"
        subprocess.run([sys.executable, str(Path(__file__).with_name("ab_pairs.py")),
                        "--parent", str(trees["parent"]), "--change", str(trees["change"]),
                        "--workload", workload, "--seed", str(seed), "--pairs", str(n),
                        "--out", str(out)], check=True, stdout=subprocess.DEVNULL)
        return json.loads(out.read_text())


def claim(result: dict, workload: str, metric: str) -> dict:
    m = result["metrics"][metric]
    parent, change = m["parent"], m["change"]
    gap = parent["median"] - change["median"]   # every end-to-end metric is better lower
    iqr = parent["q3"] - parent["q1"]
    return {"workload": workload, "metric": metric, "seed": result["seed"],
            "pairs": result["pairs"], "parent_median": parent["median"],
            "change_median": change["median"], "change_pct": m["change_pct"],
            "change_better_pairs": m["change_better_pairs"],
            "median_gap": round(gap, 4), "parent_iqr": round(iqr, 4),
            "met": 10 * m["change_better_pairs"] >= 9 * result["pairs"] and gap > iqr}


def traced(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", "1"], cwd=tree,
                          capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in TRACED if name in metrics}


def reanchor(tree: Path) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--reanchor"], cwd=tree,
                          capture_output=True, text=True)
    wall = re.search(r"wall ([0-9.]+) s", proc.stdout)
    return {"exit_code": proc.returncode, "wall_s": float(wall.group(1)) if wall else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--claim", default="pbl-refit/wall_s", metavar="WORKLOAD/METRIC",
                    help="the workload and end-to-end metric the change claims to improve")
    ap.add_argument("--no-reanchor", action="store_true")
    ap.add_argument("--out", type=Path, default=None)
    a = ap.parse_args(argv)
    trees = {"parent": a.parent.resolve(), "change": a.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    workload, _, metric = a.claim.partition("/")
    if workload not in workloads or metric not in metrics:
        ap.error(f"--claim {a.claim}: expected WORKLOAD/METRIC, a workload of "
                 f"{workloads} and an end-to-end metric of {metrics}")
    record = {
        "machine": {"cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                    "numpy": np.__version__},
        "command": (f"python3 tools/split_bench.py --parent <parent checkout> --change "
                    f"<change checkout> --seed {a.seed} --pairs {a.pairs} --claim {a.claim}"),
        "pairs": {w: pairs(trees, w, a.seed, a.pairs) for w in workloads},
    }
    record["claim"] = claim(record["pairs"][workload], workload, metric)
    record["trace"] = {"workload": workload,
                       **{side: traced(trees[side], workload, a.seed) for side in SIDES}}
    if not a.no_reanchor:
        record["reanchor"] = {side: reanchor(trees[side]) for side in SIDES}
    text = json.dumps(record, indent=1)
    if a.out is not None:
        a.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
