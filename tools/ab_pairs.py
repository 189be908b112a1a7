"""Alternate benchmark runs of two checkouts and compare their end-to-end metrics.

Runs ``python3 bench/run.py --workload W --seed S`` (default run length) in
a parent checkout and in a changed one, ``--pairs`` times each, alternating
which side runs first, and reads each run's result line (the last line of
its standard output).  Prints one JSON object: per end-to-end metric of
BENCHMARK.json, each side's runs, median and quartiles (linear
interpolation), the change's median against the parent's in percent, the
pairs in which the change is better (ties count for neither side), and
``within_bound``: whether the change's median is worse than the parent's
by no more than the metric's ``bound`` (a fraction of the parent's median);
per side the runs that were correct and the failed and attempted ops; and
the machine: usable CPUs, Python, numpy and the BLAS numpy was built with.

``--claim METRIC`` adds whether the change improves that end-to-end metric:
it is better in at least nine tenths of the pairs, and the medians differ
by more than the parent's interquartile range.

    python3 tools/ab_pairs.py --parent ../parent --change . --workload study-cli --seed 15
    python3 tools/ab_pairs.py --parent ../parent --change . --workload ol-stream --seed 7 \\
        --claim setup_s --out pairs.json

Each side runs its own ``bench/`` against its own ``src/``, in its own
process, one run at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed)], cwd=tree, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4), "runs": [round(v, 4) for v in values]}


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--claim", metavar="METRIC", default=None,
                    help="the end-to-end metric the change claims to improve")
    ap.add_argument("--out", type=Path, default=None)
    a = ap.parse_args(argv)
    trees = {"parent": a.parent.resolve(), "change": a.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    names = [m["name"] for m in spec]
    if a.claim is not None and a.claim not in names:
        ap.error(f"--claim {a.claim}: expected an end-to-end metric of {names}")
    results = {side: [] for side in SIDES}
    first = []
    for i in range(a.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            results[side].append(run_once(trees[side], a.workload, a.seed))
            print(f"pair {i}: {side} done", file=sys.stderr)
    out = {"machine": machine(), "workload": a.workload, "seed": a.seed, "pairs": a.pairs,
           "first_side": first,
           "correct_runs": {s: sum(r["correct"] is True for r in results[s]) for s in SIDES},
           "failed_ops": {s: sum(r["failed"] for r in results[s]) for s in SIDES},
           "attempted_ops": {s: sum(r["attempted"] for r in results[s]) for s in SIDES},
           "metrics": {}}
    for metric in spec:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        runs = {s: [r["metrics"].get(name, {}).get("value") for r in results[s]]
                for s in SIDES}
        if any(v is None for s in SIDES for v in runs[s]):
            continue
        sides = {s: summary(runs[s]) for s in SIDES}
        base, new = sides["parent"]["median"], sides["change"]["median"]
        better = sum(sign * (c - p) < 0 for p, c in zip(runs["parent"], runs["change"]))
        out["metrics"][name] = {
            **sides,
            "change_pct": round(100.0 * (new - base) / base, 2) if base else None,
            "change_better_pairs": better,
            "within_bound": sign * (new - base) <= metric["bound"] * abs(base)}
        if name == a.claim:
            gap, iqr = sign * (base - new), sides["parent"]["q3"] - sides["parent"]["q1"]
            out["claim"] = {"metric": name, "median_gap": round(gap, 4),
                            "parent_iqr": round(iqr, 4),
                            "met": 10 * better >= 9 * a.pairs and gap > iqr}
    text = json.dumps(out, indent=1)
    if a.out is not None:
        a.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
