"""Alternate a measuring command between two checkouts and compare its numbers.

Runs COMMAND ``--rounds`` times in a parent checkout and in a changed one,
alternating which side runs first, each run in its own process with the
checkout as working directory and its ``src/`` on PYTHONPATH.  COMMAND
prints JSON lines as ``tools/ol_update.py`` does: per line, ``kind`` names a
row and ``--value`` (``us_per_obs`` by default) holds its number (lower is
better); a line without that key is left out.  Prints one JSON
object: per row, each side's runs, median and min, the change's median
against the parent's in percent (null where the parent's median is 0), and
the rounds in which the change is lower; and the machine's usable CPUs.

    python3 tools/alternate.py --parent ../parent --change . --rounds 5 -- \\
        python3 tools/ol_update.py --kinds lr,mm --repeats 5
    python3 tools/alternate.py --parent ../parent --change . --value seconds -- \\
        python3 "$PWD/tools/tune_cores.py"

A tool's own minima are taken inside one process, and separate processes of
one tree spread more widely than that (``tools/ol_update.py``), so a
difference between two trees is read from alternating processes.  As
``tools/ab_pairs.py`` does, it refuses trees whose ``src/`` holds a
``__pycache__``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ab_pairs import check_no_caches

SIDES = ("parent", "change")


def run_once(tree: Path, command: list) -> list:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                         check=True).stdout
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--value", metavar="KEY", default="us_per_obs",
                    help="the key of each row's number (default: us_per_obs)")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    a = ap.parse_args(argv)
    command = a.command[1:] if a.command[:1] == ["--"] else a.command
    if not command:
        ap.error("no command given")
    trees = {"parent": a.parent.resolve(), "change": a.change.resolve()}
    check_no_caches(ap, trees)
    runs: dict = {}
    for r in range(a.rounds):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            for row in run_once(trees[side], command):
                if a.value in row:
                    per_side = runs.setdefault(row["kind"], {s: [] for s in SIDES})
                    per_side[side].append(row[a.value])
            print(f"round {r}: {side} done", file=sys.stderr)
    out = {"cpus": len(os.sched_getaffinity(0)), "rounds": a.rounds, "command": command,
           "value": a.value, "rows": {}}
    for key, sides in runs.items():
        med = {s: float(np.median(sides[s])) for s in SIDES}
        out["rows"][key] = {
            **{s: {"runs": sides[s], "median": med[s], "min": min(sides[s])} for s in SIDES},
            "change_pct": (round(100.0 * (med["change"] - med["parent"]) / med["parent"], 1)
                           if med["parent"] else None),
            "change_lower_rounds": sum(c < p for p, c in zip(sides["parent"], sides["change"]))}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
