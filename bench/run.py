#!/usr/bin/env python3
"""Study benchmark for vfmlab.

Run from the repository root:

    python3 bench/run.py --workload ol-stream --seed 0 --seconds 10 --trace 0
    for w in ol-stream pbl-refit study-cli; do python3 bench/run.py --workload $w; done
    python3 bench/run.py --self-test
    python3 bench/run.py --reanchor
    python3 bench/run.py --record-reference --workload study-cli

A measured run imports vfmlab from ``src/``, builds the workload's inputs
from the seed (set-up, repeated and reported as a median), then runs whole
passes of the workload until ``--seconds`` have elapsed (at least one
pass) and checks every pass's outputs after it.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the full report (environment, per-op
times and errors), which is also written under ``.bench_out/``.

With ``--trace 0`` the metrics are end to end, each the median over passes:

* ``setup_s``: the median time a fresh interpreter takes to import vfmlab
  and the benchmark, plus the median time to build the inputs (configs,
  generated wells or written config files), each over three repeats;
* ``wall_s`` and ``cpu_s``: one pass, wall clock and user plus system CPU of
  the process and its reaped children;
* ``peak_rss_mb``: ``ru_maxrss`` of the process;
* ``kind_s.network``: the ops of the workload's network kind (hem on
  ol-stream, nn on pbl-refit, mtl on study-cli), summed over a pass.  On
  the unit workloads an op is a unit's initial fit plus drive plus log
  write; on study-cli it is that kind's ``vfmlab run``.

``wall_s``, ``cpu_s`` and ``kind_s.network`` are rescaled to a reference
machine speed by a probe timed every 20 ms during the pass (see
``bench/speed.py``); the raw times and the probe's figures are in the
report, and every probe sample is saved to ``.bench_out/<run>/speed.npy``.

With ``--trace 1`` the run records spans around the program's layer
functions over set-up and one pass, then runs the kernel probe, and the
metrics are the per-layer ones BENCHMARK.json declares.  Spans are saved
to ``.bench_out/<run>/spans.npz``.

``attempted`` counts ops (a unit's log, or one ``cli.main`` call); an op
fails when it raises, exits non-zero, or its output fails the correctness
gate.  Exit status is 0 whenever a result is printed, 2 when the vfmlab
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "vfmlab" / "__init__.py").is_file():
        print(f"bench: no vfmlab sources under {src}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(ROOT)]


def main(argv=None) -> int:
    _import_program()
    from bench import gate, workloads
    from bench.runner import measure

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--self-test", action="store_true",
                      help="run every code path on a tiny configuration")
    mode.add_argument("--reanchor", action="store_true",
                      help="run the default study once and check the Baseline table")
    mode.add_argument("--record-reference", action="store_true",
                      help="write the workload's seed-0 reference outputs")
    args = p.parse_args(argv)
    if not (args.self_test or args.reanchor) and args.workload is None:
        p.error("--workload is required")

    if args.self_test:
        from bench import selftest
        return selftest.run(OUT / "selftest")
    if args.reanchor:
        from bench import reanchor
        return reanchor.run(OUT / "reanchor")

    wl = workloads.make_workload(args.workload, args.seed)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.record_reference:
        if args.seed != 0:
            p.error("references are recorded at seed 0")
        record = workloads.new_record(wl, 0)
        result, _ = measure(wl, 0, 0.0, False, run_dir, None, record)
        if result["failed"]:
            print("bench: outputs fail the invariants; nothing recorded", file=sys.stderr)
            return 1
        print(f"wrote {gate.save_reference(args.workload, 0, record)}")
        return 0

    ref = gate.load_reference(args.workload, args.seed)
    result, report = measure(wl, args.seed, args.seconds, bool(args.trace), run_dir, ref)
    (run_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
