"""Time one ``vfmlab tune`` in this process: its wall and CPU time, and each
worker's busy time.

Runs ``cli.main(["tune", ...])`` on the default StudyConfig, or on
``--config``, into a temporary directory, and prints JSON lines:
``{"kind": "tune_wall_s", "seconds": ...}`` and ``tune_cpu_s`` (user plus
system CPU of this process and of the workers it joined), both from the
call into ``cli.main`` to its return, so the interpreter's start and
imports are left out.  Where ``cli`` deals tune's jobs to forked workers
(``cli._score_jobs``, one call per share), one more line per share: the
process that ran it, its jobs (kind, gamma0 of the initial optimizer,
combinations and cost by ``cli._job_cost``) and its busy wall and CPU
seconds.

To compare two checkouts in alternating processes, give this file to
``tools/alternate.py`` by its absolute path, so that both run it:

    PYTHONPATH=src python3 tools/tune_cores.py
    PYTHONPATH=src taskset -c 0 python3 tools/tune_cores.py
    python3 tools/alternate.py --parent ../parent --change . --rounds 5 --value seconds -- \\
        python3 "$PWD/tools/tune_cores.py"
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

from vfmlab import cli


def cpu_s() -> float:
    """User plus system CPU of this process and of its joined children."""
    return sum(r.ru_utime + r.ru_stime for r in (resource.getrusage(resource.RUSAGE_SELF),
                                                  resource.getrusage(resource.RUSAGE_CHILDREN)))


def record_shares(path: Path) -> None:
    """Wrap ``cli._score_jobs`` so that each share appends its process, its
    jobs and its busy seconds to path as one JSON line; forked workers
    inherit the wrapper."""
    score_jobs = cli._score_jobs

    def recording(cfg, holdouts, merged_holdout, jobs):
        t0, c0 = time.perf_counter(), time.process_time()
        scored = score_jobs(cfg, holdouts, merged_holdout, jobs)
        busy = {"pid": os.getpid(),
                "jobs": [[kind, ocfg.gamma0, len(scheds), cli._job_cost((kind, ocfg, scheds))]
                         for kind, ocfg, scheds in jobs],
                "busy_s": round(time.perf_counter() - t0, 3),
                "busy_cpu_s": round(time.process_time() - c0, 3)}
        with open(path, "a") as fh:
            fh.write(json.dumps(busy) + "\n")
        return scored

    cli._score_jobs = recording


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", metavar="PATH", default=None,
                    help="study config JSON (the defaults when omitted)")
    a = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        shares = Path(tmp) / "shares.jsonl"
        if hasattr(cli, "_score_jobs"):
            record_shares(shares)
        args = ["tune", "--out", str(Path(tmp) / "out")]
        if a.config is not None:
            args += ["--config", a.config]
        c0, t0 = cpu_s(), time.perf_counter()
        with open(os.devnull, "w") as quiet:
            stdout, sys.stdout = sys.stdout, quiet
            try:
                code = cli.main(args)
            finally:
                sys.stdout = stdout
        wall, cpu = time.perf_counter() - t0, cpu_s() - c0
        if code != 0:
            print(f"tune exited with code {code}", file=sys.stderr)
            return code
        print(json.dumps({"kind": "tune_wall_s", "seconds": round(wall, 3)}))
        print(json.dumps({"kind": "tune_cpu_s", "seconds": round(cpu, 3)}))
        if shares.exists():
            for line in shares.read_text().splitlines():
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
