"""Time one ``vfmlab tune`` or ``vfmlab run`` in this process: its wall and
CPU time, each stage of a run, and each share that went to the cores.

Runs ``cli.main([command, ...])`` on the default StudyConfig, or on
``--config``, into a temporary directory, and prints JSON lines:
``{"kind": "tune_wall_s", "seconds": ...}`` and ``tune_cpu_s`` (user plus
system CPU of this process and of the workers it joined), both from the
call into ``cli.main`` to its return, so the interpreter's start and
imports are left out; ``--command run`` prints ``run_wall_s`` and
``run_cpu_s``.  A run also prints the seconds of each stage, read from the
progress lines that ``run`` writes on stderr (``stage:OL lr``, ...), and
per schedule their sum (``stages:OL``, ``stages:PBL-2w``, ...; the initial
fits as ``stages:initial fits``).

Then one line per share of ``optim._fork`` (the fork path of ``fit_maps``,
of ``run_schedules``' OL units and of tune's jobs), except the shares of
calls made inside a share: the work it ran (``_fit_share``,
``_ol_share``, ``_score_jobs``), the process that ran it, its items (fits,
units or jobs), its busy wall and CPU seconds and its minor page faults
(``minflt``, from ``RUSAGE_SELF``; a forked worker counts from its fork).
A call of one share runs in this process, and its line says so.

To compare two checkouts in alternating processes, give this file to
``tools/alternate.py`` by its absolute path, so that both run it:

    PYTHONPATH=src python3 tools/tune_cores.py
    PYTHONPATH=src python3 tools/tune_cores.py --command run
    PYTHONPATH=src taskset -c 0 python3 tools/tune_cores.py
    python3 tools/alternate.py --parent ../parent --change . --rounds 5 --value seconds -- \\
        python3 "$PWD/tools/tune_cores.py" --command run
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import resource
import sys
import tempfile
import time
from pathlib import Path

from vfmlab import cli, optim

# run's progress line: "run: <stage>: <units> unit(s)[, <counts>], <seconds> s"
STAGE = re.compile(r"^run: (?P<stage>.+?): \d+ units?(, .*)?, (?P<seconds>[0-9.]+) s$")


def cpu_s() -> float:
    """User plus system CPU of this process and of its joined children."""
    return sum(r.ru_utime + r.ru_stime for r in (resource.getrusage(resource.RUSAGE_SELF),
                                                  resource.getrusage(resource.RUSAGE_CHILDREN)))


def record_shares(path: Path) -> None:
    """Wrap ``optim._fork`` so that each share of a call made outside a
    share appends its work, process, items, busy seconds and minor faults to
    path as one JSON line; forked workers inherit the wrapper."""
    fork = optim._fork
    busy = []   # non-empty while this process runs a recorded share

    def recording(work, shares):
        if busy:
            return fork(work, shares)
        name = getattr(work, "func", work).__name__

        def timed(share):
            busy.append(True)
            t0, c0 = time.perf_counter(), time.process_time()
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            try:
                result = work(share)
            finally:
                busy.pop()
            line = {"work": name, "pid": os.getpid(), "items": len(share),
                    "busy_s": round(time.perf_counter() - t0, 3),
                    "busy_cpu_s": round(time.process_time() - c0, 3),
                    "minflt": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0}
            with open(path, "a") as fh:
                fh.write(json.dumps(line) + "\n")
            return result

        return fork(timed, shares)

    optim._fork = recording


def stage_lines(err: str) -> list:
    """JSON rows of run's stage seconds, then their sums per schedule."""
    rows, sums = [], {}
    for line in err.splitlines():
        m = STAGE.match(line)
        if m is None:
            continue
        stage, seconds = m["stage"], float(m["seconds"])
        rows.append({"kind": f"stage:{stage}", "seconds": seconds})
        group = stage.rsplit(" ", 1)[0]   # the schedule, or "initial fits"
        sums[group] = sums.get(group, 0.0) + seconds
    return rows + [{"kind": f"stages:{g}", "seconds": round(s, 3)} for g, s in sums.items()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--command", choices=("tune", "run"), default="tune")
    ap.add_argument("--config", metavar="PATH", default=None,
                    help="study config JSON (the defaults when omitted)")
    a = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        shares = Path(tmp) / "shares.jsonl"
        record_shares(shares)
        args = [a.command, "--out", str(Path(tmp) / "out")]
        if a.config is not None:
            args += ["--config", a.config]
        err = io.StringIO()
        c0, t0 = cpu_s(), time.perf_counter()
        with open(os.devnull, "w") as quiet:
            stdout, stderr, sys.stdout, sys.stderr = sys.stdout, sys.stderr, quiet, err
            try:
                code = cli.main(args)
            finally:
                sys.stdout, sys.stderr = stdout, stderr
        wall, cpu = time.perf_counter() - t0, cpu_s() - c0
        sys.stderr.write(err.getvalue())
        if code != 0:
            print(f"{a.command} exited with code {code}", file=sys.stderr)
            return code
        print(json.dumps({"kind": f"{a.command}_wall_s", "seconds": round(wall, 3)}))
        print(json.dumps({"kind": f"{a.command}_cpu_s", "seconds": round(cpu, 3)}))
        for row in stage_lines(err.getvalue()):
            print(json.dumps(row))
        if shares.exists():
            for line in shares.read_text().splitlines():
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
