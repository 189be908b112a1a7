"""Correctness gate: committed seed-0 reference outputs, invariants elsewhere.

For every seed the gate checks invariants that hold for any input: a log
has one row per test observation, in order; parametric kinds predict finite
values; the model version steps by one exactly once per update or refit.
For a seed with a committed reference (seed 0) it also compares outputs with
the reference: ``t``, ``well``, ``model_version`` and ``source`` exactly,
``y_pred`` to a relative tolerance of 1e-9 with NaN positions equal, and
the update/refit and skipped/failed counts of each unit.  The counts come
from each unit's own log before any concatenation; the ``.meta.json``
sidecars of concatenated logs are not compared.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

import numpy as np

from vfmlab.learning import PredictionLog

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
Y_PRED_RTOL = 1e-9
_EXACT = ("t", "well", "model_version", "source")


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}.seed{seed}.json.gz"


def load_reference(workload: str, seed: int) -> dict | None:
    path = reference_path(workload, seed)
    if not path.is_file():
        return None
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save_reference(workload: str, seed: int, ref: dict) -> Path:
    path = reference_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(ref, sort_keys=True, separators=(",", ":"))
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode())
    return path


def log_columns(log: PredictionLog) -> dict:
    return {"t": log.t.tolist(), "well": log.well.tolist(),
            "model_version": log.model_version.tolist(),
            "source": [int(s) for s in log.source],
            "y_pred": [float(v) for v in log.y_pred]}


def compare_log(log: PredictionLog, ref: dict) -> list[str]:
    """Differences between a log and its reference columns."""
    problems = []
    for col in _EXACT:
        got = getattr(log, col).astype(np.int64)
        want = np.asarray(ref[col], dtype=np.int64)
        if got.shape != want.shape or not np.array_equal(got, want):
            problems.append(f"column {col} differs from the reference")
    got = log.y_pred
    want = np.asarray(ref["y_pred"], dtype=np.float64)
    if got.shape != want.shape:
        problems.append("y_pred length differs from the reference")
    elif not np.array_equal(np.isnan(got), np.isnan(want)):
        problems.append("y_pred NaN positions differ from the reference")
    else:
        ok = ~np.isnan(want)
        err = np.abs(got[ok] - want[ok])
        bad = err > Y_PRED_RTOL * np.abs(want[ok])
        if np.any(bad):
            rel = float(np.max(err[bad] / np.maximum(np.abs(want[ok][bad]), 1e-300)))
            problems.append(f"y_pred differs from the reference in {int(np.sum(bad))} "
                            f"rows (max relative error {rel:.3g})")
    return problems


def version_steps(versions: np.ndarray) -> tuple[int, bool]:
    """(number of increments, whether every step is 0 or +1)."""
    d = np.diff(versions)
    return int(np.sum(d)), bool(np.all((d == 0) | (d == 1)))


def refit_events(test_t: np.ndarray, split_time: float, period_s: float) -> int:
    """Arrivals at which a PBL schedule refits: the first arrival crossing
    one or more period boundaries after the split."""
    events = 0
    boundary = split_time + period_s
    for t in test_t:
        if t >= boundary:
            events += 1
            while boundary <= t:
                boundary += period_s
    return events


def check_unit_log(log: PredictionLog, meta: dict, test_t: np.ndarray, well: int,
                   kind: str, split_time: float) -> tuple[list[str], dict]:
    """Invariants of one unit's log; returns (problems, counts)."""
    problems = []
    if len(log) != len(test_t) or not np.array_equal(log.t, test_t.astype(np.int64)):
        problems.append(f"log has {len(log)} rows; expected one per test observation "
                        f"({len(test_t)}) in time order")
    if np.any(np.diff(log.t) < 0):
        problems.append("log is not chronological")
    if np.any(log.well != well):
        problems.append(f"log holds rows of wells other than {well}")
    if kind != "benchmark" and not np.all(np.isfinite(log.y_pred)):
        problems.append("non-finite y_pred from a parametric kind")
    steps, unit_steps = version_steps(log.model_version)
    if not unit_steps:
        problems.append("model_version moves by other than 0 or +1")
    if meta["mode"] == "ol":
        counts = {"n_updates": int(meta["n_updates"]),
                  "skipped": len(meta["skipped_updates"])}
        last_updated = (meta["steps"] > 0 and len(log) > 0
                        and int(log.t[-1]) not in set(meta["skipped_updates"]))
        expected = counts["n_updates"] - int(last_updated)
        if meta["steps"] > 0 and counts["n_updates"] + counts["skipped"] != len(test_t):
            problems.append("updates plus skipped updates differ from the test rows")
    else:
        counts = {"n_retrains": int(meta["n_retrains"]),
                  "failed": len(meta["failed_periods"])}
        expected = counts["n_retrains"]
        if kind != "benchmark":
            events = refit_events(test_t, split_time, meta["period_s"])
            if counts["n_retrains"] + counts["failed"] != events:
                problems.append(f"{counts['n_retrains']} refits + {counts['failed']} "
                                f"failed periods; the schedule has {events}")
    if steps != expected:
        problems.append(f"model_version rises {steps} times; counts imply {expected}")
    return problems, counts


def compare_unit(log: PredictionLog, counts: dict, ref: dict, name: str) -> list[str]:
    if name not in ref["logs"]:
        return [f"no reference for {name}"]
    problems = compare_log(log, ref["logs"][name])
    if counts != ref["counts"][name]:
        problems.append(f"counts {counts} differ from the reference {ref['counts'][name]}")
    return problems


# ------------------------------------------------------------------ study-cli


def read_table(text: str) -> tuple[list[str], dict[str, list[float]]]:
    """(column names, {row name: values}) of a summary table's CSV text."""
    lines = text.splitlines()
    head = lines[0].split(",")
    rows = {ln.split(",")[0]: [float(v) for v in ln.split(",")[1:]] for ln in lines[1:] if ln}
    return head[1:], rows


def well_mape_mean(log: PredictionLog) -> float:
    """Cross-well mean of per-well MAPE %, computed here from the log."""
    vals = []
    for w in np.unique(log.well):
        m = (log.well == w) & (log.y_true != 0.0)
        vals.append(100.0 * float(np.mean(np.abs(log.y_true[m] - log.y_pred[m])
                                          / np.abs(log.y_true[m]))))
    return float(np.mean(vals))


def check_study_log(log: PredictionLog, kind: str, tests: dict[int, np.ndarray],
                    split_time: float, period_s: float) -> tuple[list[str], dict]:
    """Invariants of one (schedule, kind) log of the CLI study; returns
    (problems, refits per well)."""
    problems = []
    if np.any(np.diff(log.t) < 0):
        problems.append("log is not chronological")
    refits = {}
    for w, test_t in tests.items():
        part = log.for_well(w)
        if not np.array_equal(part.t, test_t.astype(np.int64)):
            problems.append(f"well {w}: {len(part)} rows; expected one per test "
                            f"observation ({len(test_t)})")
            continue
        if kind != "benchmark" and not np.all(np.isfinite(part.y_pred)):
            problems.append(f"well {w}: non-finite y_pred")
        steps, unit_steps = version_steps(part.model_version)
        refits[str(w)] = steps
        if not unit_steps:
            problems.append(f"well {w}: model_version moves by other than 0 or +1")
    if kind == "benchmark":
        expected = {str(w): 0 for w in tests}
    elif kind == "mtl":  # one model over the merged wells: count on the merged rows
        steps, _ = version_steps(log.model_version)
        merged_t = np.sort(np.concatenate(list(tests.values())))
        if steps != refit_events(merged_t, split_time, period_s):
            problems.append(f"merged model_version rises {steps} times; the schedule "
                            f"has {refit_events(merged_t, split_time, period_s)} refits")
        return problems, refits
    else:
        expected = {str(w): refit_events(t, split_time, period_s) for w, t in tests.items()}
    if refits and refits != expected:
        problems.append(f"refits per well {refits}; the schedule has {expected}")
    return problems, refits


def check_summary(text: str, logs: dict[str, PredictionLog], method: str,
                  kinds: tuple[str, ...]) -> list[str]:
    """The report table holds every kind, and each cell equals the cross-well
    MAPE recomputed from that kind's log (to the table's 6 digits)."""
    head, rows = read_table(text)
    problems = []
    if head != list(kinds) + ["All"] or list(rows) != [method]:
        return [f"summary has columns {head} and rows {list(rows)}"]
    cells = rows[method]
    for kind, cell in zip(kinds, cells):
        if kind in logs and not math.isclose(cell, well_mape_mean(logs[kind]), rel_tol=1e-5):
            problems.append(f"summary cell {kind}={cell} disagrees with its log")
    trainable = [c for k, c in zip(kinds, cells) if k != "benchmark"]
    if not math.isclose(cells[-1], float(np.mean(trainable)), rel_tol=1e-5):
        problems.append("summary All column is not the mean of the trainable kinds")
    return problems
