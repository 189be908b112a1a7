"""Time ``learning.run_ol`` per observation for every trainable kind, and
check it against the frozen online-learning loop.

Builds well 1 of the default StudyConfig at ``--seed``, fits each kind's
initial model as ``vfmlab run`` does (the study's initial optimizer and
early stopping; MTL with well 1 as its only task), and times the study's OL
schedule on the well's test rows with ``run_ol``, ``--repeats`` times per
kind, kinds alternating.  It prints one JSON line per kind: the
observations, the updates and skipped updates of a run, and the min wall
time per observation in microseconds.

Those minima are taken inside one process.  On a 2-core host the minima of
separate runs of one tree spread by up to 55% (over 4 runs, us per
observation: MM 119.6-185.1, HAM 1003-1444, HEM 1425-1645; ``BENCH_20.json``),
so a speed claim smaller than that needs alternating processes:
``tools/ab_pairs.py`` on a benchmark workload, or ``tools/alternate.py`` on
this tool's numbers in two checkouts.

    PYTHONPATH=src python3 tools/ol_update.py
    PYTHONPATH=src python3 tools/ol_update.py --kinds lr,mm --repeats 9
    PYTHONPATH=src python3 tools/ol_update.py --smoke

``--smoke`` times nothing and takes a few seconds.  For every trainable
kind, under Adam and SGD and each prior mode of the initial fit, it runs
``run_ol`` and the frozen loop of ``tests/loop_drivers.py`` on a tiny split
of well 1: the first 40 days, split at day 30, an initial fit of 3 epochs
and 10 steps per observation.  It does so on the rows as generated, and on
a copy in which every third test row has its downstream pressure above its
upstream one (a clamped radicand for the choke kinds), one row's target is
1e308 at critical flow (the choke kinds' gradient overflows there, so that
update is skipped) and the last row's target is 1e200 (each kind's gradient
stays finite there but exceeds about 1.3e154, so Adam's second moment v
overflows, on floats and on bound buffers, and that update is skipped too).
It compares the predictions, versions, update count, skipped
times and radicand clamps: the change in ``models.mm_clamp_count()``
against the clamps that the frozen loop's kernel calls return (it drops
them; they are summed by wrapping the kernels while it runs).  Then it runs
every one of those units once more, in reverse order, in the same process,
and compares each log with the unit's first: NN, MTL, HEM and HAM step in
buffers bound once per unit (``optim.TrainingStep.bind``), and no state may
leak from one unit or run into another.  It prints one JSON line per
mismatch, and exits 1 when there is any, or when the copy's runs skip no
update or clamp no radicand.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import loop_drivers  # noqa: E402  (the frozen reference)
from vfmlab import kernels  # noqa: E402
from vfmlab.config import StudyConfig  # noqa: E402
from vfmlab.core import WellDataset, chronological_split, fit_scaler  # noqa: E402
from vfmlab.learning import run_ol  # noqa: E402
from vfmlab.models import TRAINABLE_KINDS, init_model, mm_clamp_count  # noqa: E402
from vfmlab.optim import (EarlyStoppingConfig, LossSpec, Method, PriorMode,  # noqa: E402
                          fit_map)
from vfmlab.synth import generate_stream  # noqa: E402

DAY = 86400.0
KINDS = tuple(k.value.lower() for k in TRAINABLE_KINDS)


def ol_units(kinds, seed: int, smoke: bool, edge: bool = False,
             prior: PriorMode | None = None, method: Method | None = None) -> list:
    """(kind, m0, split, ScheduleConfig) per kind on well 1: the initial fit
    and the OL schedule of the default StudyConfig, or the tiny smoke
    split (with ``edge``, its clamped rows and its rows of target 1e308
    and 1e200)
    under ``prior`` and ``method``."""
    cfg = StudyConfig(seed=seed)
    sc = cfg.scenario_objects()[0]
    ds = generate_stream(sc)
    split_time = cfg.split_time()
    if smoke:
        ds = ds.take(np.flatnonzero(ds.t < ds.t[0] + 40 * DAY))
        split_time = float(ds.t[0]) + 30 * DAY
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        split = chronological_split(ds, split_time)
    if edge:
        te = split.test
        X, y = te.X.copy(), te.y.copy()
        X[::3, 2] = X[::3, 1] * 1.1
        # critical flow at the overflowing row, at any p_cr within bounds: every
        # entry of MM's gradient is infinite, none NaN, so only the finite
        # check skips its SGD steps
        X[len(y) // 2, 2] = X[len(y) // 2, 1] * 0.2
        y[len(y) // 2] = 1e308
        # a finite gradient above about 1.3e154 for every kind: Adam's v overflows
        y[-1] = 1e200
        split = dataclasses.replace(split, test=WellDataset(te.t, X, y, te.source, te.well))
    escfg = EarlyStoppingConfig(patience=3, max_epochs=3) if smoke else cfg.escfg()
    loss = LossSpec.from_data(split.train, rel=cfg.noise_rel, prior_mode=prior or cfg.prior())
    spec = next(s for s in cfg.schedule_specs() if s.mode == "ol")
    units = []
    for kind in kinds:
        m0 = init_model(kind, shape=cfg.network_shape(), mtl=cfg.mtl_params([sc.well_id]),
                        seed=seed, scaler=fit_scaler(split.train))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m0 = fit_map(m0, split.train, loss, cfg.init_ocfg_for(kind), escfg)
        sched = spec.to_schedule(kind, loss, escfg)
        if method is not None:
            sched = dataclasses.replace(sched, ocfg=dataclasses.replace(sched.ocfg, method=method))
        units.append((kind, m0, split, sched))
    return units


class KernelClamps:
    """While entered, sums the radicand clamps that the choke kinds' kernels
    return to their outermost caller (hem_predict calls mm_predict)."""

    NAMES = tuple(f"{kind}_{op}" for kind in ("mm", "hem", "ham")
                  for op in ("predict", "loss_grad"))

    def __enter__(self):
        self.count = self.depth = 0
        self.real = {name: getattr(kernels, name) for name in self.NAMES}
        for name, real in self.real.items():
            def counted(*args, real=real):
                self.depth += 1
                try:
                    out = real(*args)
                finally:
                    self.depth -= 1
                if self.depth == 0:
                    self.count += out[-1]
                return out
            setattr(kernels, name, counted)
        return self

    def __exit__(self, *exc):
        for name, real in self.real.items():
            setattr(kernels, name, real)


def _ol_log(m0, split, sched) -> dict:
    """What the smoke compares of one run_ol: the predictions' bytes, the
    versions, the update count, the skipped times and the radicand clamps."""
    with np.errstate(all="ignore"):
        c0 = mm_clamp_count()
        log = run_ol(m0, split, sched)
    return {"y_pred": log.y_pred.tobytes(), "versions": log.model_version.tolist(),
            "n_updates": log.metadata["n_updates"], "skipped": log.metadata["skipped_updates"],
            "clamps": mm_clamp_count() - c0}


def smoke(seed: int) -> int:
    bad = 0
    edge_skips = edge_clamps = 0
    runs = []
    for edge in (False, True):
        for prior in PriorMode:
            for method in Method:
                for kind, m0, split, sched in ol_units(KINDS, seed, True, edge, prior, method):
                    got = _ol_log(m0, split, sched)
                    with np.errstate(all="ignore"), KernelClamps() as frozen:
                        y_pred, versions, _, n_updates, skipped = loop_drivers.run_ol(
                            m0, split, sched)
                    want = {"y_pred": y_pred.tobytes(), "versions": versions.tolist(),
                            "n_updates": n_updates, "skipped": skipped, "clamps": frozen.count}
                    differ = [k for k in got if got[k] != want[k]]
                    if edge:
                        edge_skips += len(skipped)
                        edge_clamps += frozen.count
                    labels = {"kind": kind, "edge": edge, "prior": prior.value,
                              "method": method.value}
                    if differ:
                        bad += 1
                        print(json.dumps({**labels, "differ": differ}))
                    runs.append((labels, (m0, split, sched), got))
    # every unit once more, in reverse order, in this process: a unit's log
    # must not depend on the units or runs before it
    for labels, unit, got in reversed(runs):
        again = _ol_log(*unit)
        differ = [k for k in got if got[k] != again[k]]
        if differ:
            bad += 1
            print(json.dumps({**labels, "rerun": True, "differ": differ}))
    exercised = edge_skips > 0 and edge_clamps > 0
    print(json.dumps({"smoke": "passed" if exercised and not bad else "failed",
                      "mismatches": bad, "reruns": len(runs), "edge_skipped": edge_skips,
                      "edge_clamps": edge_clamps}))
    return 0 if exercised and not bad else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kinds", default=",".join(KINDS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args(argv)
    if a.smoke:
        return smoke(a.seed)
    units = ol_units(a.kinds.split(","), a.seed, False)
    best = {kind: np.inf for kind, *_ in units}
    logs = {}
    for _ in range(a.repeats):
        for kind, m0, split, sched in units:
            t0 = time.perf_counter()
            logs[kind] = run_ol(m0, split, sched)
            best[kind] = min(best[kind], time.perf_counter() - t0)
    for kind, _, _, sched in units:
        log = logs[kind]
        print(json.dumps({"kind": kind, "well": 1, "obs": len(log), "steps": sched.steps,
                          "updates": log.metadata["n_updates"],
                          "skipped": len(log.metadata["skipped_updates"]),
                          "repeats": a.repeats,
                          "us_per_obs": round(best[kind] / len(log) * 1e6, 1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
