"""Time PBL-2w refits fitted one at a time against in lockstep, per kind.

For each kind, builds wells 1 to ``--wells`` of the default StudyConfig at
``--seed``, fits each well's initial model, and lists the refits that
``learning.run_schedules`` makes under PBL-2w for those wells together (by
running it once and keeping what it hands to ``optim.fit_maps``).  With
more than one well, the wells' initial fits are listed as well.  Then it
times, for each list,

* sequential: ``optim.fit_map`` once per fit, and
* lockstep: one ``optim.fit_maps`` call over all of them,

alternating, ``--repeats`` times each, and prints one JSON line per kind
and list: the fit count, the min seconds of each side, their ratio,
whether every fitted vector (and every failure) is the same, bit for bit,
and the lockstep's counts: its stack cap (``optim.LOCKSTEP_FITS``, or
``--cap``), its workers (``fit_maps`` splits a list of more fits than the
cap across up to one process per CPU), its ticks (optimizer steps of the
stack), its fit-steps (the live fits summed over its ticks) and how busy
the stack was (fit-steps over ticks times the cap).  The counts come from
wrapping ``optim.optimizer_step`` while the lockstep runs, so with more than
one worker ``ticks``, ``fit_steps`` and ``busy`` count the share that runs
in this process only; ``taskset -c 0`` runs every fit in it.

Every fit runs a fixed number of epochs (patience equals the cap), as in
the benchmark's pbl-refit workload: 17 per MM refit and 48 per refit of
the other kinds, its count for NN; 15 for each initial fit.  With
``--early-stopping`` every fit stops as the study's do instead (the default
StudyConfig's early stopping: patience 10, at most 100 epochs).  An MTL
unit per well takes the task layout of all listed wells, so that the
wells' fits can share one stack.

    PYTHONPATH=src python3 tools/pbl_lockstep.py
    PYTHONPATH=src python3 tools/pbl_lockstep.py --kinds mm,nn --repeats 7
    PYTHONPATH=src python3 tools/pbl_lockstep.py --wells 5 --early-stopping --cap 32
    PYTHONPATH=src python3 tools/pbl_lockstep.py --smoke

``--smoke`` runs every trainable kind at a tiny size in a few seconds (the
first 240 days of each well, split at day 180, a refit every 3 days, 3
epochs per fit, one repeat), on well 1 alone and on wells 1 to 3 together,
and exits 1 when any fit differs.  Its 19 refits per well are more than a
stack takes, so on more than one CPU they run split across workers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import warnings

import numpy as np

from vfmlab import learning, optim
from vfmlab.config import StudyConfig
from vfmlab.core import chronological_split, fit_scaler
from vfmlab.errors import DataError, NumericError
from vfmlab.models import TRAINABLE_KINDS, init_model
from vfmlab.optim import EarlyStoppingConfig, LossSpec, fit_map, fit_maps
from vfmlab.synth import generate_stream

DAY = 86400.0
REFIT_EPOCHS = {"mm": 17}     # the pbl-refit workload's; 48 for every other kind
KINDS = tuple(k.value.lower() for k in TRAINABLE_KINDS)


def fit_lists(kind: str, seed: int, smoke: bool, n_wells: int,
              early_stopping: bool = False) -> dict:
    """{part: (fits, OptimizerConfig, EarlyStoppingConfig)} of PBL-2w on
    wells 1 to n_wells: the refits run_schedules hands to fit_maps and, for
    more than one well, the wells' initial fits; each fit a (start, train,
    loss) triple."""
    cfg = StudyConfig(seed=seed)
    scenarios = cfg.scenario_objects()[:n_wells]
    mtl = cfg.mtl_params([sc.well_id for sc in scenarios])
    epochs = 3 if smoke else REFIT_EPOCHS.get(kind, 48)
    init_epochs = 3 if smoke else 15
    init = EarlyStoppingConfig(patience=init_epochs, max_epochs=init_epochs)
    escfg = EarlyStoppingConfig(patience=epochs, max_epochs=epochs)
    if early_stopping:
        init = escfg = cfg.escfg()
    initial, splits = [], []
    for sc in scenarios:
        ds = generate_stream(sc)
        if smoke:
            ds = ds.take(np.flatnonzero(ds.t < ds.t[0] + 240 * DAY))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            split = chronological_split(ds, cfg.split_time())
        loss = LossSpec.from_data(split.train, rel=cfg.noise_rel, prior_mode=cfg.prior())
        m0 = init_model(kind, shape=cfg.network_shape(), mtl=mtl, seed=seed,
                        scaler=fit_scaler(split.train))
        initial.append((m0, split.train, loss))
        splits.append(split)
    spec = next(s for s in cfg.schedule_specs() if s.name == "PBL-2w")
    units = []
    fitted = sequential(initial, cfg.init_ocfg_for(kind), init)
    for (_, _, loss), m0, split in zip(initial, fitted, splits):
        sched = spec.to_schedule(kind, loss, escfg)
        units.append((m0, split, dataclasses.replace(sched, period_s=3 * DAY)
                      if smoke else sched))
    seen = []
    real = learning.fit_maps
    learning.fit_maps = lambda fits, *a: seen.append(fits) or real(fits, *a)
    try:
        learning.run_schedules(units)
    finally:
        learning.fit_maps = real
    lists = {"refits": (seen[0], sched.ocfg, sched.escfg)}
    if n_wells > 1:
        lists["initial"] = (initial, cfg.init_ocfg_for(kind), init)
    return lists


def sequential(fits, ocfg, escfg):
    out = []
    for start, train, loss in fits:
        try:
            out.append(fit_map(start, train, loss, ocfg, escfg))
        except (DataError, NumericError) as e:
            out.append(e)
    return out


class StepCount:
    """While entered, counts the optimizer steps that return in this process
    (the ticks of a lockstep) and the fits they update (its fit-steps), and
    keeps the worker count of the last fit_maps call."""

    def __enter__(self):
        self.ticks = self.fit_steps = 0
        self.workers = 1
        self.real = real = optim.optimizer_step
        self.real_workers = real_workers = optim._workers

        def counted(state, grad, *args):
            out = real(state, grad, *args)
            self.ticks += 1
            self.fit_steps += len(grad)
            return out

        def workers(n):
            self.workers = real_workers(n)
            return self.workers

        optim.optimizer_step = counted
        optim._workers = workers
        return self

    def __exit__(self, *exc):
        optim.optimizer_step = self.real
        optim._workers = self.real_workers


def lockstep(fits, ocfg, escfg):
    return fit_maps(fits, ocfg, escfg)


def same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return (a.params.values.tobytes() == b.params.values.tobytes()
            and a.scaler is b.scaler and a.version == b.version)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kinds", default=",".join(KINDS))
    ap.add_argument("--wells", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--early-stopping", action="store_true")
    ap.add_argument("--cap", type=int, default=optim.LOCKSTEP_FITS)
    a = ap.parse_args(argv)
    optim.LOCKSTEP_FITS = a.cap
    kinds = KINDS if a.smoke else a.kinds.split(",")
    repeats = 1 if a.smoke else a.repeats
    ok = True
    for n_wells in (1, 3) if a.smoke else (a.wells,):
        for kind in kinds:
            lists = fit_lists(kind, a.seed, a.smoke, n_wells, a.early_stopping)
            for part, (fits, ocfg, escfg) in lists.items():
                times = {"sequential": [], "lockstep": []}
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    for _ in range(repeats):
                        for name, fn in (("sequential", sequential), ("lockstep", lockstep)):
                            with StepCount() as count:
                                t0 = time.perf_counter()
                                got = fn(fits, ocfg, escfg)
                                times[name].append(time.perf_counter() - t0)
                            if name == "sequential":
                                want = got
                            else:
                                ticks, fit_steps = count.ticks, count.fit_steps
                                workers = count.workers
                    identical = len(got) == len(want) and all(map(same, got, want))
                ok &= identical
                seq, lock = min(times["sequential"]), min(times["lockstep"])
                print(json.dumps({"kind": kind, "wells": n_wells, "part": part,
                                  "fits": len(fits), "repeats": repeats,
                                  "sequential_s": round(seq, 4), "lockstep_s": round(lock, 4),
                                  "speedup": round(seq / lock, 2),
                                  "identical": identical, "cap": a.cap,
                                  "workers": workers, "ticks": ticks, "fit_steps": fit_steps,
                                  "busy": round(fit_steps / (ticks * a.cap), 3)}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
