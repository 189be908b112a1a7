"""Time one PBL-2w unit's refits fitted one at a time against in lockstep.

For each kind, builds well 1 of the default StudyConfig at ``--seed``, fits
the unit's initial model, and lists the refits that ``learning.run_pbl``
makes under PBL-2w (by running it once and keeping what it hands to
``optim.fit_maps``).  Then it times

* sequential: ``optim.fit_map`` once per refit, and
* lockstep: one ``optim.fit_maps`` call over all of them,

alternating, ``--repeats`` times each, and prints one JSON line per kind:
the refit count, the min seconds of each side, their ratio, the min count
of minor page faults of each side (the process's ``ru_minflt`` over one
call), and whether every fitted vector (and every failure) is the same,
bit for bit.  Every fit runs a fixed number of epochs (patience equals the
cap), as in the benchmark's pbl-refit workload: 17 per MM refit and 48 per
refit of the other kinds, its count for NN; 15 for each initial fit.

    PYTHONPATH=src python3 tools/pbl_lockstep.py
    PYTHONPATH=src python3 tools/pbl_lockstep.py --kinds mm,nn --repeats 7
    PYTHONPATH=src python3 tools/pbl_lockstep.py --smoke

``--smoke`` runs every trainable kind at a tiny size in a few seconds (well
1's first 240 days, split at day 180, a refit every 3 days, 3 epochs per
fit, one repeat) and exits 1 when any fit differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
import warnings

import numpy as np

from vfmlab import learning
from vfmlab.config import StudyConfig
from vfmlab.core import chronological_split, fit_scaler
from vfmlab.errors import DataError, NumericError
from vfmlab.models import TRAINABLE_KINDS, init_model
from vfmlab.optim import EarlyStoppingConfig, LossSpec, fit_map, fit_maps
from vfmlab.synth import generate_stream

DAY = 86400.0
REFIT_EPOCHS = {"mm": 17}     # the pbl-refit workload's; 48 for every other kind
KINDS = tuple(k.value.lower() for k in TRAINABLE_KINDS)


def unit(kind: str, seed: int, smoke: bool):
    """(m0, refits, schedule) of PBL-2w on well 1: the initial model and the
    (scaler, history) pairs run_pbl fits."""
    cfg = StudyConfig(seed=seed)
    sc = cfg.scenario_objects()[0]
    ds = generate_stream(sc)
    if smoke:
        ds = ds.take(np.flatnonzero(ds.t < ds.t[0] + 240 * DAY))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        split = chronological_split(ds, cfg.split_time())
    epochs = 3 if smoke else REFIT_EPOCHS.get(kind, 48)
    init_epochs = 3 if smoke else 15
    loss = LossSpec.from_data(split.train, rel=cfg.noise_rel, prior_mode=cfg.prior())
    m0 = init_model(kind, shape=cfg.network_shape(), mtl=cfg.mtl_params([sc.well_id]),
                    seed=seed, scaler=fit_scaler(split.train))
    m0 = fit_map(m0, split.train, loss, cfg.init_ocfg_for(kind),
                 EarlyStoppingConfig(patience=init_epochs, max_epochs=init_epochs))
    spec = next(s for s in cfg.schedule_specs() if s.name == "PBL-2w")
    sched = spec.to_schedule(kind, loss, EarlyStoppingConfig(patience=epochs,
                                                             max_epochs=epochs))
    if smoke:
        sched = dataclasses.replace(sched, period_s=3 * DAY)
    seen = []
    real = learning.fit_maps
    learning.fit_maps = lambda m, fits, *a: seen.append(fits) or real(m, fits, *a)
    try:
        learning.run_pbl(m0, split, sched)
    finally:
        learning.fit_maps = real
    return m0, seen[0], sched


def sequential(m0, refits, s):
    out = []
    for scaler, history in refits:
        try:
            out.append(fit_map(dataclasses.replace(m0, scaler=scaler), history,
                               s.loss, s.ocfg, s.escfg))
        except (DataError, NumericError) as e:
            out.append(e)
    return out


def lockstep(m0, refits, s):
    return fit_maps(m0, refits, s.loss, s.ocfg, s.escfg)


def same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return (a.params.values.tobytes() == b.params.values.tobytes()
            and a.scaler is b.scaler and a.version == b.version)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kinds", default=",".join(KINDS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args(argv)
    kinds = KINDS if a.smoke else a.kinds.split(",")
    repeats = 1 if a.smoke else a.repeats
    ok = True
    for kind in kinds:
        m0, refits, sched = unit(kind, a.seed, a.smoke)
        times = {"sequential": [], "lockstep": []}
        faults = {"sequential": [], "lockstep": []}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(repeats):
                for name, fn in (("sequential", sequential), ("lockstep", lockstep)):
                    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                    t0 = time.perf_counter()
                    got = fn(m0, refits, sched)
                    times[name].append(time.perf_counter() - t0)
                    faults[name].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
                    if name == "sequential":
                        want = got
            identical = len(got) == len(want) and all(map(same, got, want))
        ok &= identical
        seq, lock = min(times["sequential"]), min(times["lockstep"])
        print(json.dumps({"kind": kind, "refits": len(refits), "repeats": repeats,
                          "sequential_s": round(seq, 4), "lockstep_s": round(lock, 4),
                          "speedup": round(seq / lock, 2),
                          "sequential_minflt": min(faults["sequential"]),
                          "lockstep_minflt": min(faults["lockstep"]), "identical": identical}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
