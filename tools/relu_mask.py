"""Time the network backward's ReLU mask in its two forms.

The two forms of "d where a > 0, else +0.0":

* where: ``np.where(a > 0.0, d, 0.0)``, one branch per element;
* bits: ``kernels._relu_mask``, which multiplies d's bits, viewed as int64,
  by the boolean mask in place.

Part one times each form alone at (1, 32), (64, 32) and (16, 64, 32), the
shapes of a one-row call, of a 64-row mini-batch and of 16 such batches
stacked, over ``--masks`` different random masks (so that no branch
predictor learns them), each form on its own fresh copy of d.  Part two
times ``kernels.nn_loss_grad`` (NN 6-32-32-1) at 1 and 64 rows and with 16
fits of 64 rows stacked, with ``kernels._relu_mask`` as committed and
replaced by the where form.  Both parts interleave the two forms, take the
min over ``--repeats`` rounds and print one JSON line per shape in us per
call; every line also says whether the two forms agree bit for bit.

    PYTHONPATH=src python3 tools/relu_mask.py
    PYTHONPATH=src python3 tools/relu_mask.py --repeats 9 --masks 32
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from vfmlab import kernels
from vfmlab.models import NetworkShape

WIDTHS = np.array(NetworkShape(hidden=(32, 32)).widths(), dtype=np.int64)
SHAPES = ((1, 32), (64, 32), (16, 64, 32))


def where_mask(d, a):
    return np.where(a > 0.0, d, 0.0)


def _time(fn, args, copies):
    """Seconds per call of fn over the argument tuples, each d a fresh copy."""
    ds = [d.copy() for d, _ in args] if copies else [d for d, _ in args]
    t0 = time.perf_counter()
    for d, (_, a) in zip(ds, args):
        fn(d, a)
    return (time.perf_counter() - t0) / len(args)


def masks(rng, shape, count, repeats):
    args = [(rng.standard_normal(shape), rng.standard_normal(shape)) for _ in range(count)]
    times = {"where": [], "bits": []}
    for r in range(repeats):
        order = (("where", where_mask), ("bits", kernels._relu_mask))
        for name, fn in order if r % 2 == 0 else order[::-1]:
            times[name].append(_time(fn, args, copies=name == "bits"))
    same = all(where_mask(d, a).view(np.int64).tobytes()
               == kernels._relu_mask(d.copy(), a).view(np.int64).tobytes() for d, a in args)
    return times, same


def nn_args(rng, fits, n, count):
    out = []
    for _ in range(count):
        lead = () if fits is None else (fits,)
        theta = rng.standard_normal(lead + (NetworkShape(hidden=(32, 32)).n_params(),)) * 0.3
        iv = 2.5 if fits is None else rng.uniform(0.5, 3.0, (fits, 1))
        out.append((theta, 0, WIDTHS, rng.standard_normal(lead + (n, 6)),
                    rng.standard_normal(lead + (n,)), iv))
    return out


def nn_grads(rng, fits, n, count, repeats):
    args = nn_args(rng, fits, n, count)
    committed = kernels._relu_mask

    def run(fn):
        kernels._relu_mask = fn
        try:
            t0 = time.perf_counter()
            got = [kernels.nn_loss_grad(*a) for a in args]
            return (time.perf_counter() - t0) / count, got
        finally:
            kernels._relu_mask = committed

    times = {"where": [], "bits": []}
    results = {}
    for r in range(repeats):
        order = (("where", where_mask), ("bits", committed))
        for name, fn in order if r % 2 == 0 else order[::-1]:
            t, results[name] = run(fn)
            times[name].append(t)
    same = all(np.asarray(sw).tobytes() == np.asarray(sb).tobytes()
               and gw.tobytes() == gb.tobytes()
               for (sw, gw), (sb, gb) in zip(results["where"], results["bits"]))
    return times, same


def line(part, shape, times, same):
    where, bits = min(times["where"]) * 1e6, min(times["bits"]) * 1e6
    return json.dumps({"part": part, "shape": list(shape), "where_us": round(where, 2),
                       "bits_us": round(bits, 2), "ratio": round(where / bits, 2),
                       "identical": same})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=21)
    ap.add_argument("--masks", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    a = ap.parse_args(argv)
    rng = np.random.default_rng(a.seed)
    ok = True
    for shape in SHAPES:
        times, same = masks(rng, shape, a.masks, a.repeats)
        ok &= same
        print(line("mask", shape, times, same), flush=True)
    for fits, n in ((None, 1), (None, 64), (16, 64)):
        times, same = nn_grads(rng, fits, n, min(a.masks, 32), a.repeats)
        ok &= same
        print(line("nn_loss_grad", (n,) if fits is None else (fits, n), times, same),
              flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
