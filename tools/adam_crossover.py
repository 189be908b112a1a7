"""Time adam_step's two forms at small parameter counts.

Calls ``kernels.adam_step`` with ``ADAM_LOOP_PARAMS`` set above the
parameter count (its Python-float loop) and set to 0 (its array form), the
two batches interleaved, and prints one JSON line per parameter count: the
min over ``--repeats`` batches of ``--calls`` steps, in microseconds per
call of each form.  The crossover is where ``array_us`` drops below
``loop_us``; ``ADAM_LOOP_PARAMS`` in ``src/vfmlab/kernels.py`` sits there.

    PYTHONPATH=src python3 tools/adam_crossover.py

Measured so far on a 2-core VM (numpy 2.4), min over 31 to 41 batches with
the two forms interleaved (the runs are in ``BENCH_10.json``, key
``crossover``): the array form makes 16 numpy calls and costs 8 to 16 us
whatever the length, as the host's phase moves it; the loop costs about
2 us plus 0.5 us per parameter.  They cross between 12 and 18 parameters,
hence ``ADAM_LOOP_PARAMS = 16``; at 6 and 7 parameters the loop takes 5 to
8 us a step against 8 to 15 us for the array form.

The kernels' loop/column split was measured the same way (min of 21, loop
and column runs interleaved): a column form costs a fixed number of numpy
calls of about 1 us each, a loop a few us per row.  The column form
overtakes the loop at about 16 to 20 rows for ``lr_loss_grad`` and HEM, 20
to 24 for ``mm_loss_grad`` and ``ham_loss_grad``, 24 to 32 for
``mm_predict`` and 32 to 48 for ``ham_predict``; at one row the loops are 3
to 12 times faster.  ``COLUMN_ROWS = 8`` predates the Python-float loops
and stays until a behaviour gate states the tolerance its move needs.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from vfmlab import kernels


def _us_per_call(loop_params, args, calls):
    saved = kernels.ADAM_LOOP_PARAMS
    kernels.ADAM_LOOP_PARAMS = loop_params
    try:
        t0 = time.perf_counter()
        for _ in range(calls):
            kernels.adam_step(*args)
        return (time.perf_counter() - t0) / calls * 1e6
    finally:
        kernels.ADAM_LOOP_PARAMS = saved


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="6,7,8,10,12,14,16,20,24,32,48")
    ap.add_argument("--repeats", type=int, default=21)
    ap.add_argument("--calls", type=int, default=500)
    a = ap.parse_args(argv)
    rng = np.random.default_rng(0)
    for n in (int(s) for s in a.sizes.split(",")):
        theta = rng.standard_normal(n)
        # a third of the entries with a finite lower bound
        lower = np.where(np.arange(n) % 3 == 0, theta - 1.0, -np.inf)
        upper = np.full(n, np.inf)
        m, v = np.zeros(n), np.zeros(n)
        args = (theta, rng.standard_normal(n), m, v, 5, 1e-3, 0.9, 0.999, 1e-8,
                lower, upper)
        loop_us, array_us = [], []
        for _ in range(a.repeats):
            loop_us.append(_us_per_call(n + 1, args, a.calls))
            array_us.append(_us_per_call(0, args, a.calls))
        print(json.dumps({"n": n, "loop_us": round(min(loop_us), 2),
                          "array_us": round(min(array_us), 2)}))


if __name__ == "__main__":
    main()
