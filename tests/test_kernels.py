"""Cross-process reproducibility of every public number the kernels produce.

The battery below runs in two fresh interpreters that differ only in
PYTHONHASHSEED (0 and 1), and the results must be equal bit for bit: nothing
may depend on hash order or on state left in a process.  The two runs are the
"lanes" of the ``test_lanes_agree_*`` names.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

BATTERY = r"""
import sys
import numpy as np
import vfmlab
from vfmlab import (LossSpec, MtlParams, NetworkShape, WellDataset, fit_scaler,
                    init_model)

sys.path.insert(0, sys.argv[2])
from objective import map_objective, step_loss_grad

rng = np.random.default_rng(42)
n = 64
p1 = rng.uniform(9e6, 2e7, n)
X = np.column_stack([
    rng.uniform(0.1, 0.95, n),
    p1,
    p1 * rng.uniform(0.4, 0.9, n),
    rng.uniform(310, 370, n),
    rng.uniform(0.1, 0.5, n),
    rng.uniform(0.1, 0.6, n),
])
y = rng.uniform(5e3, 6e4, n)
t = np.arange(n, dtype=float) * 600.0
wells = rng.integers(1, 4, n)
source = np.zeros(n, dtype=np.uint8)
ds = WellDataset(t, X, y, source, wells.astype(np.int64))
scaler = fit_scaler(ds)

out = {}
loss = LossSpec(noise_std=0.03 * float(np.mean(y)))
specs = [
    ("lr", {}),
    ("nn", dict(shape=NetworkShape(hidden=(12, 8)))),
    ("mm", {}),
    ("hem", dict(shape=NetworkShape(hidden=(10,)))),
    ("ham", dict(shape=NetworkShape(hidden=(10,)))),
    ("mtl", dict(mtl=MtlParams(well_ids=(1, 2, 3), task_dim=4,
                               block_width=12, n_blocks=2))),
]
for kind, kw in specs:
    m = init_model(kind, seed=7, scaler=scaler, **kw)
    theta = m.params.values + 0.05 * rng.standard_normal(len(m.params))
    m = m.with_values(theta)
    out[f"{kind}_pred"] = vfmlab.predict(m, X, wells if kind == "mtl" else None)
    step_loss, step_grad = step_loss_grad(m, ds, loss)
    out[f"{kind}_loss"] = np.array([step_loss])
    out[f"{kind}_grad"] = step_grad
    out[f"{kind}_maploss"] = np.array([map_objective(m, ds, loss)])

np.savez(sys.argv[1], **out)
"""


HASH_SEEDS = ("0", "1")
TESTS_DIR = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(scope="module")
def lane_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("lanes")
    results = {}
    for seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        out = root / f"hashseed{seed}.npz"
        proc = subprocess.run([sys.executable, "-c", BATTERY, str(out), TESTS_DIR],
                              env=env, capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr[-2000:]
        results[seed] = dict(np.load(out))
    return results


@pytest.mark.parametrize("kind", ["lr", "nn", "mm", "hem", "ham", "mtl"])
def test_lanes_agree_on_predictions(lane_outputs, kind):
    a, b = (lane_outputs[seed][f"{kind}_pred"] for seed in HASH_SEEDS)
    assert a.shape == b.shape
    assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["lr", "nn", "mm", "hem", "ham", "mtl"])
def test_lanes_agree_on_loss_and_gradient(lane_outputs, kind):
    a, b = (lane_outputs[seed] for seed in HASH_SEEDS)
    for key in ("loss", "maploss", "grad"):
        assert np.array_equal(a[f"{kind}_{key}"], b[f"{kind}_{key}"]), key


def test_import_emits_no_warning():
    proc = subprocess.run([sys.executable, "-W", "error", "-c", "import vfmlab"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-1000:]
    assert proc.stderr == ""
