"""Every vfmlab name the benchmark harness binds still resolves.

A traced benchmark run patches the functions listed in ``bench.tracer.TARGETS``
by module and name, the harness modules import vfmlab names at their top, and
``bench/envinfo.py`` reads ``vfmlab.NUMBA_ENABLED``.  A change to the library
that drops one of these names would otherwise show only when the benchmark
itself runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the repository root

from bench import probe, tracer  # noqa: E402


@pytest.mark.parametrize("target", tracer.TARGETS, ids=lambda t: t.name)
def test_tracer_target_resolves(target):
    assert callable(getattr(importlib.import_module(target.module), target.attr))


@pytest.mark.parametrize("module", ["bench.probe", "bench.runner", "bench.reanchor"])
def test_harness_module_imports(module):
    importlib.import_module(module)


def test_kernel_probe_runs_every_kind():
    out = probe.run_probe(0, rows=(1,), samples=1, min_sample_s=0.0)
    want = {f"probe.{kind}.{op}_us.n1" for kind in probe.KINDS for op in ("predict", "grad")}
    want |= {f"probe.adam_step_us.{kind}" for kind in probe.ADAM_KINDS}
    assert set(out) == want


def test_kernel_lane_constant_is_exported():
    import vfmlab

    assert vfmlab.NUMBA_ENABLED is False
