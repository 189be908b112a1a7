"""In-memory span tracer for the benchmark's layer run.

The tracer replaces selected vfmlab functions by timing wrappers at every
module binding that holds them.  Modules bind public functions with
from-imports (``cli.fit_map`` is ``optim.fit_map``) and kernels call one
another through their module globals (``hem_predict`` calls
``nn_predict``), so patching only the defining module would miss most
calls.  Each call records one span: name, start, end, parent span, and a
size (rows for kernels, parameters for Adam, rows written or read for I/O).
Spans stay in flat arrays until the run ends; :meth:`Tracer.save` writes
them out.  Timing uses :func:`time.perf_counter` only.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np


def _rows(args, result) -> int:
    """Rows of the first 2-D array argument (X or Xs of a kernel call)."""
    for a in args:
        if isinstance(a, np.ndarray) and a.ndim == 2:
            return int(a.shape[0])
    return 0


def _params(args, result) -> int:
    return int(args[0].shape[0])


def _len_arg0(args, result) -> int:
    return len(args[0])


def _len_result(args, result) -> int:
    return len(result)


def _ingested_rows(args, result) -> int:
    return sum(len(ds) for ds in result)


def _ol_counts(args, result) -> tuple[int, int]:
    meta = result.metadata
    return int(meta["n_updates"]), len(meta["skipped_updates"])


def _pbl_counts(args, result) -> tuple[int, int]:
    meta = result.metadata
    return int(meta["n_retrains"]), len(meta["failed_periods"])


@dataclass(frozen=True)
class Target:
    """One function to trace: where it is defined and what to count per call."""

    module: str
    attr: str
    size: Callable | None = None     # (args, result) -> int, kept per span
    extra: Callable | None = None    # (args, result) -> tuple, kept per span

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


_KERNELS = tuple(Target("vfmlab.kernels", f"{kind}_{op}", size=_rows)
                 for kind in ("lr", "nn", "mm", "hem", "mtl")
                 for op in ("predict", "loss_grad"))

TARGETS: tuple[Target, ...] = _KERNELS + (
    Target("vfmlab.kernels", "adam_step", size=_params),
    Target("vfmlab.models", "plan_predict"),
    Target("vfmlab.models", "plan_loss_grad"),
    Target("vfmlab.models", "build_plan"),
    Target("vfmlab.models", "scale_inputs"),
    Target("vfmlab.optim", "fit_map"),
    Target("vfmlab.optim", "optimizer_step"),
    Target("vfmlab.optim", "prior_loss_and_grad"),
    Target("vfmlab.optim", "grid_search"),
    Target("vfmlab.learning", "run_ol", size=_len_result, extra=_ol_counts),
    Target("vfmlab.learning", "run_pbl", size=_len_result, extra=_pbl_counts),
    Target("vfmlab.learning", "write_log", size=_len_arg0),
    Target("vfmlab.learning", "read_log", size=_len_result),
    Target("vfmlab.drift", "estimate_update_frequency", size=_len_result),
    Target("vfmlab.drift", "f_quantile"),
    Target("vfmlab.core", "ingest_csv", size=_ingested_rows),
    Target("vfmlab.core", "write_csv"),
    Target("vfmlab.core", "fit_scaler"),
    Target("vfmlab.core", "chronological_split"),
    Target("vfmlab.synth", "generate_stream"),
    Target("vfmlab.metrics", "summarize"),
    Target("vfmlab.metrics", "metric_report"),
    Target("vfmlab.metrics", "write_summary_csv"),
    Target("vfmlab.metrics", "write_rolling_csv"),
    Target("vfmlab.cli", "main"),
    Target("vfmlab.cli", "cmd_simulate"),
    Target("vfmlab.cli", "cmd_tune"),
    Target("vfmlab.cli", "cmd_run"),
    Target("vfmlab.cli", "cmd_detect"),
    Target("vfmlab.cli", "cmd_report"),
)


@dataclass
class Spans:
    """Finished spans as columns; ``parent`` is -1 for a root span."""

    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    size: np.ndarray
    extra: dict

    def __len__(self) -> int:
        return len(self.name)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Duration minus the part of it that child spans cover."""
        dur = self.duration
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                            minlength=len(self))
        return dur - child

    def ix(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def owner(self, owners: tuple[str, ...]) -> np.ndarray:
        """For each span, the nearest strict ancestor whose name is in
        ``owners`` (as a span index), or -1."""
        wanted = {self.ix(n) for n in owners} - {-1}
        name, parent = self.name.tolist(), self.parent.tolist()
        out = [-1] * len(name)
        for i, p in enumerate(parent):  # a parent always precedes its children
            if p >= 0:
                out[i] = p if name[p] in wanted else out[p]
        return np.asarray(out, dtype=np.int64)


class Tracer:
    """Wraps the targets on :meth:`install`, restores them on :meth:`uninstall`."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.names = [t.name for t in targets]
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._size = array("q")
        self._extra: dict[int, tuple] = {}
        self._stack = [-1]
        self._patched: list[tuple[ModuleType, str, object]] = []

    def _wrap(self, fn, ix: int, target: Target):
        name_a, start_a, end_a = self._name, self._start, self._end
        parent_a, size_a, stack = self._parent, self._size, self._stack
        extra, size_fn, extra_fn = self._extra, target.size, target.extra
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_a)
            name_a.append(ix)
            parent_a.append(stack[-1])
            start_a.append(0.0)
            end_a.append(0.0)
            size_a.append(0)
            stack.append(i)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                start_a[i] = t0
                end_a[i] = t1
                if result is not None:
                    if size_fn is not None:
                        size_a[i] = size_fn(args, result)
                    if extra_fn is not None:
                        extra[i] = extra_fn(args, result)

        return traced

    def install(self) -> None:
        originals = {}
        for ix, t in enumerate(self.targets):
            fn = getattr(sys.modules[t.module], t.attr)
            originals[id(fn)] = (fn, self._wrap(fn, ix, t))
        for mod in list(sys.modules.values()):
            if not isinstance(mod, ModuleType):
                continue
            for key, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
                    self._patched.append((mod, key, value))

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched.clear()

    def spans(self) -> Spans:
        return Spans(list(self.names),
                     np.frombuffer(self._name, dtype=np.int32).astype(np.int64),
                     np.frombuffer(self._start, dtype=np.float64).copy(),
                     np.frombuffer(self._end, dtype=np.float64).copy(),
                     np.frombuffer(self._parent, dtype=np.int64).copy(),
                     np.frombuffer(self._size, dtype=np.int64).copy(),
                     dict(self._extra))

    def save(self, path: Path) -> None:
        """Write the spans as a compressed npz (columns plus the name table)."""
        s = self.spans()
        np.savez_compressed(path, names=np.array(s.names), name=s.name, start=s.start,
                            end=s.end, parent=s.parent, size=s.size)


def per_span_cost(n: int = 20000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one call, min over repeats."""
    def noop(a):
        return a

    tracer = Tracer(())
    wrapped = tracer._wrap(noop, 0, Target("bench", "noop"))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            noop(1)
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped(1)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return max(best, 0.0)
