"""The seven predictors: benchmark, LR, NN, MTL, MM, HEM, HAM.

Parameterization is one flat float64 vector per model (:class:`ParameterSet`),
with per-parameter prior mean/std, physical-vs-data-driven flags, and hard
bounds.  Mechanistic parameters always occupy the leading slots:

* MM, HEM: (rho_oil, rho_wat, kappa, M_gas, p_cr, C_D), then NN weights (HEM).
* HAM: (rho_oil, rho_wat, kappa, M_gas, p_cr), then the area-net weights;
  the discharge coefficient is replaced by softplus(NN(x)).

Input convention: neural-network terms consume standardized inputs via the
model's FeatureScaler; mechanistic terms consume raw physical units.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import kernels
from .core import D_INPUT, FeatureScaler, substream
from .errors import ConfigError, NumericError, SchemaError

MM_PARAM_NAMES = ("rho_oil", "rho_wat", "kappa", "M_gas", "p_cr", "C_D")

# Default prior (mean, std) per mechanistic parameter; the freshwater density
# anchor 1000 kg/m3 is the only literature-pinned value, all overridable.
DEFAULT_PRIORS: dict[str, tuple[float, float]] = {
    "rho_oil": (800.0, 100.0),
    "rho_wat": (1000.0, 25.0),
    "kappa": (1.3, 0.1),
    "M_gas": (0.020, 0.004),
    "p_cr": (0.55, 0.1),
    "C_D": (0.84, 0.2),
}

# Hard feasibility bounds; optimizers clip physical parameters here after
# every step. Ranges cover condensate-to-heavy oil, fresh-to-dense brine,
# near-ideal to rich gas, and the usual choked-flow ratio window.
HARD_BOUNDS: dict[str, tuple[float, float]] = {
    "rho_oil": (500.0, 1100.0),
    "rho_wat": (900.0, 1200.0),
    "kappa": (1.05, 1.70),
    "M_gas": (0.016, 0.050),
    "p_cr": (0.30, 0.95),
    "C_D": (0.05, 1.50),
}


class ModelKind(enum.Enum):
    BENCHMARK = "Benchmark"
    LR = "LR"
    NN = "NN"
    MTL = "MTL"
    MM = "MM"
    HEM = "HEM"
    HAM = "HAM"

    @classmethod
    def from_str(cls, s: str) -> "ModelKind":
        for k in cls:
            if k.value.lower() == s.strip().lower():
                return k
        raise ConfigError(f"unknown model kind {s!r}")

    @property
    def is_mechanistic(self) -> bool:
        return self in (ModelKind.MM, ModelKind.HEM, ModelKind.HAM)

    @property
    def uses_network(self) -> bool:
        return self in (ModelKind.NN, ModelKind.MTL, ModelKind.HEM, ModelKind.HAM)


TRAINABLE_KINDS = (ModelKind.LR, ModelKind.NN, ModelKind.MTL,
                   ModelKind.MM, ModelKind.HEM, ModelKind.HAM)


# ----------------------------------------------------------------- structure


@dataclass(frozen=True)
class NetworkShape:
    """MLP dimensioning: input_dim -> hidden widths -> output_dim."""

    input_dim: int = D_INPUT
    hidden: tuple[int, ...] = (32, 32)
    output_dim: int = 1

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1 or any(w < 1 for w in self.hidden):
            raise ConfigError("network widths must be >= 1")

    def widths(self) -> np.ndarray:
        return np.array((self.input_dim, *self.hidden, self.output_dim), dtype=np.int64)

    def n_params(self) -> int:
        w = self.widths()
        return int(sum(w[i] * w[i + 1] + w[i + 1] for i in range(len(w) - 1)))


@dataclass(frozen=True)
class MtlParams:
    """Residual-network topology and task-embedding layout.

    The shared parameters (alpha) and the task matrix B (task_dim x n_tasks,
    column j belongs to well_ids[j]) both live in the owning ParameterSet;
    B occupies the trailing task_dim*n_tasks slots.
    """

    well_ids: tuple[int, ...]
    task_dim: int = 4
    block_width: int = 32
    n_blocks: int = 2

    def __post_init__(self):
        if len(self.well_ids) < 1:
            raise ConfigError("MTL needs at least one well id")
        if len(set(self.well_ids)) != len(self.well_ids):
            raise ConfigError("duplicate well ids")
        if self.task_dim < 1 or self.block_width < 1 or self.n_blocks < 0:
            raise ConfigError("invalid MTL dimensions")
        object.__setattr__(self, "well_ids", tuple(int(w) for w in self.well_ids))

    @property
    def n_tasks(self) -> int:
        return len(self.well_ids)

    def col_of(self, well_id: int) -> int:
        try:
            return self.well_ids.index(int(well_id))
        except ValueError:
            raise ConfigError(f"well_id {well_id} not in MTL task set {self.well_ids}") from None

    def dims(self, input_dim: int = D_INPUT) -> np.ndarray:
        return np.array(
            (input_dim, self.task_dim, self.block_width, self.n_blocks, self.n_tasks),
            dtype=np.int64,
        )

    def n_params(self, input_dim: int = D_INPUT) -> int:
        d, p, h, nb, m = input_dim, self.task_dim, self.block_width, self.n_blocks, self.n_tasks
        return d * h + p * h + h + nb * (2 * h * h + 2 * h) + h + 1 + p * m


@dataclass(frozen=True)
class MechanisticParams:
    """Physical parameter values of the choke equation."""

    rho_oil: float = DEFAULT_PRIORS["rho_oil"][0]
    rho_wat: float = DEFAULT_PRIORS["rho_wat"][0]
    kappa: float = DEFAULT_PRIORS["kappa"][0]
    M_gas: float = DEFAULT_PRIORS["M_gas"][0]
    p_cr: float = DEFAULT_PRIORS["p_cr"][0]
    C_D: float = DEFAULT_PRIORS["C_D"][0]

    def __post_init__(self):
        if min(self.rho_oil, self.rho_wat, self.kappa, self.M_gas, self.p_cr, self.C_D) <= 0:
            raise ConfigError("mechanistic parameters must be positive")
        if not 0.0 < self.p_cr < 1.0:
            raise ConfigError("p_cr must lie in (0, 1)")
        if self.C_D > 1.5:
            raise ConfigError("C_D must be <= 1.5")

    def as_array(self) -> np.ndarray:
        return np.array([self.rho_oil, self.rho_wat, self.kappa,
                         self.M_gas, self.p_cr, self.C_D], dtype=np.float64)

    def with_value(self, name: str, value: float) -> "MechanisticParams":
        if name not in MM_PARAM_NAMES:
            raise ConfigError(f"unknown mechanistic parameter {name!r}")
        return replace(self, **{name: float(value)})

    def value_of(self, name: str) -> float:
        if name not in MM_PARAM_NAMES:
            raise ConfigError(f"unknown mechanistic parameter {name!r}")
        return float(getattr(self, name))


@dataclass(frozen=True)
class ChokeGeometry:
    """Effective flow area A2(u) = a_max*(c1*u + c2*u^2 + c3*u^3), c's sum to 1."""

    a_max: float = 3.0e-3
    c1: float = 0.1
    c2: float = 0.0
    c3: float = 0.9

    def __post_init__(self):
        if self.a_max <= 0:
            raise ConfigError("a_max must be positive")
        if abs(self.c1 + self.c2 + self.c3 - 1.0) > 1e-9:
            raise ConfigError("area coefficients must sum to 1")
        u = np.linspace(0.0, 1.0, 1001)
        dadu = self.c1 + 2 * self.c2 * u + 3 * self.c3 * u * u
        if np.any(dadu < -1e-12):
            raise ConfigError("area profile must be nondecreasing on [0,1]")

    def as_array(self) -> np.ndarray:
        return np.array([self.a_max, self.c1, self.c2, self.c3], dtype=np.float64)


def effective_area(u: float, geometry: ChokeGeometry | None = None) -> float:
    """Effective choke flow area [m2] at opening u in [0, 1]."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"choke opening {u} outside [0, 1]")
    geom = (geometry or ChokeGeometry()).as_array()
    return float(kernels._area(float(u), geom))


# ------------------------------------------------------------- parameter sets


@dataclass(frozen=True)
class ParameterSet:
    """Flat parameter vector with aligned priors, flags, names, and bounds."""

    values: np.ndarray
    prior_mean: np.ndarray
    prior_std: np.ndarray
    is_physical: np.ndarray
    names: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        mu = np.ascontiguousarray(self.prior_mean, dtype=np.float64)
        sd = np.ascontiguousarray(self.prior_std, dtype=np.float64)
        phys = np.ascontiguousarray(self.is_physical, dtype=np.bool_)
        lo = np.ascontiguousarray(self.lower, dtype=np.float64)
        hi = np.ascontiguousarray(self.upper, dtype=np.float64)
        n = values.shape[0]
        if not (mu.shape == sd.shape == phys.shape == lo.shape == hi.shape == (n,)):
            raise ConfigError("parameter set vectors must share one length")
        if len(self.names) != n:
            raise ConfigError("names length mismatch")
        if n and np.any(sd <= 0.0):
            raise ConfigError("prior stds must be positive")
        if n and np.any(lo > hi):
            raise ConfigError("lower bounds must not exceed upper bounds")
        for arr in (values, mu, sd, phys, lo, hi):
            arr.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "prior_mean", mu)
        object.__setattr__(self, "prior_std", sd)
        object.__setattr__(self, "is_physical", phys)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def __len__(self) -> int:
        return self.values.shape[0]

    def with_values(self, values: np.ndarray) -> "ParameterSet":
        return ParameterSet(values, self.prior_mean, self.prior_std,
                            self.is_physical, self.names, self.lower, self.upper)

    @classmethod
    def empty(cls) -> "ParameterSet":
        z = np.zeros(0)
        return cls(z, z, np.ones(0), np.zeros(0, dtype=bool), (), z, z)

    @classmethod
    def concat(cls, a: "ParameterSet", b: "ParameterSet") -> "ParameterSet":
        return cls(
            np.concatenate([a.values, b.values]),
            np.concatenate([a.prior_mean, b.prior_mean]),
            np.concatenate([a.prior_std, b.prior_std]),
            np.concatenate([a.is_physical, b.is_physical]),
            a.names + b.names,
            np.concatenate([a.lower, b.lower]),
            np.concatenate([a.upper, b.upper]),
        )


@dataclass(frozen=True)
class ModelSpec:
    """A model kind plus its parameters and structural metadata.

    Immutable: every parameter update produces a new instance with the
    version counter incremented (see :meth:`with_values`).
    """

    kind: ModelKind
    params: ParameterSet
    shape: NetworkShape | None = None
    mtl: MtlParams | None = None
    geometry: ChokeGeometry | None = None
    scaler: FeatureScaler | None = None
    version: int = 0

    def __post_init__(self):
        expected = expected_param_count(self.kind, self.shape, self.mtl)
        if len(self.params) != expected:
            raise ConfigError(
                f"{self.kind.value}: expected {expected} parameters, got {len(self.params)}")

    def with_values(self, values: np.ndarray) -> "ModelSpec":
        return replace(self, params=self.params.with_values(values), version=self.version + 1)

    def with_scaler(self, scaler: FeatureScaler) -> "ModelSpec":
        return replace(self, scaler=scaler)

    @property
    def n_params(self) -> int:
        return len(self.params)


def expected_param_count(kind: ModelKind, shape: NetworkShape | None,
                         mtl: MtlParams | None) -> int:
    if kind is ModelKind.BENCHMARK:
        return 0
    if kind is ModelKind.LR:
        return D_INPUT + 1
    if kind is ModelKind.NN:
        return shape.n_params()
    if kind is ModelKind.MTL:
        return mtl.n_params()
    if kind is ModelKind.MM:
        return 6
    if kind is ModelKind.HEM:
        return 6 + shape.n_params()
    if kind is ModelKind.HAM:
        return 5 + shape.n_params()
    raise ConfigError(f"unhandled kind {kind}")


# For the multi-task model the shared trunk sees x and the task embedding
# through one concatenated affine map, so He fan-in is d + task_dim.


def _mlp_params(rng: np.random.Generator, widths: np.ndarray, prefix: str = "",
                fan_in_first: int | None = None) -> ParameterSet:
    values, mu, sd, phys, names = [], [], [], [], []
    nl = len(widths) - 1
    for layer in range(nl):
        fi = int(widths[layer])
        fo = int(widths[layer + 1])
        fan_in = fan_in_first if (layer == 0 and fan_in_first is not None) else fi
        he = math.sqrt(2.0 / fan_in)
        w = rng.normal(0.0, he, size=(fi, fo))
        values.append(w.ravel())
        mu.append(np.zeros(fi * fo))
        sd.append(np.full(fi * fo, he))
        names.extend(f"{prefix}W{layer + 1}[{i},{j}]" for i in range(fi) for j in range(fo))
        values.append(np.zeros(fo))
        mu.append(np.zeros(fo))
        sd.append(np.ones(fo))
        names.extend(f"{prefix}b{layer + 1}[{j}]" for j in range(fo))
    n = sum(v.size for v in values)
    inf = np.full(n, np.inf)
    return ParameterSet(
        np.concatenate(values), np.concatenate(mu), np.concatenate(sd),
        np.zeros(n, dtype=bool), tuple(names), -inf, inf,
    )


def _mm_params(priors: dict[str, tuple[float, float]],
               include_cd: bool = True) -> ParameterSet:
    names = MM_PARAM_NAMES if include_cd else MM_PARAM_NAMES[:5]
    mu = np.array([priors[n][0] for n in names])
    sd = np.array([priors[n][1] for n in names])
    lo = np.array([HARD_BOUNDS[n][0] for n in names])
    hi = np.array([HARD_BOUNDS[n][1] for n in names])
    return ParameterSet(mu.copy(), mu, sd, np.ones(len(names), dtype=bool), names, lo, hi)


def softplus_inverse(y: float) -> float:
    return math.log(math.expm1(y))


def init_model(kind: ModelKind | str,
               shape: NetworkShape | None = None,
               mtl: MtlParams | None = None,
               seed: int = 0,
               priors: dict[str, tuple[float, float]] | None = None,
               geometry: ChokeGeometry | None = None,
               scaler: FeatureScaler | None = None) -> ModelSpec:
    """Build a freshly initialized model.

    Network weights draw from the He distribution (zero-mean normal, variance
    2/fan_in) with matching priors; biases start at zero.  Mechanistic values
    start at their prior means.  Deterministic for a fixed seed.
    """
    kind = ModelKind.from_str(kind) if isinstance(kind, str) else kind
    pri = dict(DEFAULT_PRIORS)
    if priors:
        unknown = set(priors) - set(MM_PARAM_NAMES)
        if unknown:
            raise ConfigError(f"unknown prior names {sorted(unknown)}")
        pri.update({k: (float(v[0]), float(v[1])) for k, v in priors.items()})
    rng = substream(seed, f"init.{kind.value}")

    if kind is ModelKind.BENCHMARK:
        return ModelSpec(kind, ParameterSet.empty(), scaler=scaler)

    if kind is ModelKind.LR:
        n = D_INPUT + 1
        names = tuple(f"w[{j}]" for j in range(D_INPUT)) + ("b",)
        ps = ParameterSet(np.zeros(n), np.zeros(n), np.ones(n),
                          np.zeros(n, dtype=bool), names,
                          np.full(n, -np.inf), np.full(n, np.inf))
        return ModelSpec(kind, ps, scaler=scaler)

    geometry = geometry or ChokeGeometry()

    if kind is ModelKind.MM:
        return ModelSpec(kind, _mm_params(pri), geometry=geometry, scaler=scaler)

    shape = shape or NetworkShape()
    if kind is ModelKind.NN:
        ps = _mlp_params(rng, shape.widths())
        return ModelSpec(kind, ps, shape=shape, scaler=scaler)

    if kind is ModelKind.HEM:
        ps = ParameterSet.concat(_mm_params(pri), _mlp_params(rng, shape.widths(), prefix="nn."))
        return ModelSpec(kind, ps, shape=shape, geometry=geometry, scaler=scaler)

    if kind is ModelKind.HAM:
        nn = _mlp_params(rng, shape.widths(), prefix="nn.")
        # output bias stands in for C_D: softplus(bias) starts at the C_D prior mean
        b_out = softplus_inverse(pri["C_D"][0])
        values = nn.values.copy()
        mu = nn.prior_mean.copy()
        values[-1] = b_out
        mu[-1] = b_out
        nn = ParameterSet(values, mu, nn.prior_std, nn.is_physical, nn.names,
                          nn.lower, nn.upper)
        ps = ParameterSet.concat(_mm_params(pri, include_cd=False), nn)
        return ModelSpec(kind, ps, shape=shape, geometry=geometry, scaler=scaler)

    if kind is ModelKind.MTL:
        if mtl is None:
            raise ConfigError("MTL requires MtlParams (well ids)")
        d, p, h, nb, m = (int(v) for v in mtl.dims())
        vals, mu, sd, names = [], [], [], []

        def lin(fan_in, fi, fo, name):
            he = math.sqrt(2.0 / fan_in)
            w = rng.normal(0.0, he, size=(fi, fo))
            vals.append(w.ravel()); mu.append(np.zeros(fi * fo)); sd.append(np.full(fi * fo, he))
            names.extend(f"{name}[{i},{j}]" for i in range(fi) for j in range(fo))

        def bias(fo, name, value=0.0):
            vals.append(np.full(fo, value)); mu.append(np.full(fo, value)); sd.append(np.ones(fo))
            names.extend(f"{name}[{j}]" for j in range(fo))

        lin(d + p, d, h, "W0x")
        lin(d + p, p, h, "W0b")
        bias(h, "b0")
        for l in range(nb):
            lin(h, h, h, f"blk{l + 1}.W1")
            bias(h, f"blk{l + 1}.b1")
            lin(h, h, h, f"blk{l + 1}.W2")
            bias(h, f"blk{l + 1}.b2")
        lin(h, h, 1, "Wout")
        bias(1, "bout")
        b = rng.normal(0.0, 1.0, size=(p, m))
        vals.append(b.ravel()); mu.append(np.zeros(p * m)); sd.append(np.ones(p * m))
        names.extend(f"B[{q},{j}]" for q in range(p) for j in range(m))

        n = sum(v.size for v in vals)
        inf = np.full(n, np.inf)
        ps = ParameterSet(np.concatenate(vals), np.concatenate(mu), np.concatenate(sd),
                          np.zeros(n, dtype=bool), tuple(names), -inf, inf)
        return ModelSpec(kind, ps, mtl=mtl, scaler=scaler)

    raise ConfigError(f"cannot initialize kind {kind}")


def task_matrix(m: ModelSpec) -> np.ndarray:
    """The MTL task-embedding matrix B (task_dim x n_tasks) as a copy."""
    if m.kind is not ModelKind.MTL:
        raise ConfigError("task_matrix is defined for MTL models only")
    p, nt = m.mtl.task_dim, m.mtl.n_tasks
    return m.params.values[-p * nt:].reshape(p, nt).copy()


# --------------------------------------------------------------- evaluation


class _MmDiagnostics:
    """Process-wide count of radicand clamps (negative radicand -> zero flow)."""

    def __init__(self):
        self.count = 0


MM_DIAGNOSTICS = _MmDiagnostics()


def mm_clamp_count() -> int:
    return MM_DIAGNOSTICS.count


@dataclass(frozen=True)
class KindKernels:
    """The kernels of one model kind, called with the kind's KernelPlan:

    * ``predict(plan, theta, X, Xs, wells) -> (yhat, clamps)``;
    * ``loss_grad(plan, theta, X, Xs, y, inv_var, wells) -> (sse, grad, clamps)``;
    * ``loss(plan, theta, X, Xs, y, inv_var, wells) -> (sse, clamps)``, the
      same ``sse`` as ``loss_grad`` to the last bit, without the gradient.

    ``clamps`` counts rows whose radicand was clamped (0 for kinds without
    the choke equation).  The entries look the kernels up in
    :mod:`vfmlab.kernels` at call time, so a wrapper installed there later
    (the benchmark's tracer) sees every call.
    """

    predict: Callable
    loss_grad: Callable
    loss: Callable


# ``p`` is the KernelPlan, ``w`` the task column of each row (MTL only).
KIND_KERNELS: dict[ModelKind, KindKernels] = {
    ModelKind.LR: KindKernels(
        lambda p, th, X, Xs, w: (p.y_loc + p.y_scale * kernels.lr_predict(th, Xs), 0),
        lambda p, th, X, Xs, y, iv, w: (*kernels.lr_loss_grad(th, Xs, y, iv), 0),
        lambda p, th, X, Xs, y, iv, w: (kernels.lr_loss(th, Xs, y, iv), 0)),
    ModelKind.NN: KindKernels(
        lambda p, th, X, Xs, w: (p.y_loc + p.y_scale * kernels.nn_predict(th, 0, p.widths, Xs), 0),
        lambda p, th, X, Xs, y, iv, w: (*kernels.nn_loss_grad(th, 0, p.widths, Xs, y, iv), 0),
        lambda p, th, X, Xs, y, iv, w: (kernels.nn_loss(th, 0, p.widths, Xs, y, iv), 0)),
    ModelKind.MTL: KindKernels(
        lambda p, th, X, Xs, w: (p.y_loc + p.y_scale * kernels.mtl_predict(th, p.dims, Xs, w), 0),
        lambda p, th, X, Xs, y, iv, w: (*kernels.mtl_loss_grad(th, p.dims, Xs, w, y, iv), 0),
        lambda p, th, X, Xs, y, iv, w: (kernels.mtl_loss(th, p.dims, Xs, w, y, iv), 0)),
    ModelKind.MM: KindKernels(
        lambda p, th, X, Xs, w: kernels.mm_predict(th, X, p.geom),
        lambda p, th, X, Xs, y, iv, w: kernels.mm_loss_grad(th, X, p.geom, y, iv),
        lambda p, th, X, Xs, y, iv, w: kernels.mm_loss(th, X, p.geom, y, iv)),
    ModelKind.HEM: KindKernels(
        lambda p, th, X, Xs, w: kernels.hem_predict(th, p.widths, X, Xs, p.geom, p.nn_scale),
        lambda p, th, X, Xs, y, iv, w: kernels.hem_loss_grad(th, p.widths, X, Xs, p.geom,
                                                             y, iv, p.nn_scale),
        lambda p, th, X, Xs, y, iv, w: kernels.hem_loss(th, p.widths, X, Xs, p.geom,
                                                        y, iv, p.nn_scale)),
    ModelKind.HAM: KindKernels(
        lambda p, th, X, Xs, w: kernels.ham_predict(th, p.widths, X, Xs, p.geom),
        lambda p, th, X, Xs, y, iv, w: kernels.ham_loss_grad(th, p.widths, X, Xs, p.geom, y, iv),
        lambda p, th, X, Xs, y, iv, w: kernels.ham_loss(th, p.widths, X, Xs, p.geom, y, iv)),
}


@dataclass(frozen=True)
class KernelPlan:
    """Structural arrays extracted once per ModelSpec for hot loops.

    Purely data-driven kinds regress in standardized target space: the
    network output z maps to engineering units as y_loc + y_scale*z, and
    their loss kernels take targets (y - y_loc)/y_scale with inv_var scaled
    by y_scale^2, which leaves the raw-unit MAP data term and its gradient
    (see :class:`vfmlab.optim.TrainingStep`).  The additive hybrid keeps
    raw-unit outputs but sizes its network correction by the target scale
    (nn_scale) so its parameters stay O(1) as well.  Physical-output kinds
    carry the identity transform.
    """

    kind: ModelKind
    widths: np.ndarray | None
    dims: np.ndarray | None
    geom: np.ndarray | None
    scaler: FeatureScaler | None
    y_loc: float = 0.0
    y_scale: float = 1.0
    nn_scale: float = 1.0
    kernels: KindKernels | None = None


def build_plan(m: ModelSpec) -> KernelPlan:
    widths = m.shape.widths() if m.shape is not None else None
    dims = m.mtl.dims() if m.mtl is not None else None
    geom = m.geometry.as_array() if m.geometry is not None else None
    y_loc, y_scale, nn_scale = 0.0, 1.0, 1.0
    if m.scaler is not None:
        if m.kind in (ModelKind.LR, ModelKind.NN, ModelKind.MTL):
            y_loc = m.scaler.target_mean
            y_scale = m.scaler.target_scale
        elif m.kind is ModelKind.HEM:
            nn_scale = m.scaler.target_scale
    return KernelPlan(m.kind, widths, dims, geom, m.scaler, y_loc, y_scale, nn_scale,
                      KIND_KERNELS.get(m.kind))


def scale_inputs(plan: KernelPlan, X: np.ndarray) -> np.ndarray:
    """Standardized copy of X for the network paths (identity if no scaler)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if plan.scaler is None:
        return X
    return np.ascontiguousarray(plan.scaler.transform(X))


_NO_WELLS = np.zeros(0, dtype=np.int64)


def _kernels_of(plan: KernelPlan) -> KindKernels:
    if plan.kernels is None:
        raise ConfigError(f"{plan.kind.value} has no parametric kernels")
    return plan.kernels


def plan_predict(plan: KernelPlan, theta: np.ndarray, X: np.ndarray,
                 Xs: np.ndarray, wells: np.ndarray | None = None) -> np.ndarray:
    yhat, clamps = _kernels_of(plan).predict(plan, theta, X, Xs, wells)
    MM_DIAGNOSTICS.count += clamps
    return yhat


def plan_loss_grad(plan: KernelPlan, theta: np.ndarray, X: np.ndarray,
                   Xs: np.ndarray, y: np.ndarray, inv_var: float,
                   wells: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """(sse, gradient) of the data term, for y and inv_var in the plan's
    target space (see :class:`KernelPlan`)."""
    sse, grad, clamps = _kernels_of(plan).loss_grad(plan, theta, X, Xs, y, inv_var, wells)
    MM_DIAGNOSTICS.count += clamps
    return sse, grad


def plan_loss(plan: KernelPlan, theta: np.ndarray, X: np.ndarray,
              Xs: np.ndarray, y: np.ndarray, inv_var: float,
              wells: np.ndarray | None = None) -> float:
    """The sse of :func:`plan_loss_grad`, bit for bit, without the gradient."""
    sse, clamps = _kernels_of(plan).loss(plan, theta, X, Xs, y, inv_var, wells)
    MM_DIAGNOSTICS.count += clamps
    return sse


def _check_mechanistic_inputs(X: np.ndarray) -> None:
    if np.any(X[:, 1] <= 0.0) or np.any(X[:, 2] <= 0.0) or np.any(X[:, 3] <= 0.0):
        raise NumericError("mechanistic forward requires positive p1, p2, T1")


def task_columns(m: ModelSpec, well_ids) -> np.ndarray:
    """Task-matrix column of each row's well, as the kernels' ``wells`` array.

    Zeros for every kind but MTL; a well id outside the MTL task set raises
    ConfigError.
    """
    well_ids = np.atleast_1d(well_ids)
    if m.kind is not ModelKind.MTL:
        return np.zeros(well_ids.shape[0], dtype=np.int64)
    return np.array([m.mtl.col_of(w) for w in well_ids], dtype=np.int64)


def predict(m: ModelSpec, X: np.ndarray, well_ids=None) -> np.ndarray:
    """Batch forward pass. X is raw (n, 6); returns yhat (n,).

    For MTL, ``well_ids`` carries each row's well id (mapped to task columns).
    """
    X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
    plan = build_plan(m)
    if m.kind.is_mechanistic:
        _check_mechanistic_inputs(X)
    wells = _NO_WELLS
    if m.kind is ModelKind.MTL:
        if well_ids is None:
            raise ConfigError("MTL prediction needs well_ids")
        wells = task_columns(m, well_ids)
        if wells.shape[0] != X.shape[0]:
            raise ConfigError("well_ids length mismatch")
    Xs = scale_inputs(plan, X)
    return plan_predict(plan, m.params.values, X, Xs, wells)


# -------------------------------------------------------------- checkpoints
# Flat key-value text format, one parameter per line. Floats are serialized
# with float.hex() so round-trips are bit-exact.

_MAGIC = "vfmlab-model 1"


def _hex(v: float) -> str:
    return float(v).hex()


def _hexvec(a: np.ndarray) -> str:
    return " ".join(_hex(v) for v in a)


def save_model(m: ModelSpec, path: str | Path) -> None:
    lines = [_MAGIC, f"kind {m.kind.value}", f"version {m.version}"]
    if m.shape is not None:
        lines.append("shape " + " ".join(str(w) for w in m.shape.widths()))
    if m.mtl is not None:
        lines.append(
            f"mtl {m.mtl.task_dim} {m.mtl.block_width} {m.mtl.n_blocks} "
            + " ".join(str(w) for w in m.mtl.well_ids)
        )
    if m.geometry is not None:
        lines.append("geometry " + _hexvec(m.geometry.as_array()))
    if m.scaler is not None:
        lines.append("scaler " + _hexvec(m.scaler.mean) + " | " + _hexvec(m.scaler.std)
                     + " | " + _hex(m.scaler.target_mean) + " " + _hex(m.scaler.target_scale))
    p = m.params
    lines.append(f"nparams {len(p)}")
    for i in range(len(p)):
        lines.append(
            f"p {p.names[i]} {_hex(p.values[i])} {_hex(p.prior_mean[i])} "
            f"{_hex(p.prior_std[i])} {1 if p.is_physical[i] else 0} "
            f"{_hex(p.lower[i])} {_hex(p.upper[i])}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def load_model(path: str | Path) -> ModelSpec:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != _MAGIC:
        raise SchemaError(f"{path}: not a model checkpoint")
    kind = None
    version = 0
    shape = None
    mtl = None
    geometry = None
    scaler = None
    i = 1
    while i < len(lines) and not lines[i].startswith("nparams"):
        key, _, rest = lines[i].partition(" ")
        if key == "kind":
            kind = ModelKind.from_str(rest)
        elif key == "version":
            version = int(rest)
        elif key == "shape":
            w = [int(v) for v in rest.split()]
            shape = NetworkShape(w[0], tuple(w[1:-1]), w[-1])
        elif key == "mtl":
            v = rest.split()
            mtl = MtlParams(well_ids=tuple(int(x) for x in v[3:]),
                            task_dim=int(v[0]), block_width=int(v[1]), n_blocks=int(v[2]))
        elif key == "geometry":
            g = [float.fromhex(v) for v in rest.split()]
            geometry = ChokeGeometry(*g)
        elif key == "scaler":
            sections = rest.split(" | ")
            if len(sections) != 3:
                raise SchemaError(f"{path}: malformed scaler line")
            ty = [float.fromhex(v) for v in sections[2].split()]
            scaler = FeatureScaler(np.array([float.fromhex(v) for v in sections[0].split()]),
                                   np.array([float.fromhex(v) for v in sections[1].split()]),
                                   ty[0], ty[1])
        else:
            raise SchemaError(f"{path}: unknown checkpoint key {key!r}")
        i += 1
    if kind is None or i == len(lines):
        raise SchemaError(f"{path}: truncated checkpoint")
    n = int(lines[i].split()[1])
    i += 1
    vals = np.empty(n)
    mu = np.empty(n)
    sd = np.empty(n)
    phys = np.empty(n, dtype=bool)
    lo = np.empty(n)
    hi = np.empty(n)
    names = []
    for j in range(n):
        parts = lines[i + j].split()
        if parts[0] != "p" or len(parts) != 8:
            raise SchemaError(f"{path}: bad parameter line {i + j + 1}")
        names.append(parts[1])
        vals[j] = float.fromhex(parts[2])
        mu[j] = float.fromhex(parts[3])
        sd[j] = float.fromhex(parts[4])
        phys[j] = parts[5] == "1"
        lo[j] = float.fromhex(parts[6])
        hi[j] = float.fromhex(parts[7])
    ps = ParameterSet(vals, mu, sd, phys, tuple(names), lo, hi)
    return ModelSpec(kind, ps, shape=shape, mtl=mtl, geometry=geometry,
                     scaler=scaler, version=version)
