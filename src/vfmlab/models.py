"""The seven predictors: benchmark, LR, NN, MTL, MM, HEM, HAM.

Parameterization is one flat float64 vector per model (:class:`ParameterSet`),
with per-parameter prior mean/std, physical-vs-data-driven flags, and hard
bounds.  Mechanistic parameters always occupy the leading slots:

* MM, HEM: (rho_oil, rho_wat, kappa, M_gas, p_cr, C_D), then NN weights (HEM).
* HAM: (rho_oil, rho_wat, kappa, M_gas, p_cr), then the area-net weights;
  the discharge coefficient is replaced by softplus(NN(x)).

Input convention: neural-network terms consume standardized inputs via the
model's FeatureScaler; mechanistic terms consume raw physical units.

What a kind is (the structure it carries, its parameter layout, its target
space and its kernels) is one entry of :data:`KIND_TABLE`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import kernels
from .core import D_INPUT, FeatureScaler, substream
from .errors import ConfigError, NumericError, enum_from_str

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
        return enum_from_str(cls, s, "model kind")

    @property
    def is_mechanistic(self) -> bool:
        return KIND_TABLE[self].choke


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
        if self.kappa <= 1.0:
            raise ConfigError("kappa must exceed 1")
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
    def concat(cls, *parts: "ParameterSet") -> "ParameterSet":
        return cls(
            np.concatenate([p.values for p in parts]),
            np.concatenate([p.prior_mean for p in parts]),
            np.concatenate([p.prior_std for p in parts]),
            np.concatenate([p.is_physical for p in parts]),
            tuple(n for p in parts for n in p.names),
            np.concatenate([p.lower for p in parts]),
            np.concatenate([p.upper for p in parts]),
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
        expected = KIND_TABLE[self.kind].n_params(self.shape, self.mtl)
        if len(self.params) != expected:
            raise ConfigError(
                f"{self.kind.value}: expected {expected} parameters, got {len(self.params)}")

    def with_values(self, values: np.ndarray) -> "ModelSpec":
        return replace(self, params=self.params.with_values(values), version=self.version + 1)

    @property
    def n_params(self) -> int:
        return len(self.params)


def _data_block(values, mu, sd, names) -> ParameterSet:
    """Data-driven, unbounded parameters."""
    n = len(names)
    inf = np.full(n, np.inf)
    return ParameterSet(values, mu, sd, np.zeros(n, dtype=bool), names, -inf, inf)


def _weights(rng: np.random.Generator, fi: int, fo: int, name: str,
             std: float) -> ParameterSet:
    """An input-major (fi, fo) weight block drawn from N(0, std^2), its prior
    the same normal."""
    w = rng.normal(0.0, std, size=(fi, fo))
    return _data_block(w.ravel(), np.zeros(fi * fo), np.full(fi * fo, std),
                       tuple(f"{name}[{i},{j}]" for i in range(fi) for j in range(fo)))


def _bias(fo: int, name: str, value: float = 0.0) -> ParameterSet:
    """A bias block starting at value, its prior N(value, 1)."""
    return _data_block(np.full(fo, value), np.full(fo, value), np.ones(fo),
                       tuple(f"{name}[{j}]" for j in range(fo)))


def _he(fan_in: int) -> float:
    return math.sqrt(2.0 / fan_in)


def _mlp_params(rng: np.random.Generator, widths: np.ndarray, prefix: str = "",
                out_bias: float = 0.0) -> ParameterSet:
    nl = len(widths) - 1
    blocks = []
    for layer in range(nl):
        fi, fo = int(widths[layer]), int(widths[layer + 1])
        blocks.append(_weights(rng, fi, fo, f"{prefix}W{layer + 1}", _he(fi)))
        blocks.append(_bias(fo, f"{prefix}b{layer + 1}", out_bias if layer == nl - 1 else 0.0))
    return ParameterSet.concat(*blocks)


def _mtl_params(rng: np.random.Generator, mtl: MtlParams) -> ParameterSet:
    """The layout of ``kernels._mtl_bind``.  The shared trunk sees x and
    the task embedding through one concatenated affine map, so its He fan-in
    is d + task_dim; the task matrix B draws from N(0, 1)."""
    d, p, h, nb, m = (int(v) for v in mtl.dims())
    blocks = [_weights(rng, d, h, "W0x", _he(d + p)), _weights(rng, p, h, "W0b", _he(d + p)),
              _bias(h, "b0")]
    for l in range(1, nb + 1):
        blocks += [_weights(rng, h, h, f"blk{l}.W1", _he(h)), _bias(h, f"blk{l}.b1"),
                   _weights(rng, h, h, f"blk{l}.W2", _he(h)), _bias(h, f"blk{l}.b2")]
    blocks += [_weights(rng, h, 1, "Wout", _he(h)), _bias(1, "bout"),
               _weights(rng, p, m, "B", 1.0)]
    return ParameterSet.concat(*blocks)


def _lr_params() -> ParameterSet:
    n = D_INPUT + 1
    return _data_block(np.zeros(n), np.zeros(n), np.ones(n),
                       tuple(f"w[{j}]" for j in range(D_INPUT)) + ("b",))


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
    start at their prior means, which must make valid MechanisticParams
    (ConfigError otherwise).  Deterministic for a fixed seed.  A structure
    the kind does not carry (see :class:`KindEntry`) is ignored.
    """
    kind = ModelKind.from_str(kind) if isinstance(kind, str) else kind
    entry = KIND_TABLE[kind]
    pri = dict(DEFAULT_PRIORS)
    if priors:
        unknown = set(priors) - set(MM_PARAM_NAMES)
        if unknown:
            raise ConfigError(f"unknown prior names {sorted(unknown)}")
        pri.update({k: (float(v[0]), float(v[1])) for k, v in priors.items()})
        MechanisticParams(**{k: v[0] for k, v in pri.items()})   # the start values
    if entry.multitask and mtl is None:
        raise ConfigError("MTL requires MtlParams (well ids)")
    shape = (shape or NetworkShape()) if entry.network else None
    mtl = mtl if entry.multitask else None
    geometry = (geometry or ChokeGeometry()) if entry.choke else None
    params = entry.params(substream(seed, f"init.{kind.value}"), pri, shape, mtl)
    return ModelSpec(kind, params, shape=shape, mtl=mtl, geometry=geometry, scaler=scaler)


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
class KindEntry:
    """What one model kind is.

    * Structure: ``network`` kinds carry a NetworkShape (NN, HEM, HAM),
      ``multitask`` ones an MtlParams layout (MTL) and ``choke`` ones a
      ChokeGeometry and the mechanistic parameters (MM, HEM, HAM).
    * ``params(rng, priors, shape, mtl)`` builds the initial ParameterSet:
      ``n_fixed`` leading entries, then the network's or the MTL layout's.
    * Target space: ``standardized`` kinds (LR, NN, MTL) regress on
      (y - y_loc)/y_scale, and their output z maps to engineering units as
      y_loc + y_scale*z; HEM has a ``scaled_correction``, its network term
      multiplied by the target scale (nn_scale) so that its parameters stay
      O(1); the other kinds predict in raw units.
    * Kernels, called with the kind's KernelPlan ``p``:
      ``predict(p, theta, X, Xs, wells) -> (z, clamps)``, z in the target
      space; ``bind(p, th, g) -> net``, the layer views of the parameters th
      and the gradient buffer g, which serve until either is replaced
      (``kernels._nn_bind`` at offset ``n_fixed``, ``kernels._mtl_bind``;
      none for LR and MM); and ``bound_grad(net, p, th, X, Xs, y, inv_var,
      wells, g) -> (sse, z, clamps)``, which adds the data term's gradient
      into the zeros of g and returns its forward z, ``predict``'s bit for
      bit, so the loss alone is the squared error of ``predict``.
      ``clamps`` counts rows whose radicand was clamped.  Every gradient
      runs ``bound_grad`` (:func:`plan_bound_grad`), for one fit or for the
      fits of ``optim.fit_maps`` stacked along a leading axis (theta (R, P),
      X and Xs (R, n, 6), y and wells (R, n), inv_var and the plan's
      nn_scale (R, 1)) at ``COLUMN_ROWS`` rows or more: sse (R,) and the
      clamps of all R.
    * ``row_grad(th, x, xs, geom, y, inv_var, g) -> (sse, z, clamps)``, for
      the kinds that take each online-learning update on Python floats (LR,
      MM; ``optim.TrainingStep.online_update``), and used only there: one
      row's gradient on lists th, x, xs and geom and floats y and inv_var,
      added into the list g, rounded as the kind's ``bound_grad`` rounds
      that row alone: sse, gradient and clamp flag equal a one-row
      ``plan_loss_grad``, byte for byte, and the forward z equals
      ``predict``'s at that row.
    * ``columns``: which row columns the kernels read, so that the lockstep
      gathers no other.
    """

    params: Callable
    n_fixed: int = 0
    network: bool = False
    multitask: bool = False
    choke: bool = False
    standardized: bool = False
    scaled_correction: bool = False
    predict: Callable | None = None
    row_grad: Callable | None = None
    bind: Callable | None = None
    bound_grad: Callable | None = None

    def n_params(self, shape: NetworkShape | None, mtl: MtlParams | None) -> int:
        return (self.n_fixed + (shape.n_params() if self.network else 0)
                + (mtl.n_params() if self.multitask else 0))

    @property
    def columns(self) -> tuple:
        """Whether the kernels read each row column (X, Xs, y, wells): the
        raw inputs for the choke equation, the scaled inputs for a network
        or a linear model (every kind but MM), the targets, and the task
        columns for MTL alone."""
        return self.choke, self.network or not self.choke, True, self.multitask


def _bind_network(p, th, g):
    """The layer views of a network kind's parameters th and gradient g,
    its network at offset ``n_fixed``."""
    return kernels._nn_bind(th, p.entry.n_fixed, p.widths.tolist(), g)


# ``p`` is the KernelPlan, ``w`` the task column of each row (MTL only), ``g``
# a gradient buffer and ``net`` its binding.
KIND_TABLE: dict[ModelKind, KindEntry] = {
    ModelKind.BENCHMARK: KindEntry(lambda rng, pri, shape, mtl: ParameterSet.empty()),
    ModelKind.LR: KindEntry(
        lambda rng, pri, shape, mtl: _lr_params(), n_fixed=D_INPUT + 1, standardized=True,
        predict=lambda p, th, X, Xs, w: (kernels.lr_predict(th, Xs), 0),
        row_grad=lambda th, x, xs, geom, y, iv, g: (
            *kernels.lr_row_grad(th, xs, y, iv, g), 0),
        bind=lambda p, th, g: (),
        bound_grad=lambda net, p, th, X, Xs, y, iv, w, g: (
            *kernels._lr_grad(th, Xs, y, iv, g), 0)),
    ModelKind.NN: KindEntry(
        lambda rng, pri, shape, mtl: _mlp_params(rng, shape.widths()),
        network=True, standardized=True,
        predict=lambda p, th, X, Xs, w: (kernels.nn_predict(th, 0, p.widths, Xs), 0),
        bind=_bind_network,
        bound_grad=lambda net, p, th, X, Xs, y, iv, w, g: (
            *kernels._nn_grad(net, Xs, y, iv), 0)),
    ModelKind.MTL: KindEntry(
        lambda rng, pri, shape, mtl: _mtl_params(rng, mtl), multitask=True, standardized=True,
        predict=lambda p, th, X, Xs, w: (kernels.mtl_predict(th, p.dims, Xs, w), 0),
        bind=lambda p, th, g: kernels._mtl_bind(th, p.dims, g),
        bound_grad=lambda net, p, th, X, Xs, y, iv, w, g: (
            *kernels._mtl_grad(net, Xs, w, y, iv), 0)),
    ModelKind.MM: KindEntry(
        lambda rng, pri, shape, mtl: _mm_params(pri), n_fixed=6, choke=True,
        predict=lambda p, th, X, Xs, w: kernels.mm_predict(th, X, p.geom),
        row_grad=lambda th, x, xs, geom, y, iv, g: kernels.mm_row_grad(th, x, geom, y, iv, g),
        bind=lambda p, th, g: (),
        bound_grad=lambda net, p, th, X, Xs, y, iv, w, g: kernels._mm_grad(
            th, X, p.geom, y, iv, g)),
    ModelKind.HEM: KindEntry(
        lambda rng, pri, shape, mtl: ParameterSet.concat(
            _mm_params(pri), _mlp_params(rng, shape.widths(), prefix="nn.")),
        n_fixed=6, network=True, choke=True, scaled_correction=True,
        predict=lambda p, th, X, Xs, w: kernels.hem_predict(th, p.widths, X, Xs, p.geom,
                                                            p.nn_scale),
        bind=_bind_network,
        bound_grad=lambda net, p, th, X, Xs, y, iv, w, g: kernels._hem_grad(
            net, th, X, Xs, p.geom, y, iv, p.nn_scale, g)),
    # the output bias stands in for C_D: softplus(bias) starts at the C_D prior mean
    ModelKind.HAM: KindEntry(
        lambda rng, pri, shape, mtl: ParameterSet.concat(
            _mm_params(pri, include_cd=False),
            _mlp_params(rng, shape.widths(), prefix="nn.",
                        out_bias=softplus_inverse(pri["C_D"][0]))),
        n_fixed=5, network=True, choke=True,
        predict=lambda p, th, X, Xs, w: kernels.ham_predict(th, p.widths, X, Xs, p.geom),
        bind=_bind_network,
        bound_grad=lambda net, p, th, X, Xs, y, iv, w, g: kernels._ham_grad(
            net, th, X, Xs, p.geom, y, iv, g)),
}

TRAINABLE_KINDS = tuple(k for k in ModelKind if KIND_TABLE[k].predict is not None)


@dataclass(frozen=True)
class KernelPlan:
    """Structural arrays extracted once per ModelSpec for hot loops, with the
    target transform of the kind's target space (see :class:`KindEntry`);
    the loss kernels take targets (y - y_loc)/y_scale with inv_var scaled by
    y_scale^2, which leaves the raw-unit MAP data term and its gradient (see
    :class:`vfmlab.optim.TrainingStep`)."""

    kind: ModelKind
    widths: np.ndarray | None
    dims: np.ndarray | None
    geom: np.ndarray | None
    scaler: FeatureScaler | None
    y_loc: float = 0.0
    y_scale: float = 1.0
    nn_scale: float = 1.0
    entry: KindEntry = KIND_TABLE[ModelKind.BENCHMARK]


def build_plan(m: ModelSpec) -> KernelPlan:
    entry = KIND_TABLE[m.kind]
    widths = m.shape.widths() if m.shape is not None else None
    dims = m.mtl.dims() if m.mtl is not None else None
    geom = m.geometry.as_array() if m.geometry is not None else None
    y_loc, y_scale, nn_scale = 0.0, 1.0, 1.0
    if m.scaler is not None and entry.standardized:
        y_loc, y_scale = m.scaler.target_mean, m.scaler.target_scale
    if m.scaler is not None and entry.scaled_correction:
        nn_scale = m.scaler.target_scale
    return KernelPlan(m.kind, widths, dims, geom, m.scaler, y_loc, y_scale, nn_scale, entry)


def scale_inputs(plan: KernelPlan, X: np.ndarray) -> np.ndarray:
    """Standardized copy of X for the network paths (identity if no scaler)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if plan.scaler is None:
        return X
    return np.ascontiguousarray(plan.scaler.transform(X))


_NO_WELLS = np.zeros(0, dtype=np.int64)


def _entry_of(plan: KernelPlan) -> KindEntry:
    if plan.entry.predict is None:
        raise ConfigError(f"{plan.kind.value} has no parametric kernels")
    return plan.entry


def plan_predict(plan: KernelPlan, theta: np.ndarray, X: np.ndarray,
                 Xs: np.ndarray, wells: np.ndarray | None = None) -> np.ndarray:
    entry = _entry_of(plan)
    z, clamps = entry.predict(plan, theta, X, Xs, wells)
    MM_DIAGNOSTICS.count += clamps
    return plan.y_loc + plan.y_scale * z if entry.standardized else z


def plan_loss_grad(plan: KernelPlan, theta: np.ndarray, X: np.ndarray,
                   Xs: np.ndarray, y: np.ndarray, inv_var: float,
                   wells: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """(sse, gradient) of the data term, for y and inv_var in the plan's
    target space (see :class:`KernelPlan`), on a binding made per call."""
    grad = np.empty(theta.shape)
    net = _entry_of(plan).bind(plan, theta, grad)
    return plan_bound_grad(plan, net, theta, X, Xs, y, inv_var, wells, grad)[0], grad


def plan_bound_grad(plan: KernelPlan, net, theta, X, Xs, y, inv_var, wells, grad) -> tuple:
    """The kind's ``bound_grad`` on net, its binding of theta and grad, into
    grad zeroed, its radicand clamps counted: (sse, forward, clamps)."""
    grad.fill(0.0)
    out = plan.entry.bound_grad(net, plan, theta, X, Xs, y, inv_var, wells, grad)
    MM_DIAGNOSTICS.count += out[2]
    return out


def plan_loss(plan: KernelPlan, theta: np.ndarray, X: np.ndarray,
              Xs: np.ndarray, y: np.ndarray, inv_var: float,
              wells: np.ndarray | None = None) -> float:
    """The sse of :func:`plan_loss_grad`, bit for bit, without the gradient:
    the squared error of the kind's ``predict``, its loss-gradient kernel's
    forward."""
    z, clamps = _entry_of(plan).predict(plan, theta, X, Xs, wells)
    MM_DIAGNOSTICS.count += clamps
    return kernels._sse(y, z, inv_var)


def check_inputs(m: ModelSpec, X: np.ndarray) -> None:
    """Raise NumericError unless every row of the raw inputs X has positive,
    non-infinite p1, p2 and T1, for the kinds whose choke equation divides by
    them or by a density that an infinite T1 makes zero (MM, HEM, HAM); a
    no-op for the others.  The drivers check their rows once per unit, so the
    one-row kernels, which run on Python floats, never meet a zero divisor
    there."""
    if m.kind.is_mechanistic:
        pt = X[:, 1:4]
        if np.any(pt <= 0.0) or np.any(pt == np.inf):
            raise NumericError("mechanistic forward requires positive p1, p2, T1, none infinite")


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
    check_inputs(m, X)
    wells = _NO_WELLS
    if m.kind is ModelKind.MTL:
        if well_ids is None:
            raise ConfigError("MTL prediction needs well_ids")
        wells = task_columns(m, well_ids)
        if wells.shape[0] != X.shape[0]:
            raise ConfigError("well_ids length mismatch")
    Xs = scale_inputs(plan, X)
    return plan_predict(plan, m.params.values, X, Xs, wells)
