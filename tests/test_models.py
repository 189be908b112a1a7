"""The seven predictors: initialization and forward passes.

The choke-equation checks compare against a second, independently written
transcription of the flow formula kept inside this file.
"""

import hashlib
import math

import numpy as np
import pytest

from vfmlab import (
    ChokeGeometry,
    ConfigError,
    FeatureScaler,
    LossSpec,
    MechanisticParams,
    ModelKind,
    MtlParams,
    NetworkShape,
    OptimizerConfig,
    ParameterSet,
    ScheduleConfig,
    WellDataset,
    chronological_split,
    effective_area,
    init_model,
    predict,
    run_ol,
)
from vfmlab.models import KIND_TABLE, softplus_inverse, task_matrix

from conftest import make_dataset, make_x

R_GAS = 8.31446
P_SC = 1.01325e5
T_SC = 288.15


def choke_flow_reference(params, geom, x):
    """Independent transcription of the choke equation (volumetric, Sm3/h)."""
    rho_oil, rho_wat, kappa, m_gas, p_cr, c_d = params
    u, p1, p2, t1, eta_oil, eta_gas = x
    eta_wat = max(0.0, 1.0 - eta_oil - eta_gas)

    area = geom.a_max * (geom.c1 * u + geom.c2 * u**2 + geom.c3 * u**3)
    p_r = max(p2 / p1, p_cr)
    rho_gas1 = p1 * m_gas / (R_GAS * t1)
    rho_gas2 = rho_gas1 * p_r ** (1.0 / kappa)

    liquid_vol = eta_oil / rho_oil + eta_wat / rho_wat
    rho2 = 1.0 / (eta_gas / rho_gas2 + liquid_vol)
    radicand = 2.0 * rho2**2 * p1 * (
        kappa / (kappa - 1.0) * eta_gas * (1.0 / rho_gas1 - p_r / rho_gas2)
        + liquid_vol * (1.0 - p_r)
    )
    if radicand <= 0.0:
        return 0.0
    mass_rate = c_d * area * math.sqrt(radicand)
    rho_sc = 1.0 / (eta_gas * R_GAS * T_SC / (P_SC * m_gas) + liquid_vol)
    return 3600.0 * mass_rate / rho_sc


def random_valid_inputs(rng, n):
    p1 = rng.uniform(8e6, 2.5e7, n)
    X = np.column_stack([
        rng.uniform(0.05, 1.0, n),
        p1,
        p1 * rng.uniform(0.3, 0.95, n),
        rng.uniform(300, 380, n),
        rng.uniform(0.05, 0.55, n),
        rng.uniform(0.05, 0.9, n),
    ])
    over = X[:, 4] + X[:, 5] > 1.0
    X[over, 5] = 1.0 - X[over, 4]
    return X


# -------------------------------------------------------------- initialization


def test_mm_prior_means_and_freshwater_default():
    m = init_model("mm")
    assert m.params.names == ("rho_oil", "rho_wat", "kappa", "M_gas", "p_cr", "C_D")
    assert m.params.values[1] == 1000.0
    assert np.array_equal(m.params.values, m.params.prior_mean)
    assert np.all(m.params.prior_std > 0)
    assert np.all(m.params.is_physical)


def test_mm_prior_override():
    m = init_model("mm", priors={"rho_wat": (1025.0, 30.0)})
    assert m.params.values[1] == 1025.0
    assert m.params.prior_std[1] == 30.0


@pytest.mark.parametrize("kind", ["mm", "hem", "ham"])
@pytest.mark.parametrize("kappa", [1.0, 0.9])
def test_prior_means_must_be_valid_mechanistic_values(kind, kappa):
    """Mechanistic values start at the prior means, so a mean the choke
    equation cannot take (kappa <= 1 divides by zero or flips the gas term) is
    refused when the model is built."""
    with pytest.raises(ConfigError, match="kappa"):
        MechanisticParams(kappa=kappa)
    with pytest.raises(ConfigError, match="kappa"):
        init_model(kind, priors={"kappa": (kappa, 0.1)})


@pytest.mark.parametrize("cls", [MechanisticParams, ChokeGeometry], ids=lambda c: c.__name__)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
def test_a_non_finite_physical_value_is_refused_by_name(cls, value):
    """Every field of the choke equation's parameters and geometry refuses
    NaN and both infinities with a ConfigError naming that field, though a
    NaN fails every range check's comparison and an infinity passes most."""
    for name in cls.__dataclass_fields__:
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            cls(**{name: value})


def test_init_is_deterministic_per_seed():
    a = init_model("nn", shape=NetworkShape(hidden=(8, 8)), seed=3)
    b = init_model("nn", shape=NetworkShape(hidden=(8, 8)), seed=3)
    c = init_model("nn", shape=NetworkShape(hidden=(8, 8)), seed=4)
    assert np.array_equal(a.params.values, b.params.values)
    assert not np.array_equal(a.params.values, c.params.values)


def test_he_initialization_statistics():
    m = init_model("nn", shape=NetworkShape(hidden=(64,)), seed=0)
    w1 = np.array([v for v, n in zip(m.params.values, m.params.names)
                   if n.startswith("W1[")])
    assert len(w1) == 6 * 64
    assert w1.std() == pytest.approx(math.sqrt(2.0 / 6.0), rel=0.10)
    biases = np.array([v for v, n in zip(m.params.values, m.params.names)
                       if n.startswith("b1[")])
    assert np.all(biases == 0.0)


def test_parameter_count_bookkeeping():
    shape = NetworkShape(hidden=(16, 16))
    mtl = MtlParams(well_ids=(1, 2, 3), task_dim=4, block_width=16, n_blocks=2)
    n_nn = len(init_model("nn", shape=shape).params)
    n_mm = len(init_model("mm").params)
    n_hem = len(init_model("hem", shape=shape).params)
    n_ham = len(init_model("ham", shape=shape).params)
    assert n_mm == 6
    assert n_hem == n_mm + n_nn
    assert n_ham == n_mm - 1 + n_nn
    for kind in ModelKind:
        m = init_model(kind, shape=shape, mtl=mtl)
        assert len(m.params) == KIND_TABLE[kind].n_params(shape, mtl)


# Digests of init_model's parameter sets, recorded before the per-kind
# initializers were folded into one kind table: every field, bit for bit.
INIT_DIGESTS = {
    ("Benchmark", 0): "f4f0d323408ead41",
    ("Benchmark", 1): "f4f0d323408ead41",
    ("LR", 0): "e56aaf2ccff3cdd3",
    ("LR", 1): "e56aaf2ccff3cdd3",
    ("NN", 0): "28bcffe9f59b8479",
    ("NN", 1): "248dcfef24b76678",
    ("MTL", 0): "d07935e56bad91ad",
    ("MTL", 1): "08935214b2f0acc5",
    ("MM", 0): "43b7b5b47f05cd1f",
    ("MM", 1): "43b7b5b47f05cd1f",
    ("HEM", 0): "90752c9f3dec2e09",
    ("HEM", 1): "3db08e37d3cdf0a2",
    ("HAM", 0): "b394422fe6c3d4c3",
    ("HAM", 1): "d16c54c489ff4d08",
}


def params_digest(params):
    h = hashlib.sha256()
    for name in ("values", "prior_mean", "prior_std", "is_physical", "lower", "upper"):
        a = getattr(params, name)
        h.update(f"{name}:{a.dtype.str}:{a.shape}:".encode())
        h.update(a.tobytes())
    h.update("\n".join(params.names).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("kind,seed", sorted(INIT_DIGESTS), ids=str)
def test_init_model_is_pinned(kind, seed):
    m = init_model(kind, mtl=MtlParams(well_ids=(1, 2, 3)), seed=seed)
    assert params_digest(m.params) == INIT_DIGESTS[(kind, seed)]


def test_ham_output_bias_prior_matches_discharge_coefficient():
    m = init_model("ham", shape=NetworkShape(hidden=(4,)))
    i = m.params.names.index("nn.b2[0]")
    assert m.params.values[i] == pytest.approx(softplus_inverse(0.84))
    assert math.log1p(math.exp(m.params.values[i])) == pytest.approx(0.84, rel=1e-12)


# ------------------------------------------------------------------- benchmark


def test_benchmark_repeats_previous_value():
    # the previous-value predictor lives in the learning drivers, which keep
    # each well's last observed y
    y = np.array([7.0, 100.0, 0.0, 5.0])
    ds = WellDataset(np.arange(4.0), np.zeros((4, 6)), y, np.zeros(4, np.uint8),
                     np.ones(4, np.int64))
    log = run_ol(init_model("benchmark"), chronological_split(ds, 1.5),
                 ScheduleConfig(mode="ol", ocfg=OptimizerConfig(),
                                loss=LossSpec(noise_std=1.0), steps=10))
    assert log.y_pred[0] == 100.0
    assert log.y_pred[1] == 0.0


# ---------------------------------------------------------------------- linear


def test_lr_constant_and_selector():
    m = init_model("lr")
    theta = np.zeros(7)
    theta[6] = 3.0
    m = m.with_values(theta)
    assert predict(m, make_x())[0] == pytest.approx(3.0)
    theta = np.zeros(7)
    theta[0] = 1.0
    m = m.with_values(theta)
    x = np.zeros(6)
    x[0] = 2.0
    assert predict(m, x)[0] == pytest.approx(2.0)


def test_lr_matches_dot_product_oracle():
    rng = np.random.default_rng(0)
    m = init_model("lr")
    for _ in range(20):
        theta = rng.normal(size=7)
        x = rng.normal(size=6)
        expect = float(theta[:6] @ x + theta[6])
        assert predict(m.with_values(theta), x)[0] == pytest.approx(expect, rel=1e-12)


def test_lr_standardized_spaces_round_trip():
    """With a fitted scaler the linear map acts on standardized inputs and
    a standardized target; the public forward returns engineering units."""
    ds = make_dataset(40, seed=5)
    from vfmlab import fit_scaler
    s = fit_scaler(ds)
    m = init_model("lr", scaler=s)
    rng = np.random.default_rng(1)
    theta = rng.normal(size=7)
    m = m.with_values(theta)
    x = ds.X[7]
    z = (x - s.mean) / s.std
    expect = s.target_mean + s.target_scale * (theta[:6] @ z + theta[6])
    assert predict(m, x)[0] == pytest.approx(expect, rel=1e-12)


# -------------------------------------------------------------------- networks


def test_nn_hand_traceable_relu_path():
    m = init_model("nn", shape=NetworkShape(hidden=(6,)))
    theta = np.zeros(len(m.params))
    names = list(m.params.names)
    for i in range(6):
        theta[names.index(f"W1[{i},{i}]")] = 1.0
        theta[names.index(f"W2[{i},0]")] = 1.0
    m = m.with_values(theta)
    x = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    assert predict(m, x)[0] == pytest.approx(1.0)


def test_nn_all_zero_weights_returns_output_bias():
    m = init_model("nn", shape=NetworkShape(hidden=(5, 4)))
    theta = np.zeros(len(m.params))
    theta[list(m.params.names).index("b3[0]")] = 2.5
    m = m.with_values(theta)
    for x in np.random.default_rng(2).normal(size=(5, 6)):
        assert predict(m, x)[0] == pytest.approx(2.5)


def nn_reference(theta, names, widths, x):
    """Matrix-form forward pass built from the parameter names."""
    by_name = dict(zip(names, theta))
    z = np.asarray(x, dtype=float)
    for layer in range(1, len(widths)):
        fi, fo = widths[layer - 1], widths[layer]
        W = np.array([[by_name[f"W{layer}[{i},{j}]"] for j in range(fo)]
                      for i in range(fi)])
        b = np.array([by_name[f"b{layer}[{j}]"] for j in range(fo)])
        z = W.T @ z + b
        if layer < len(widths) - 1:
            z = np.maximum(z, 0.0)
    return float(z[0])


def test_nn_matches_matrix_recursion_oracle():
    rng = np.random.default_rng(3)
    shape = NetworkShape(hidden=(7, 5))
    m = init_model("nn", shape=shape, seed=1)
    widths = [6, 7, 5, 1]
    for _ in range(10):
        theta = rng.normal(size=len(m.params))
        x = rng.normal(size=6)
        got = predict(m.with_values(theta), x)[0]
        want = nn_reference(theta, m.params.names, widths, x)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


# ------------------------------------------------------------------ multi-task


def mtl_reference(m, x, well_id):
    """Residual-network recursion assembled from the parameter names."""
    p = m.mtl
    d, P, h = 6, p.task_dim, p.block_width
    by_name = dict(zip(m.params.names, m.params.values))

    def mat(prefix, fi, fo):
        return np.array([[by_name[f"{prefix}[{i},{j}]"] for j in range(fo)]
                         for i in range(fi)])

    def vec(prefix, fo):
        return np.array([by_name[f"{prefix}[{j}]"] for j in range(fo)])

    beta = task_matrix(m)[:, p.col_of(well_id)]
    z = mat("W0x", d, h).T @ np.asarray(x, float) + mat("W0b", P, h).T @ beta + vec("b0", h)
    relu = lambda v: np.maximum(v, 0.0)
    for l in range(1, p.n_blocks + 1):
        inner = mat(f"blk{l}.W1", h, h).T @ relu(z) + vec(f"blk{l}.b1", h)
        z = mat(f"blk{l}.W2", h, h).T @ relu(inner) + vec(f"blk{l}.b2", h) + z
    return float((mat("Wout", h, 1).T @ z)[0] + by_name["bout[0]"])


def small_mtl(seed=0, wells=(1, 2, 3)):
    return init_model("mtl", mtl=MtlParams(well_ids=wells, task_dim=3,
                                           block_width=5, n_blocks=2), seed=seed)


def test_mtl_zero_blocks_keep_identity_path():
    m = small_mtl()
    theta = np.zeros(len(m.params))
    names = list(m.params.names)
    # input layer passes x[0] into trunk slot 0, output reads slot 0
    theta[names.index("W0x[0,0]")] = 1.0
    theta[names.index("Wout[0,0]")] = 1.0
    m = m.with_values(theta)
    x = np.zeros(6)
    x[0] = 1.25
    assert predict(m, x, [2])[0] == pytest.approx(1.25)


def test_mtl_identical_embeddings_give_identical_outputs():
    m = small_mtl(seed=5)
    theta = m.params.values.copy()
    names = list(m.params.names)
    B = task_matrix(m)
    for r in range(B.shape[0]):
        theta[names.index(f"B[{r},1]")] = theta[names.index(f"B[{r},0]")]
    m = m.with_values(theta)
    x = make_x()
    assert predict(m, x, [1])[0] == pytest.approx(predict(m, x, [2])[0], rel=1e-14)


def test_mtl_matches_residual_recursion_oracle():
    rng = np.random.default_rng(8)
    m = small_mtl(seed=2)
    for _ in range(8):
        mt = m.with_values(rng.normal(size=len(m.params)))
        x = rng.normal(size=6)
        wid = int(rng.choice([1, 2, 3]))
        assert predict(mt, x, [wid])[0] == pytest.approx(
            mtl_reference(mt, x, wid), rel=1e-12, abs=1e-12)


def test_mtl_rejects_unknown_well():
    with pytest.raises(ConfigError):
        predict(small_mtl(), make_x(), [9])


def test_mtl_permuting_wells_with_embedding_columns_is_invariant():
    rng = np.random.default_rng(13)
    m = small_mtl(seed=7, wells=(10, 20, 30))
    theta = rng.normal(size=len(m.params))
    m = m.with_values(theta)
    perm = [2, 0, 1]  # wells (30, 10, 20)
    m2 = init_model("mtl", mtl=MtlParams(well_ids=(30, 10, 20), task_dim=3,
                                         block_width=5, n_blocks=2), seed=7)
    theta2 = theta.copy()
    names = list(m.params.names)
    B = task_matrix(m)
    for r in range(B.shape[0]):
        for c, src in enumerate(perm):
            theta2[names.index(f"B[{r},{c}]")] = theta[names.index(f"B[{r},{src}]")]
    m2 = m2.with_values(theta2)
    x = make_x()
    for wid in (10, 20, 30):
        assert predict(m2, x, [wid])[0] == pytest.approx(
            predict(m, x, [wid])[0], rel=1e-14)


# ----------------------------------------------------------------- mechanistic


def test_effective_area_boundary_and_monotonicity():
    assert effective_area(0.0) == 0.0
    geom = ChokeGeometry()
    assert effective_area(1.0) == pytest.approx(geom.a_max)
    u = np.linspace(0, 1, 101)
    a = np.array([effective_area(v) for v in u])
    assert np.all(np.diff(a) >= 0)
    # default cubic profile, evaluated by hand at the midpoint
    assert effective_area(0.5) == pytest.approx(
        geom.a_max * (geom.c1 * 0.5 + geom.c2 * 0.25 + geom.c3 * 0.125), rel=1e-14)
    with pytest.raises(ValueError):
        effective_area(1.2)


def test_mm_closed_choke_and_zero_pressure_drop():
    m = init_model("mm")
    assert predict(m, make_x(u=0.0))[0] == 0.0
    assert predict(m, make_x(p1=1e7, p2=1e7))[0] == 0.0


def test_mm_is_nondecreasing_in_choke_opening():
    m = init_model("mm")
    q = [predict(m, make_x(u=v))[0] for v in np.linspace(0, 1, 100)]
    assert np.all(np.diff(q) >= 0)


def test_mm_matches_independent_transcription():
    m = init_model("mm")
    rng = np.random.default_rng(17)
    X = random_valid_inputs(rng, 200)
    for x in X:
        want = choke_flow_reference(m.params.values, m.geometry, x)
        assert predict(m, x)[0] == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_mm_rejects_nonpositive_pressure():
    from vfmlab import NumericError
    with pytest.raises(NumericError):
        predict(init_model("mm"), make_x(p1=-1.0))


def test_parameter_set_rejects_lower_bound_above_upper():
    z, one = np.zeros(2), np.ones(2)
    flags, names = np.zeros(2, bool), ("a", "b")
    ParameterSet(z, z, one, flags, names, np.array([0.0, 1.0]), one)  # equal is fine
    with pytest.raises(ConfigError):
        ParameterSet(z, z, one, flags, names, np.array([0.0, 2.0]), one)


def test_mechanistic_params_container():
    p = MechanisticParams()
    q = p.with_value("C_D", 0.7)
    assert q.C_D == 0.7 and p.C_D == 0.84
    assert q.value_of("kappa") == p.kappa
    with pytest.raises(ConfigError):
        p.with_value("bogus", 1.0)
    with pytest.raises(ConfigError):
        MechanisticParams(p_cr=1.2)


# --------------------------------------------------------------------- hybrids


def test_hem_zero_network_reduces_to_mechanistic():
    m = init_model("hem", shape=NetworkShape(hidden=(4,)))
    theta = m.params.values.copy()
    theta[6:] = 0.0
    m = m.with_values(theta)
    mm = init_model("mm")
    x = make_x()
    assert predict(m, x)[0] == pytest.approx(predict(mm, x)[0], rel=1e-14)


def test_hem_closed_choke_exposes_additive_bias():
    m = init_model("hem", shape=NetworkShape(hidden=(4,)))
    theta = np.zeros(len(m.params))
    theta[:6] = m.params.values[:6]
    theta[list(m.params.names).index("nn.b2[0]")] = 7.5
    m = m.with_values(theta)
    assert predict(m, make_x(u=0.0))[0] == pytest.approx(7.5)


def test_hem_is_sum_of_its_parts():
    shape = NetworkShape(hidden=(5,))
    rng = np.random.default_rng(21)
    m = init_model("hem", shape=shape, seed=3)
    theta = m.params.values.copy()
    theta[6:] = rng.normal(size=len(theta) - 6)
    m = m.with_values(theta)
    nn = init_model("nn", shape=shape).with_values(theta[6:])
    mm = init_model("mm")
    x = make_x()
    assert predict(m, x)[0] == pytest.approx(
        predict(mm, x)[0] + predict(nn, x)[0], rel=1e-12)


def test_hem_scales_correction_by_target_spread():
    shape = NetworkShape(hidden=(4,))
    s = FeatureScaler(np.zeros(6), np.ones(6), target_mean=50.0, target_scale=20.0)
    m = init_model("hem", shape=shape, scaler=s)
    theta = np.zeros(len(m.params))
    theta[:6] = m.params.values[:6]
    theta[list(m.params.names).index("nn.b2[0]")] = 1.0
    m = m.with_values(theta)
    # additive correction rides on the target scale, not the target mean
    assert predict(m, make_x(u=0.0))[0] == pytest.approx(20.0)


def test_ham_constant_multiplier_reduces_to_mm_with_that_discharge():
    m = init_model("ham", shape=NetworkShape(hidden=(4,)))
    theta = np.zeros(len(m.params))
    theta[:5] = m.params.values[:5]
    theta[list(m.params.names).index("nn.b2[0]")] = softplus_inverse(0.66)
    m = m.with_values(theta)
    mm = init_model("mm", priors={"C_D": (0.66, 0.1)})
    for x in (make_x(), make_x(u=0.9, p2=60e5)):
        assert predict(m, x)[0] == pytest.approx(predict(mm, x)[0], rel=1e-12)


def test_ham_closed_choke_is_zero_for_any_network():
    m = init_model("ham", shape=NetworkShape(hidden=(4,)), seed=9)
    assert predict(m, make_x(u=0.0))[0] == 0.0


def test_ham_matches_area_substitution_oracle():
    m = init_model("ham", shape=NetworkShape(hidden=(5,)), seed=4)
    rng = np.random.default_rng(6)
    theta = m.params.values + 0.3 * rng.normal(size=len(m.params))
    m = m.with_values(theta)
    nn = init_model("nn", shape=NetworkShape(hidden=(5,))).with_values(theta[5:])
    x = make_x(u=0.45)
    mult = float(np.logaddexp(0.0, predict(nn, x)[0]))
    params6 = np.concatenate([theta[:5], [mult]])
    want = choke_flow_reference(params6, m.geometry, x)
    assert predict(m, x)[0] == pytest.approx(want, rel=1e-10)


def test_predict_agrees_with_scalar_forwards():
    # a batch forward equals the same rows predicted one at a time
    rng = np.random.default_rng(30)
    X = random_valid_inputs(rng, 10)
    m = init_model("nn", shape=NetworkShape(hidden=(6,)), seed=2)
    batch = predict(m, X)
    singles = [predict(m, x)[0] for x in X]
    assert np.allclose(batch, singles, rtol=1e-12)
    mm = init_model("mm")
    assert np.allclose(predict(mm, X), [predict(mm, x)[0] for x in X], rtol=1e-12)
