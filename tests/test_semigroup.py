"""Tests for semigroup propagation, convergence distances, and correctors."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest

from qsde_elim import (
    CLAMP_ABORT,
    ClampExceeded,
    CoefficientSet,
    InvalidArgument,
    NumericalFailure,
    Projector,
    ResourceLimit,
    ScaledModel,
    StepDrive,
    build_generators,
    catalog,
    default_ground_vector,
    displace_limit,
    displace_scaled,
    eliminate,
    expm,
    generator_convergence_check,
    instantiate,
    k_sweep,
    kurtz_corrector,
    vec,
)
from qsde_elim import semigroup
from qsde_elim.linalg import RECORDED_ARITHMETIC_MAX_DIM
from qsde_elim.semigroup import (
    _apply_terms,
    _distances_from_states,
    _sandwich_terms,
    _superoperator,
)
from factories import haar_unitary, random_valid_model

elim_module = importlib.import_module("qsde_elim.eliminate")  # the package's name is the function


@pytest.fixture(scope="module")
def two_level():
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    return m, e, v


def slow_only_model(rng, d=3):
    """Y = A = F = 0: the skew generator equals the limit generator at every k."""
    G = rng.normal(size=(1, d, d)) + 1j * rng.normal(size=(1, d, d))
    H = rng.normal(size=(d, d))
    B = -0.5 * np.einsum("iba,ibc->ac", G.conj(), G) + 1j * (H + H.T)
    W = haar_unitary(rng, d)[None, None]
    zeros = np.zeros((d, d))
    return ScaledModel(Y=zeros, A=zeros, B=B, F=np.zeros((1, d, d)), G=G, W=W)


# ---------------------------------------------------------------------------
# the dense oracle: exp(t G) on the column-stacked operator, with G the
# d^2 x d^2 matrix of the same sandwich terms every sweep steps; it shares
# none of the stepper's propagation


def dense_generator(left: CoefficientSet, right: CoefficientSet) -> np.ndarray:
    """Matrix of X -> left.K† X + X right.K + sum_i left.L_i† X right.L_i on vec(X)."""
    return _superoperator(_sandwich_terms(left.K, left.L, right.K, right.L), left.dim)


def dense_evolve(G: np.ndarray, X, t: float) -> np.ndarray:
    """exp(t G) applied to the operator X."""
    X = np.asarray(X, dtype=complex)
    return (expm(t * G) @ vec(X)).reshape(X.shape, order="F")


def dense_squared_distances(m, e, k, v, drive, t_grid):
    """<v, (2I - T - T†) v> from the dense d^2 x d^2 generators, composed by
    hand per segment with the earliest segment outermost."""
    if drive is None:
        segments, bps = [(e.limit, m)], [0.0, t_grid[-1]]
    else:
        segments = [(displace_limit(e.limit, a), displace_scaled(m, a)) for a in drive.amplitudes]
        bps = drive.breakpoints
    gens = [dense_generator(limit, instantiate(scaled, k)) for limit, scaled in segments]
    # exp(D_i G_i) of each full segment but the last, applied one at a time below
    jumps = [expm((bps[i + 1] - bps[i]) * G) for i, G in enumerate(gens[:-1])]
    out = []
    for t in t_grid:
        # the segment t lies in; a time on a breakpoint belongs to the segment it ends
        j = min(max(int(np.searchsorted(bps, t)) - 1, 0), len(gens) - 1)
        T = dense_evolve(gens[j], e.decomposition.P0.matrix, t - bps[j])
        for i in range(j - 1, -1, -1):
            T = (jumps[i] @ vec(T)).reshape(T.shape, order="F")
        q = 2.0 * np.eye(m.dim) - T - T.conj().T
        out.append(np.vdot(v, q @ v).real)
    return np.array(out)


# breakpoints and per-channel amplitudes of a five-segment drive whose inner
# breakpoints lie off the time grids of the sweeps that use it
FIVE_SEGMENTS = ([0.0, 0.13, 0.37, 0.52, 0.86, 1.0], [0.3, -0.2j, 0.1, 0.05j, -0.25])


# ---------------------------------------------------------------------------
# generators


def test_slow_only_skew_equals_limit():
    rng = np.random.default_rng(2)
    m = slow_only_model(rng)
    e = eliminate(m)
    for k in (0.0, 1.0, 13.0):
        skew = build_generators(m, e, k)
        np.testing.assert_allclose(skew, dense_generator(e.limit, e.limit), atol=1e-12)


def test_limit_generator_kills_ground_projector(two_level):
    _, e, _ = two_level
    limit = dense_generator(e.limit, e.limit)
    P0m = e.decomposition.P0.matrix
    np.testing.assert_allclose(limit @ vec(P0m), np.zeros(4), atol=1e-12)
    # and P0 stays fixed under the limit semigroup out to long times
    np.testing.assert_allclose(dense_evolve(limit, P0m, 10.0), P0m, atol=1e-10)


def test_scalar_balanced_coefficients_have_zero_generator():
    c = CoefficientSet(K=[[-0.5]], L=[[[1.0]]], S=[[[[1.0]]]])
    gen = dense_generator(c, c)
    np.testing.assert_array_equal(gen, [[0.0]])
    np.testing.assert_allclose(dense_evolve(gen, [[1.0]], 5.0), [[1.0]], atol=1e-15)


def random_coefficients(rng, d, n):
    def op(*shape):
        return rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))

    return CoefficientSet(K=op(), L=op(n), S=op(n, n))


def test_superoperator_and_operator_action_agree():
    # both forms of the generator come from one term list; they must agree,
    # with and without the K† term (the latter is the shape of Kurtz's L1)
    rng = np.random.default_rng(11)
    for d, n in ((1, 1), (3, 2), (4, 3)):
        left, right = random_coefficients(rng, d, n), random_coefficients(rng, d, n)
        X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        for K_left in (left.K, None):
            terms = _sandwich_terms(K_left, left.L, right.K, right.L)
            np.testing.assert_allclose(
                (_superoperator(terms, d) @ vec(X)).reshape((d, d), order="F"),
                _apply_terms(terms, X),
                atol=1e-12,
            )


def test_build_generators_rejects_negative_coupling(two_level):
    m, e, _ = two_level
    with pytest.raises(ValueError):
        build_generators(m, e, -2.0)
    with pytest.raises(InvalidArgument, match="got k = nan"):
        build_generators(m, e, np.nan)


def test_evolve_semigroup_law(two_level):
    m, e, _ = two_level
    gen = build_generators(m, e, 4.0)
    P0m = e.decomposition.P0.matrix
    via_steps = dense_evolve(gen, dense_evolve(gen, P0m, 0.3), 0.45)
    np.testing.assert_allclose(via_steps, dense_evolve(gen, P0m, 0.75), atol=1e-10)


def test_limit_semigroup_preserves_hermiticity():
    lam = catalog.lambda_system(1.0, 2.0, 0.4, 3)
    e = eliminate(lam)
    gen = dense_generator(e.limit, e.limit)
    rng = np.random.default_rng(4)
    H = rng.normal(size=(9, 9))
    H = H + H.T
    P0m = e.decomposition.P0.matrix
    X = P0m @ H @ P0m
    for t in (0.2, 1.0, 3.0):
        T = dense_evolve(gen, X, t)
        assert np.linalg.norm(T - T.conj().T) < 1e-10


def test_skew_propagation_contracts_operator_norm():
    # the skew map is a vacuum expectation of a product of unitaries, so it
    # can never grow the operator norm (the Frobenius norm it can, slightly)
    rng = np.random.default_rng(5)
    models = [
        catalog.two_level_atom(1.0, 1.0, 0.5),
        catalog.alkali_atom(1.0, 1.0, 0.2, 0.0, 0.4),
        catalog.default_cavity_system(),
        catalog.lambda_system(1.0, 2.0, 0.4, 3),
    ]
    for m in models:
        e = eliminate(m)
        d = m.dim
        for k in (0.0, 1.0, 7.0, 40.0):
            gen = build_generators(m, e, k)
            for t in (0.1, 0.5, 2.0):
                for _ in range(3):
                    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                    X /= np.linalg.norm(X, 2)
                    assert np.linalg.norm(dense_evolve(gen, X, t), 2) <= 1.0 + 1e-8


# ---------------------------------------------------------------------------
# ground vectors and the distance form


def test_default_ground_vector_two_level(two_level):
    _, e, v = two_level
    np.testing.assert_allclose(v, [0.0, 1.0], atol=1e-12)


def test_default_ground_vector_multirank_and_fallback():
    P0 = Projector(np.diag([1.0, 1.0, 0.0]), 2)
    v = default_ground_vector(P0)
    np.testing.assert_allclose(v, [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0), 0.0], atol=1e-12)
    # range orthogonal to the all-ones vector: falls back to an eigenvector
    u = np.array([1.0, -1.0]) / np.sqrt(2.0)
    P0 = Projector(np.outer(u, u), 1)
    v = default_ground_vector(P0)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    np.testing.assert_allclose(P0.matrix @ v, v, atol=1e-12)
    # an empty ground space has no unit vector
    with pytest.raises(InvalidArgument, match="ground space is empty"):
        default_ground_vector(Projector(np.zeros((2, 2)), 0))


def test_ground_vector_validation(two_level):
    m, e, _ = two_level
    with pytest.raises(InvalidArgument, match="vector norm 0.5 is not 1"):
        k_sweep(m, e, [0.0, 0.5], [1.0], steps=2)
    with pytest.raises(InvalidArgument, match="excited-sector component"):
        k_sweep(m, e, [1.0, 0.0], [1.0], steps=2)
    with pytest.raises(InvalidArgument, match="vector length 3 does not match dimension 2"):
        k_sweep(m, e, [0.0, 1.0, 0.0], [1.0], steps=2)


def per_point_distance(T: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """The readout of one grid time, distance and clamp from T = T_t(P0): the
    oracle of the stacked readout, which must have its bits."""
    d = T.shape[0]
    q = 2.0 * np.eye(d, dtype=complex) - T - T.conj().T
    val = float(np.real(np.vdot(v, q @ v)))
    if not math.isfinite(val):
        raise ClampExceeded(f"squared distance came out {val}; propagation overflowed")
    clamp = max(0.0, -val)
    if clamp > CLAMP_ABORT:
        raise ClampExceeded(
            f"squared distance came out {val:.3e}; propagation is numerically unreliable"
        )
    return float(np.sqrt(max(val, 0.0))), clamp


def per_point_read(Ws, V0, v):
    """The oracle over a block: each row vec(Z) reshaped, lifted by V0 and read alone."""
    rows = len(v) if V0 is None else V0.shape[1]
    out = []
    for w in Ws:
        Z = w.reshape((rows, len(v)), order="F")
        out.append(per_point_distance(Z if V0 is None else V0 @ Z, v))
    return np.array([dist for dist, _ in out]), max(clamp for _, clamp in out)


def test_distance_form_clamps_and_aborts():
    v = np.array([1.0, 0.0], dtype=complex)
    Ws = vec((1.0 + 1e-9) * np.eye(2, dtype=complex))[None]  # one grid time
    dist, clamp = _distances_from_states(Ws, None, v)
    assert dist.tolist() == [0.0]
    assert clamp == pytest.approx(2e-9, rel=1e-6)
    assert clamp < CLAMP_ABORT
    with pytest.raises(ClampExceeded):
        _distances_from_states(vec(3.0 * np.eye(2, dtype=complex))[None], None, v)


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("d, d0", [(2, None), (4, None), (8, None), (12, 1), (12, 3), (32, 8)])
def test_stacked_readout_has_the_bits_of_the_per_point_form(d, d0):
    # full states at d <= 8, ground rows lifted by V0 above; every block holds
    # the state at t = 0, a clamped grid time and random states
    rng = np.random.default_rng(d + (d0 or 0))
    V0 = None if d0 is None else np.linalg.qr(random_complex(rng, d, d0))[0]
    P0 = np.eye(d) if V0 is None else V0 @ V0.conj().T
    u = random_complex(rng, d if V0 is None else d0)
    v = (u if V0 is None else V0 @ u) / np.linalg.norm(u)
    Z0 = P0 if V0 is None else V0.conj().T  # the state at t = 0
    states = [Z0, (1.0 + 1e-9) * Z0] + [
        0.3 * Z / np.linalg.norm(Z) for Z in (random_complex(rng, *Z0.shape) for _ in range(40))
    ]
    Ws = np.array([vec(Z) for Z in states]).astype(complex)
    dist, clamp = _distances_from_states(Ws, V0, v)
    ref_dist, ref_clamp = per_point_read(Ws, V0, v)
    assert same_bits(dist, ref_dist)
    assert clamp == ref_clamp > 0.0
    assert dist[1] == 0.0 and not np.signbit(dist[1])
    if V0 is None:
        assert dist[0] == 0.0 and not np.signbit(dist[0])


@pytest.mark.parametrize(
    "bad, message",
    [
        ([3.0, np.nan], r"came out -4\.000e\+00; propagation is numerically unreliable$"),
        ([np.nan, 3.0], r"came out nan; propagation overflowed$"),
        ([np.inf, 3.0], r"came out nan; propagation overflowed$"),  # inf - inf
    ],
)
def test_the_first_failing_grid_time_names_the_failure(bad, message):
    # grid times 0 and 1 read fine; of the two failing ones after them, the first
    # is raised, with the text of the per-point form
    v = np.array([1.0, 0.0], dtype=complex)
    Ws = np.array([vec(np.diag([s, s])) for s in [1.0, 0.5] + bad]).astype(complex)
    with np.errstate(over="ignore", invalid="ignore"):  # as k_sweep reads
        with pytest.raises(ClampExceeded, match=message) as got:
            _distances_from_states(Ws, None, v)
        with pytest.raises(ClampExceeded) as ref:
            per_point_read(Ws, None, v)
    assert str(got.value) == str(ref.value)


# ---------------------------------------------------------------------------
# vacuum distances


def test_vacuum_distance_zero_at_t0(two_level):
    # at t = 0 the state is P0 itself, and the form is exactly 0
    m, e, v = two_level
    rep = k_sweep(m, e, v, [7.0], steps=2)
    assert rep.distances.shape == (1, 2)
    assert rep.distances[0, 0] == 0.0


def test_vacuum_distance_two_level_frozen_values(two_level):
    m, e, v = two_level
    rep = k_sweep(m, e, v, [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0], horizon=1.0, steps=101)
    expected = [
        0.505140929,
        0.336112907,
        0.139397667,
        0.069732274,
        0.033141518,
        0.013264915,
        0.006633052,
    ]
    np.testing.assert_allclose(rep.sup_distance, expected, atol=1e-8)
    assert rep.max_clamp == 0.0
    # monotone improvement with coupling
    assert np.all(np.diff(rep.sup_distance) < 0)


def test_vacuum_distance_slow_only_model_is_zero():
    rng = np.random.default_rng(6)
    m = slow_only_model(rng)
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    rep = k_sweep(m, e, v, [9.0], horizon=2.0, steps=21)
    assert rep.sup_distance[0] < 1e-7


def test_k_sweep_matches_pointwise_vacuum_distance(two_level):
    m, e, v = two_level
    ks = [2.0, 20.0]
    rep = k_sweep(m, e, v, ks, horizon=0.8, steps=9)
    assert rep.distances.shape == (2, 9)
    np.testing.assert_allclose(rep.t_grid, np.linspace(0.0, 0.8, 9), atol=1e-15)
    for i, k in enumerate(ks):
        q = dense_squared_distances(m, e, k, v, None, rep.t_grid)
        np.testing.assert_allclose(rep.distances[i], np.sqrt(np.maximum(q, 0.0)), atol=1e-10)
    np.testing.assert_allclose(rep.sup_distance, rep.distances.max(axis=1), atol=1e-15)


def test_k_sweep_argument_validation(two_level):
    m, e, v = two_level
    with pytest.raises(ValueError):
        k_sweep(m, e, v, [])
    with pytest.raises(ValueError):
        k_sweep(m, e, v, [-1.0])
    with pytest.raises(ValueError):
        k_sweep(m, e, v, [1.0], horizon=0.0)
    with pytest.raises(ValueError):
        k_sweep(m, e, v, [1.0], steps=1)
    for ks in ([np.nan], [1.0, np.inf]):
        with pytest.raises(InvalidArgument):
            k_sweep(m, e, v, ks)
    with pytest.raises(InvalidArgument):
        k_sweep(m, e, v, [1.0], horizon=np.nan)
    # a non-finite ground vector is refused, not blamed on propagation
    for bad in ([np.nan, np.nan], [0.0, np.nan], [np.inf, 0.0]):
        with pytest.raises(InvalidArgument, match="vector entries must be finite"):
            k_sweep(m, e, bad, [1.0], steps=2)
    # a fractional grid is refused, not truncated
    for steps in (2.7, np.nan, np.inf):
        with pytest.raises(InvalidArgument, match="steps must be a whole number"):
            k_sweep(m, e, v, [1.0], steps=steps)
    assert k_sweep(m, e, v, [1.0], steps=3.0).distances.shape == (1, 3)
    # an integer too large for a float is still a grid, refused by its size
    with pytest.raises(ResourceLimit):
        k_sweep(m, e, v, [1.0], steps=10**400)


def test_an_elimination_of_another_model_is_refused(two_level):
    # the two-level result against the cavity (d = 8, one channel), alkali
    # (d = 4, three channels) and a d = 2 model with two channels: refused by
    # name, not by numpy's matmul
    _, e, v = two_level
    others = [
        catalog.default_cavity_system(n_trunc=4),
        catalog.alkali_atom(1.0, 1.0, 0.2, 0.0, 0.4),
        random_valid_model(np.random.default_rng(0), 1, 1, 2),
    ]
    for m in others:
        shape = rf"dimension 2 and 1 channel\(s\), the model {m.dim} and {m.channels}"
        X = np.eye(m.dim)
        with pytest.raises(InvalidArgument, match=shape):
            k_sweep(m, e, v, [10.0], steps=3)
        with pytest.raises(InvalidArgument, match=shape):
            generator_convergence_check(m, e, X, [10.0])
        with pytest.raises(InvalidArgument, match=shape):
            kurtz_corrector(e, m, X)


# ---------------------------------------------------------------------------
# drives and coherent distances


def test_step_drive_validation():
    with pytest.raises(InvalidArgument):
        StepDrive(breakpoints=[0.5, 1.0], amplitudes=[[0.1]])
    with pytest.raises(InvalidArgument):
        StepDrive(breakpoints=[0.0], amplitudes=np.zeros((0, 1)))
    with pytest.raises(InvalidArgument):
        StepDrive(breakpoints=[0.0, 1.0, 1.0], amplitudes=[[0.1], [0.2]])
    with pytest.raises(InvalidArgument):
        StepDrive(breakpoints=[0.0, 1.0], amplitudes=[[0.1], [0.2]])
    with pytest.raises(InvalidArgument):
        StepDrive(breakpoints=[0.0, 1.0], amplitudes=[[np.inf]])
    with pytest.raises(InvalidArgument, match="one amplitude per channel"):
        StepDrive(breakpoints=[0.0, 0.5, 1.0], amplitudes=[[0.3], [0.1, 0.2]])
    # no channel: atleast_2d would read [] and [[]] as one row of width 0
    for amps in ([], [[]]):
        with pytest.raises(InvalidArgument, match="at least one channel"):
            StepDrive(breakpoints=[0.0, 1.0], amplitudes=amps)
    drive = StepDrive(breakpoints=[0.0, 0.5, 2.0], amplitudes=[[0.1], [0.2j]])
    assert drive.horizon == 2.0


def test_zero_drive_matches_vacuum():
    # the vacuum is a drive of zero amplitude, to the bit and the sign bit, on
    # the full d x d state and on the ground rows V0† X of the d = 12 lambda
    models = [
        catalog.two_level_atom(1.0, 1.0, 0.5),
        catalog.alkali_atom(1.0, 1.0, 0.2, 0.0, 0.4),
        catalog.lambda_system(1.0, 2.0, 0.4, 4),
    ]
    for m in models:
        e = eliminate(m)
        v = default_ground_vector(e.decomposition.P0)
        drive = StepDrive(breakpoints=[0.0, 1.0], amplitudes=[[0.0] * m.channels])
        vacuum = k_sweep(m, e, v, [1.0, 30.0], steps=11)
        driven = k_sweep(m, e, v, [1.0, 30.0], steps=11, drive=drive)
        np.testing.assert_array_equal(driven.distances, vacuum.distances)
        np.testing.assert_array_equal(np.signbit(driven.distances), np.signbit(vacuum.distances))
        assert driven.max_clamp == vacuum.max_clamp


def test_splitting_a_constant_drive_changes_nothing(two_level):
    m, e, v = two_level
    one = StepDrive(breakpoints=[0.0, 1.0], amplitudes=[[0.25]])
    three = StepDrive(breakpoints=[0.0, 0.3, 0.7, 1.0], amplitudes=[[0.25]] * 3)
    a = k_sweep(m, e, v, [7.0], steps=21, drive=one)
    b = k_sweep(m, e, v, [7.0], steps=21, drive=three)
    np.testing.assert_allclose(a.distances, b.distances, rtol=0, atol=1e-10)


def test_coherent_distance_frozen_value(two_level):
    m, e, v = two_level
    drive = StepDrive(breakpoints=[0.0, 1.0], amplitudes=[[0.25]])
    rep = k_sweep(m, e, v, [50.0], steps=2, drive=drive)
    assert rep.distances[0, -1] == pytest.approx(0.014997766, abs=1e-7)
    assert rep.distances[0, -1] < 0.1


def test_driven_sweep_frozen_values(two_level):
    m, e, v = two_level
    drive = StepDrive(breakpoints=[0.0, 0.5, 1.0], amplitudes=[[0.3], [-0.2]])
    rep = k_sweep(m, e, v, [5.0, 100.0], horizon=1.0, steps=101, drive=drive)
    np.testing.assert_allclose(rep.sup_distance, [0.176480436, 0.008762663], atol=1e-8)
    assert rep.max_clamp == 0.0


def test_driven_sweep_matches_pointwise_coherent_distance(two_level):
    # the sweep steps along the grid; the dense oracle jumps from each
    # segment start in one step.  The 0.73 breakpoint lies off the grid and
    # 0.5 on it, so this covers stepping, segment switches and the order in
    # which the segments compose.
    m, e, v = two_level
    drive = StepDrive(breakpoints=[0.0, 0.5, 0.73, 1.0], amplitudes=[[0.3], [-0.2j], [0.1]])
    rep = k_sweep(m, e, v, [2.0, 20.0], horizon=1.0, steps=11, drive=drive)
    for i, k in enumerate(rep.ks):
        q = dense_squared_distances(m, e, k, v, drive, rep.t_grid)
        np.testing.assert_allclose(rep.distances[i], np.sqrt(np.maximum(q, 0.0)), atol=1e-10)
    # composed by hand at t = 0.8, in the third segment: earliest outermost
    g1, g2, g3 = (
        dense_generator(displace_limit(e.limit, a), instantiate(displace_scaled(m, a), 20.0))
        for a in drive.amplitudes
    )
    t = rep.t_grid[8]
    P0m = e.decomposition.P0.matrix
    T = dense_evolve(g1, dense_evolve(g2, dense_evolve(g3, P0m, t - 0.73), 0.23), 0.5)
    expected = np.sqrt(np.vdot(v, (2.0 * np.eye(2) - T - T.conj().T) @ v).real)
    assert rep.distances[1, 8] == pytest.approx(expected, abs=1e-10)
    # five segments, every inner breakpoint off the grid: four earlier segments act as one product
    five = StepDrive(FIVE_SEGMENTS[0], [[a] for a in FIVE_SEGMENTS[1]])
    rep = k_sweep(m, e, v, [2.0, 20.0], horizon=1.0, steps=11, drive=five)
    for i, k in enumerate(rep.ks):
        q = dense_squared_distances(m, e, k, v, five, rep.t_grid)
        np.testing.assert_allclose(rep.distances[i], np.sqrt(np.maximum(q, 0.0)), atol=1e-10)


def count_displacements(monkeypatch):
    """Names of the displace_limit and displace_scaled calls k_sweep makes."""
    calls = []

    def counted(name):
        real = getattr(semigroup, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("displace_limit", "displace_scaled"):
        monkeypatch.setattr(semigroup, name, counted(name))
    return calls


def test_a_sweep_displaces_each_segment_once(two_level, monkeypatch):
    # displacement does not depend on k: three couplings of a 2-segment drive
    # displace twice, not once per coupling and segment; the vacuum, one
    # segment of amplitude zero, once
    m, e, v = two_level
    calls = count_displacements(monkeypatch)
    drive = StepDrive(breakpoints=[0.0, 0.5, 1.0], amplitudes=[[0.3], [-0.2]])
    k_sweep(m, e, v, [5.0, 20.0, 100.0], horizon=1.0, steps=11, drive=drive)
    assert sorted(calls) == ["displace_limit"] * 2 + ["displace_scaled"] * 2
    calls.clear()
    k_sweep(m, e, v, [5.0, 20.0, 100.0], horizon=1.0, steps=11)
    assert sorted(calls) == ["displace_limit", "displace_scaled"]


@pytest.mark.parametrize(
    "n_trunc, breakpoints, horizon",
    [(4, np.linspace(0.0, 100.0, 201), 1.0), (8, [0.0, 0.3, 0.55, 1.0], 0.7)],
    ids=["cavity-d8-200-segments", "cavity-d16-3-segments"],
)
def test_a_drive_past_the_horizon_is_cut_there(n_trunc, breakpoints, horizon, monkeypatch):
    # only the segments that start before the horizon are displaced, and the
    # sweep has the bits of the same drive cut at the horizon
    m = catalog.default_cavity_system(n_trunc=n_trunc)
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    amps = 0.3 * np.random.default_rng(5).standard_normal((len(breakpoints) - 1, m.channels))
    long = StepDrive(breakpoints, amps)
    reached = int(np.sum(long.breakpoints < horizon))
    cut = StepDrive(list(long.breakpoints[:reached]) + [horizon], amps[:reached])
    calls = count_displacements(monkeypatch)
    rep = k_sweep(m, e, v, [5.0, 100.0], horizon, 101, long)
    assert sorted(calls) == ["displace_limit"] * reached + ["displace_scaled"] * reached
    ref = k_sweep(m, e, v, [5.0, 100.0], horizon, 101, cut)
    assert same_bits(rep.distances, ref.distances)
    assert rep.max_clamp == ref.max_clamp


def test_driven_sweep_requires_covering_window(two_level):
    m, e, v = two_level
    drive = StepDrive(breakpoints=[0.0, 0.5], amplitudes=[[0.3]])
    with pytest.raises(InvalidArgument):
        k_sweep(m, e, v, [5.0], horizon=1.0, steps=11, drive=drive)
    # the tolerance is relative: at a 1e-12 horizon a window of half of it is short
    short = StepDrive(breakpoints=[0.0, 5e-13], amplitudes=[[0.3]])
    with pytest.raises(InvalidArgument, match="before the horizon"):
        k_sweep(m, e, v, [5.0], horizon=1e-12, steps=5, drive=short)
    # while a window short of the horizon by rounding still covers it: its last
    # amplitude holds to the horizon, as in a window that ends there
    horizon = 0.5 * (1.0 + 1e-13)
    rep = k_sweep(m, e, v, [5.0], horizon=horizon, steps=5, drive=drive)
    exact = StepDrive(breakpoints=[0.0, horizon], amplitudes=[[0.3]])
    ref = k_sweep(m, e, v, [5.0], horizon=horizon, steps=5, drive=exact)
    assert same_bits(rep.distances, ref.distances)


# ---------------------------------------------------------------------------
# exact symmetries of the QSDE (Hudson & Parthasarathy, Commun. Math. Phys. 93,
# 301, 1984): the sweep checked against itself, with no oracle


SYMMETRY_MODELS = {
    "two_level": lambda: catalog.two_level_atom(1.0, 1.0, 0.5),
    "alkali": lambda: catalog.alkali_atom(1.0, 1.0, 0.2, 0.0, 0.4),
    "cavity-d16": lambda: catalog.default_cavity_system(n_trunc=8),
    "random-d8": lambda: random_valid_model(np.random.default_rng(0), 2, 6, 2),
}
SYMMETRY_KS = ([5.0, 100.0], [1e4])


def symmetry_distances(m, scale=1.0, mix=None):
    """k_sweep distances on 21 points of [0, 1] at each of SYMMETRY_KS times
    scale, under vacuum and under a two-segment drive whose amplitude rows
    are multiplied by the channel unitary mix where it is given."""
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    amps = np.array([[0.3] * m.channels, [-0.2j] * m.channels])
    drive = StepDrive([0.0, 0.45, 1.0], amps if mix is None else amps @ mix.T)
    return [
        k_sweep(m, e, v, np.multiply(ks, scale), 1.0, 21, d).distances
        for d in (None, drive)
        for ks in SYMMETRY_KS
    ]


@pytest.mark.parametrize("name", sorted(SYMMETRY_MODELS))
def test_rescaling_the_coupling_keeps_every_bit(name):
    # Y/c², A/c and F/c at coupling c·k give the same K(k) = k²Y + kA + B and
    # L(k) = kF + G; with c a power of two no product rounds differently
    m = SYMMETRY_MODELS[name]()
    base = symmetry_distances(m)
    for c in (2.0, 4.0):
        scaled = ScaledModel(Y=m.Y / c**2, A=m.A / c, B=m.B, F=m.F / c, G=m.G, W=m.W)
        for got, want in zip(symmetry_distances(scaled, scale=c), base):
            assert same_bits(got, want)


@pytest.mark.parametrize("name", ["alkali", "random-d8"])
def test_rotating_the_channels_keeps_the_distances(name):
    # F → u·F, G → u·G, W → u·W·u† and the drive α → u·α, for a unitary u, are
    # the same QSDE in another channel basis; k·d moves by rounding only
    m = SYMMETRY_MODELS[name]()
    rng = np.random.default_rng(0)
    n = m.channels
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    rotated = ScaledModel(
        Y=m.Y,
        A=m.A,
        B=m.B,
        F=np.einsum("ij,jab->iab", u, m.F),
        G=np.einsum("ij,jab->iab", u, m.G),
        W=np.einsum("ia,abxy,jb->ijxy", u, m.W, u.conj()),
    )
    assert np.abs(rotated.F - m.F).max() > 0.1
    pairs = zip(SYMMETRY_KS * 2, symmetry_distances(m), symmetry_distances(rotated, mix=u))
    for ks, got, want in pairs:
        k = np.array(ks)[:, None]
        np.testing.assert_allclose(k * got, k * want, rtol=0, atol=1e-6)


class NonzeroAmplitude(np.ndarray):
    """An amplitude whose any() is True, so that a displacement by zero runs
    the displacement's arithmetic instead of giving back its input."""

    def any(self, *args, **kwargs):
        return True


@pytest.mark.parametrize("name", sorted(SYMMETRY_MODELS))
def test_a_vacuum_sweep_has_the_bits_of_a_displacement_by_zero(name, monkeypatch):
    # the vacuum skips its displacement; the distances keep every bit, sign
    # bits of alkali's exact zeros included
    m = SYMMETRY_MODELS[name]()
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    zero = np.zeros(m.channels)
    assert displace_scaled(m, zero) is m and displace_limit(e.limit, zero) is e.limit
    got = [k_sweep(m, e, v, ks, 1.0, 21) for ks in SYMMETRY_KS]
    real = elim_module.as_amplitude
    monkeypatch.setattr(
        elim_module, "as_amplitude", lambda a, n: real(a, n).view(NonzeroAmplitude)
    )
    assert displace_scaled(m, zero) is not m and displace_limit(e.limit, zero) is not e.limit
    for ks, rep in zip(SYMMETRY_KS, got):
        ref = k_sweep(m, e, v, ks, 1.0, 21)
        assert same_bits(rep.distances, ref.distances)
        assert rep.max_clamp == ref.max_clamp


# ---------------------------------------------------------------------------
# correctors and generator convergence


def test_kurtz_corrector_zero_observable(two_level):
    m, e, _ = two_level
    X1, X2 = kurtz_corrector(e, m, np.zeros((2, 2)))
    assert np.linalg.norm(X1) == 0.0
    assert np.linalg.norm(X2) == 0.0


def test_kurtz_corrector_two_level_oracle(two_level):
    # first corrector of P0, worked by hand from X1 = -L1(P0) Y1inv P1:
    # L1(P0) = (-i conj(alpha) + conj(l) sqrt(gamma)) sigma_m with
    # l = -0.4 - 0.2i, so X1 = (0.4 + 0.3i)(-0.4 + 0.8i) sigma_m
    m, e, _ = two_level
    p = catalog.pauli_ops()
    X1, X2 = kurtz_corrector(e, m, e.decomposition.P0.matrix)
    np.testing.assert_allclose(X1, (-0.4 + 0.2j) * p.sigma_m, atol=1e-12)
    np.testing.assert_allclose(X2, np.zeros((2, 2)), atol=1e-12)


def test_kurtz_corrector_rejects_non_ground_observable(two_level):
    m, e, _ = two_level
    with pytest.raises(InvalidArgument):
        kurtz_corrector(e, m, np.eye(2))
    with pytest.raises(InvalidArgument, match="X dimension does not match the model"):
        kurtz_corrector(e, m, np.eye(3))


def test_kurtz_corrector_identities_on_random_model():
    # the correctors must solve L1(X) + L1*(X1-part)... verified directly
    # against their defining equations on a non-axis-aligned model
    rng = np.random.default_rng(31)
    m = random_valid_model(rng)
    e = eliminate(m)
    P0m = e.decomposition.P0.matrix
    Z = rng.normal(size=(m.dim, m.dim)) + 1j * rng.normal(size=(m.dim, m.dim))
    X = P0m @ Z @ P0m
    X1, X2 = kurtz_corrector(e, m, X)
    K, L = e.limit.K, e.limit.L

    def l0(Zz):
        acc = K.conj().T @ Zz + Zz @ m.B
        for i in range(m.channels):
            acc += L[i].conj().T @ Zz @ m.G[i]
        return acc

    def l1(Zz):
        acc = Zz @ m.A
        for i in range(m.channels):
            acc += L[i].conj().T @ Zz @ m.F[i]
        return acc

    YP = e.decomposition.Y1inv @ e.decomposition.P1.matrix
    np.testing.assert_allclose(X1, -l1(X) @ YP, atol=1e-12)
    np.testing.assert_allclose(X2, -(l0(X) + l1(X1)) @ YP, atol=1e-12)
    # correctors live strictly on the excited side on the right
    np.testing.assert_allclose(X1 @ P0m, np.zeros_like(X1), atol=1e-12)


def test_generator_convergence_frozen_residuals(two_level):
    m, e, _ = two_level
    res = generator_convergence_check(m, e, e.decomposition.P0.matrix, [10.0, 30.0, 100.0, 300.0])
    np.testing.assert_allclose(res.corrected, [0.1 / k for k in (10.0, 30.0, 100.0, 300.0)], atol=1e-9)
    np.testing.assert_allclose(
        res.uncorrected, [5.004997502, 15.00166657, 50.0005, 150.0001667], rtol=1e-8
    )
    assert np.all(res.uncorrected > res.corrected)
    assert res.corrected_slope() == pytest.approx(-1.0, abs=0.1)


def test_generator_convergence_slope_wide_range(two_level):
    m, e, _ = two_level
    res = generator_convergence_check(m, e, e.decomposition.P0.matrix, [1.0, 10.0, 100.0, 1000.0])
    assert res.corrected_slope() == pytest.approx(-1.0, abs=0.1)


def test_generator_convergence_trivial_zero_gives_nan_slope():
    # alkali: A = G = 0 and L = 0, so both correctors vanish and the
    # residuals sit at zero; the slope has nothing to fit
    m = catalog.alkali_atom(1.0, 1.0, 0.2, 0.0, 0.4)
    e = eliminate(m)
    res = generator_convergence_check(m, e, e.decomposition.P0.matrix, [10.0, 100.0])
    assert np.all(res.corrected < 1e-12)
    assert np.isnan(res.corrected_slope())


def test_generator_convergence_rejects_bad_couplings(two_level):
    m, e, _ = two_level
    with pytest.raises(ValueError):
        generator_convergence_check(m, e, e.decomposition.P0.matrix, [0.0, 1.0])
    with pytest.raises(ValueError):
        generator_convergence_check(m, e, e.decomposition.P0.matrix, [])
    with pytest.raises(InvalidArgument):
        generator_convergence_check(m, e, e.decomposition.P0.matrix, [np.nan])


def residuals_one_coupling_at_a_time(m, e, X, ks):
    """generator_convergence_check as a loop over k: instantiate, then one
    np.linalg.norm of each residual."""
    X1, X2 = kurtz_corrector(e, m, X)
    K, L = e.limit.K, e.limit.L
    LX = _apply_terms(_sandwich_terms(K, L, K, L), X)
    corrected, uncorrected = [], []
    for k in ks:
        inst = instantiate(m, k)
        skew = _sandwich_terms(K, L, inst.K, inst.L)
        corrected.append(np.linalg.norm(_apply_terms(skew, X + X1 / k + X2 / (k * k)) - LX))
        uncorrected.append(np.linalg.norm(_apply_terms(skew, X) - LX))
    return corrected, uncorrected


@pytest.mark.parametrize("budget", [semigroup.GENERATOR_BUDGET_BYTES, 1])
@pytest.mark.parametrize(
    "model",
    [
        lambda: catalog.two_level_atom(1.0, 1.0, 0.5),
        lambda: catalog.lambda_system(1.0, 2.0, 0.4, 4),
        lambda: random_valid_model(np.random.default_rng(5), 2, 3, 2),
        lambda: random_valid_model(np.random.default_rng(6), 8, 24, 3),
    ],
)
def test_generator_residuals_have_the_bits_of_one_coupling_at_a_time(monkeypatch, model, budget):
    # every coupling in one stack, or one per batch under a tiny budget
    monkeypatch.setattr(semigroup, "GENERATOR_BUDGET_BYTES", budget)
    m = model()
    e = eliminate(m)
    ks = [10.0, 30.0, 100.0, 300.0, 1e5, 1e8]
    res = generator_convergence_check(m, e, e.decomposition.P0.matrix, ks)
    corrected, uncorrected = residuals_one_coupling_at_a_time(m, e, e.decomposition.P0.matrix, ks)
    assert res.corrected.tolist() == corrected
    assert res.uncorrected.tolist() == uncorrected


def test_generator_residuals_name_the_first_coupling_that_overflows(two_level):
    m, e, _ = two_level
    with pytest.raises(InvalidArgument, match=r"coupling k = 1e\+160 overflows"):
        generator_convergence_check(m, e, e.decomposition.P0.matrix, [10.0, 1e160, 1e200])


# ---------------------------------------------------------------------------
# ground-row state and the generator budget


GROUND_ROW_DRIVES = {
    "vacuum": None,
    "driven": ([0.0, 0.45, 1.0], [0.3, -0.2j]),
    "driven5": FIVE_SEGMENTS,
}
GROUND_ROW_MODELS = {
    "lambda-d12": lambda: catalog.lambda_system(1.0, 2.0, 0.4, 4),
    "cavity-d16": lambda: catalog.default_cavity_system(n_trunc=8),
    "random-d16": lambda: random_valid_model(np.random.default_rng(7), 4, 12, 2),
}


@pytest.mark.parametrize("name", sorted(GROUND_ROW_MODELS))
@pytest.mark.parametrize("drive_name", sorted(GROUND_ROW_DRIVES))
def test_ground_row_sweep_matches_dense_oracle(name, drive_name):
    # models above RECORDED_ARITHMETIC_MAX_DIM step only the ground rows V0† X; the
    # dense superoperator on the full d x d state is the oracle
    m = GROUND_ROW_MODELS[name]()
    assert m.dim > RECORDED_ARITHMETIC_MAX_DIM
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    drive = None
    if GROUND_ROW_DRIVES[drive_name] is not None:
        breakpoints, amps = GROUND_ROW_DRIVES[drive_name]
        drive = StepDrive(breakpoints, [[a] * m.channels for a in amps])
    rep = k_sweep(m, e, v, [5.0, 100.0], horizon=1.0, steps=6, drive=drive)
    for i, k in enumerate(rep.ks):
        q = dense_squared_distances(m, e, k, v, drive, rep.t_grid)
        np.testing.assert_allclose(rep.distances[i] ** 2, np.maximum(q, 0.0), rtol=0, atol=1e-10)
        assert rep.sup_distance[i] == pytest.approx(np.sqrt(np.maximum(q, 0.0)).max(), abs=1e-9)


def test_ground_rows_come_from_the_decomposition(monkeypatch):
    # above RECORDED_ARITHMETIC_MAX_DIM the stepper takes V0 from the SVD that
    # found the kernel; diagonalising P0 again would reach eigh
    m = catalog.default_cavity_system(n_trunc=8)
    assert m.dim == 16
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)

    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh reached: the ground basis was recomputed")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    rep = k_sweep(m, e, v, [100.0], horizon=1.0, steps=6)
    assert 100.0 * rep.sup_distance[0] == pytest.approx(0.54868, abs=5e-6)
    assert rep.max_clamp == 0.0


def record_expm_shapes(monkeypatch):
    shapes = []
    real_expm = semigroup.expm

    def recording_expm(M):
        shapes.append(np.shape(M))
        return real_expm(M)

    monkeypatch.setattr(semigroup, "expm", recording_expm)
    return shapes


def record_splits(monkeypatch):
    """(h, k, split taken) of every step that goes to the slow/fast split."""
    calls = []
    real_exp = semigroup._SlowFast.exp

    def recording_exp(self, h, k):
        E = real_exp(self, h, k)
        calls.append((h, k, E is not None))
        return E

    monkeypatch.setattr(semigroup._SlowFast, "exp", recording_exp)
    return calls


def test_ground_rows_shrink_the_exponentials(monkeypatch):
    # the n_trunc 16 cavity (d = 32, ground rank 2) steps a 2 x 32 state, so
    # every exponential is 64 x 64 where the full state needs 1024 x 1024
    m = catalog.default_cavity_system(n_trunc=16)
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    shapes = record_expm_shapes(monkeypatch)
    k_sweep(m, e, v, [5.0], horizon=1.0, steps=6)
    assert shapes and set(shapes) == {(64, 64)}
    # at k = 1e4 every step is stiff and takes the slow/fast split: its only
    # exponentials are of the 4 x 4 slow block
    shapes.clear()
    splits = record_splits(monkeypatch)
    k_sweep(m, e, v, [1e4], horizon=1.0, steps=6)
    assert splits and all(taken for _, _, taken in splits)
    assert shapes and set(shapes) == {(4, 4)}
    # two_level (d = 2) keeps its full 2 x 2 state and its 4 x 4 exponentials
    # at k = 5; at k = 1e4 the split takes every step, and its exponentials
    # are of the 1 x 1 slow and fast blocks
    shapes.clear()
    splits.clear()
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    k_sweep(m, e, v, [5.0], horizon=1.0, steps=6)
    assert shapes and set(shapes) == {(4, 4)}
    assert splits == []
    shapes.clear()
    k_sweep(m, e, v, [1e4], horizon=1.0, steps=6)
    assert splits and all(taken for _, _, taken in splits)
    assert shapes and set(shapes) == {(1, 1)}


def test_ground_rows_reach_d64(monkeypatch):
    # the n_trunc 32 cavity: d = 64, where the full superoperator would take
    # 268 MB per matrix; its 100 * sup distance is that of n_trunc 8 and 16
    m = catalog.default_cavity_system(n_trunc=32)
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    shapes = record_expm_shapes(monkeypatch)
    k_sweep(m, e, v, [5.0], horizon=1.0, steps=6)
    assert set(shapes) == {(128, 128)}
    # at k = 100 the steps are stiff and take the slow/fast split
    splits = record_splits(monkeypatch)
    rep = k_sweep(m, e, v, [100.0], horizon=1.0, steps=6)
    assert splits and all(taken for _, _, taken in splits)
    assert 100.0 * rep.sup_distance[0] == pytest.approx(0.54868, abs=5e-6)
    assert rep.max_clamp == 0.0


def fail_at_kron(*args, **kwargs):
    raise AssertionError("_kron reached: the generator was being assembled")


def test_oversized_generator_is_refused_before_assembly(monkeypatch):
    # the dense d = 40 oracle needs 16 * 40**4 bytes = 39 MiB, over the 32 MiB budget
    assert 16 * 40**4 > semigroup.GENERATOR_BUDGET_BYTES >= 16 * 32**4
    c = CoefficientSet(K=np.zeros((40, 40)), L=np.zeros((1, 40, 40)), S=np.zeros((1, 1, 40, 40)))
    monkeypatch.setattr(semigroup, "_kron", fail_at_kron)
    with pytest.raises(ResourceLimit, match="1600 x 1600 generator needs 40,960,000 bytes"):
        dense_generator(c, c)


def test_sweep_checks_the_budget_before_assembly(monkeypatch):
    # the n_trunc 16 cavity's ground-row generator is 64 x 64: 65536 bytes
    m = catalog.default_cavity_system(n_trunc=16)
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    monkeypatch.setattr(semigroup, "GENERATOR_BUDGET_BYTES", 16 * 64 * 64 - 1)
    monkeypatch.setattr(semigroup, "_kron", fail_at_kron)
    with pytest.raises(ResourceLimit):
        k_sweep(m, e, v, [5.0], horizon=1.0, steps=6)


def fail_at_linspace(*args, **kwargs):
    raise AssertionError("np.linspace reached: the time grid was being allocated")


@pytest.mark.parametrize("n_trunc", [4, 8])
def test_a_step_past_every_decay_is_zero(n_trunc, monkeypatch):
    # At k = 5 every mode of the cavity decays, the slowest at Re λ ≈ -1e-6, so
    # at t = 5e99 or 5e299 exp(t·G) is 0 and the distance √2; an expm of a
    # norm that large, dense or of the split's slow block, is not to be trusted
    m = catalog.default_cavity_system(n_trunc=n_trunc)
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)

    def no_expm(M):
        raise AssertionError("expm reached: the step is past every decay")

    monkeypatch.setattr(semigroup, "expm", no_expm)
    for horizon in (1e100, 1e300):
        rep = k_sweep(m, e, v, [5.0], horizon=horizon, steps=3)
        assert rep.distances[0] == pytest.approx([0.0, np.sqrt(2.0), np.sqrt(2.0)], abs=1e-15)
        assert rep.max_clamp == 0.0


def test_a_step_that_rounding_decides_is_refused_before_expm(two_level, monkeypatch):
    # At k = 1e9 a step of 0.5 has eps·h·|G|₁ ≈ 124, so exp(h·G) keeps no digit
    # of a mode that has not decayed, and the skew generator has one: as k grows
    # it tends to the limit generator on the ground sector, whose eigenvalue 0
    # fixes P0.  The exact sup distance, about 0.66/k, is beyond resolution.
    m, e, v = two_level

    def no_expm(M):
        raise AssertionError("expm reached: the step should have been refused")

    monkeypatch.setattr(semigroup, "expm", no_expm)
    with pytest.raises(NumericalFailure, match=r"horizon 1 at coupling 1e\+09: the rounding"):
        k_sweep(m, e, v, [1e9], steps=3)


def test_sweep_checks_the_grid_budget_before_allocation(two_level, monkeypatch):
    # 10**15 grid points at 5 couplings would take 48 PB of t_grid and distances
    m, e, v = two_level
    monkeypatch.setattr(np, "linspace", fail_at_linspace)
    with pytest.raises(ResourceLimit, match=r"5 coupling\(s\) on 1,000,000,000,000,000 grid"):
        k_sweep(m, e, v, [1.0, 2.0, 5.0, 10.0, 20.0], steps=10**15)


def test_a_readout_that_fails_first_wins_over_a_step_refusal(two_level, monkeypatch):
    # t = 0 is read before the first step is taken; with an abort threshold below
    # every clamp the read fails there, ahead of the step's overflow or refusal
    m, e, v = two_level
    monkeypatch.setattr(semigroup, "CLAMP_ABORT", -1.0)
    for ks, horizon in (([5.0], 1e308), ([1e9], 1.0)):
        with pytest.raises(ClampExceeded, match="^squared distance came out"):
            k_sweep(m, e, v, ks, horizon=horizon, steps=3)


def test_a_step_refusal_that_comes_first_keeps_its_text(two_level):
    m, e, v = two_level
    overflow = r"^horizon 1e\+308 overflows float64 in a time step$"
    with pytest.raises(InvalidArgument, match=overflow):
        k_sweep(m, e, v, [5.0], horizon=1e308, steps=3)
    with pytest.raises(NumericalFailure) as refused:
        k_sweep(m, e, v, [1e9], steps=3)
    assert type(refused.value) is NumericalFailure
    assert str(refused.value).startswith(
        "horizon 1 at coupling 1e+09: the rounding error of a time step, eps·h·|G| = "
    )


def plant_steps(monkeypatch, outcomes) -> list[float]:
    """Makes the n-th step exponential of a sweep outcomes[n]: "nan" for one of
    NaNs, an exception to raise, or None (and every later one) for the true one.
    Returns the step lengths asked for."""
    real = semigroup._step_exponential
    calls = []

    def planted(h, *args):
        calls.append(h)
        outcome = outcomes[len(calls) - 1] if len(calls) <= len(outcomes) else None
        if isinstance(outcome, Exception):
            raise outcome
        E = real(h, *args)
        return np.full_like(E, np.nan) if outcome == "nan" else E

    monkeypatch.setattr(semigroup, "_step_exponential", planted)
    return calls


def test_a_state_is_read_before_a_later_step_is_refused(two_level, monkeypatch):
    # the grid of 101 points has more than one float step: the first makes the
    # state at grid time 1 NaN, the second is refused; grid time 1 is read first
    m, e, v = two_level
    assert len(set(np.diff(np.linspace(0.0, 1.0, 101)).tolist())) > 1
    plant_steps(monkeypatch, ["nan", NumericalFailure("planted")])
    with pytest.raises(ClampExceeded, match="came out nan; propagation overflowed$"):
        k_sweep(m, e, v, [5.0], steps=101)
    # refused at once, the step's own failure comes out, after t = 0 is read
    calls = plant_steps(monkeypatch, [NumericalFailure("planted")])
    with pytest.raises(NumericalFailure, match="^planted$"):
        k_sweep(m, e, v, [5.0], steps=101)
    assert calls == [np.linspace(0.0, 1.0, 101)[1]]


def test_a_segment_is_read_before_its_full_duration_step(two_level, monkeypatch):
    # the segment [0, 0.5] ends at grid time 50; its exp(0.5·G) is refused
    m, e, v = two_level
    drive = StepDrive([0.0, 0.5, 1.0], [[0.3], [-0.2]])
    assert np.linspace(0.0, 1.0, 101)[50] == 0.5
    real_step, real_read = semigroup._step_exponential, semigroup._distances_from_states

    def refuse_segment(h, *args):
        if h == 0.5:
            raise NumericalFailure("segment end")
        return real_step(h, *args)

    monkeypatch.setattr(semigroup, "_step_exponential", refuse_segment)
    with pytest.raises(NumericalFailure, match="^segment end$"):
        k_sweep(m, e, v, [5.0], 1.0, 101, drive)
    read = []

    def fail_at_the_segment_end(Ws, *args):
        read.append(len(Ws))
        if sum(read) > 50:  # the block holds grid time 50
            raise ClampExceeded("planted at t = 0.5")
        return real_read(Ws, *args)

    monkeypatch.setattr(semigroup, "_distances_from_states", fail_at_the_segment_end)
    with pytest.raises(ClampExceeded, match="^planted at t = 0.5$"):
        k_sweep(m, e, v, [5.0], 1.0, 101, drive)


def test_a_long_sweep_reads_its_grid_in_bounded_blocks(two_level):
    # a thousand times the grid grows the peak by t_grid and distances, and by
    # at most one block of states and forms
    m, e, v = two_level
    drive = StepDrive([0.0, 0.5, 1.0], [[0.3], [-0.2]])
    peaks = {}
    for steps in (101, 100_001):
        tracemalloc.start()
        try:
            k_sweep(m, e, v, [5.0], 1.0, steps, drive)
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    grown = 8 * (100_001 - 101) * 2  # t_grid and the one row of distances
    assert peaks[100_001] - peaks[101] <= grown + semigroup._READ_BYTES


# ---------------------------------------------------------------------------
# one step length for the ground rows: above RECORDED_ARITHMETIC_MAX_DIM a
# grid difference an ulp from horizon / (steps - 1) is a step of that length


def grid_difference_squared_distances(m, e, k, v, drive, t_grid):
    """<v, (2I - T - T†) v> of the ground rows Z = V0† X stepped within each
    segment by every float difference of t_grid, one expm per distinct
    difference, with the earlier segments' full durations applied by hand,
    the earliest outermost: the full state's stepping rule on the ground rows."""
    V0 = e.decomposition.V0
    Vh = V0.conj().T
    if drive is None:
        segments, bps = [(e.limit, m)], [0.0, float(t_grid[-1])]
    else:
        segments = [(displace_limit(e.limit, a), displace_scaled(m, a)) for a in drive.amplitudes]
        bps = drive.breakpoints
    head, out = None, []
    for j, (limit, scaled) in enumerate(segments):
        right = instantiate(scaled, k)
        left = (Vh @ limit.K @ V0, Vh @ limit.L @ V0)
        G = _superoperator(_sandwich_terms(*left, right.K, right.L), m.dim)
        start, end = float(bps[j]), float(bps[j + 1])
        # a time on a breakpoint belongs to the segment it ends
        inside = (t_grid <= end) & ((t_grid > start) if j else True)
        w, prev, steps = vec(Vh), start, {}
        for t in t_grid[inside]:
            dt = float(t) - prev
            if dt > 0:
                if dt not in steps:
                    steps[dt] = expm(dt * G)
                w = steps[dt] @ w
            prev = float(t)
            Z = (w if head is None else head @ w).reshape(Vh.shape, order="F")
            T = V0 @ Z
            out.append(np.vdot(v, (2.0 * np.eye(m.dim) - T - T.conj().T) @ v).real)
        jump = expm((end - start) * G)
        head = jump if head is None else head @ jump
    return np.array(out)


STEP_LENGTH_MODELS = {
    **GROUND_ROW_MODELS,
    "random-d12-n1": lambda: random_valid_model(np.random.default_rng(5), 3, 9, 1),
}


@pytest.mark.parametrize("name", sorted(STEP_LENGTH_MODELS))
@pytest.mark.parametrize("drive_name", sorted(GROUND_ROW_DRIVES))
def test_one_step_length_meets_the_grid_difference_stepper(name, drive_name, monkeypatch):
    # up to k = 5 no step of these sweeps is stiff, not even a segment's full
    # duration, so the oracle's plain expm is the stepper's exponential up to
    # the ulps of h
    m = STEP_LENGTH_MODELS[name]()
    assert m.dim > RECORDED_ARITHMETIC_MAX_DIM
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    drive = None
    if GROUND_ROW_DRIVES[drive_name] is not None:
        breakpoints, amps = GROUND_ROW_DRIVES[drive_name]
        drive = StepDrive(breakpoints, [[a] * m.channels for a in amps])
    splits = record_splits(monkeypatch)
    for steps in (37, 101):
        rep = k_sweep(m, e, v, [2.0, 5.0], horizon=1.0, steps=steps, drive=drive)
        for i, k in enumerate(rep.ks):
            q = np.maximum(grid_difference_squared_distances(m, e, k, v, drive, rep.t_grid), 0.0)
            np.testing.assert_allclose(rep.distances[i] ** 2, q, rtol=0, atol=1e-10)
    assert splits == []


# per coupling on the 101-point grid of [0, 1]: the vacuum takes the grid step;
# a breakpoint on the grid adds the next segment's grid step and the first
# segment's full duration; one off the grid adds the next segment's partial
# first step too
STEP_COUNTS = {
    "vacuum": (None, [0.01]),
    "on-grid": ([0.0, 0.5, 1.0], [0.01, 0.5, 0.01]),
    "off-grid": ([0.0, 0.505, 1.0], [0.01, 0.505, 0.51 - 0.505, 0.01]),
}


@pytest.mark.parametrize("drive_name", sorted(STEP_COUNTS))
def test_the_ground_rows_take_one_exponential_per_step_length(drive_name, monkeypatch):
    m = catalog.lambda_system(1.0, 2.0, 0.4, 4)
    assert m.dim == 12 > RECORDED_ARITHMETIC_MAX_DIM
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    breakpoints, per_coupling = STEP_COUNTS[drive_name]
    drive = None if breakpoints is None else StepDrive(breakpoints, [[0.3], [-0.2]])
    t_grid = np.linspace(0.0, 1.0, 101)
    assert t_grid[50] == 0.5 and 0.505 not in t_grid
    calls = plant_steps(monkeypatch, [])  # the step lengths asked for
    k_sweep(m, e, v, [5.0, 100.0], horizon=1.0, steps=101, drive=drive)
    assert calls == 2 * per_coupling


def test_the_full_state_keeps_one_exponential_per_float_difference(monkeypatch):
    # up to RECORDED_ARITHMETIC_MAX_DIM the recorded outputs pin the steps: the
    # 101-point grid of [0, 1] has 8 distinct float differences
    m = catalog.default_cavity_system(n_trunc=4)
    assert m.dim == RECORDED_ARITHMETIC_MAX_DIM
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    differences = list(dict.fromkeys(np.diff(np.linspace(0.0, 1.0, 101)).tolist()))
    assert len(differences) == 8
    calls = plant_steps(monkeypatch, [])  # the step lengths asked for
    k_sweep(m, e, v, [5.0, 100.0], horizon=1.0, steps=101)
    assert calls == 2 * differences


def test_a_refused_step_length_comes_after_the_earlier_grid_times(monkeypatch):
    # at d = 12 the grid step is the only step of a vacuum segment: refused, it
    # raises after t = 0 is read; refused in the second segment of the
    # driven-catalog drive, after the 51 grid times of the first
    m = catalog.lambda_system(1.0, 2.0, 0.4, 4)
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    real_read, read = semigroup._distances_from_states, []

    def reading(Ws, *args):
        read.append(len(Ws))
        return real_read(Ws, *args)

    monkeypatch.setattr(semigroup, "_distances_from_states", reading)
    calls = plant_steps(monkeypatch, [NumericalFailure("planted")])
    with pytest.raises(NumericalFailure, match="^planted$"):
        k_sweep(m, e, v, [5.0], steps=101)
    assert calls == [0.01] and read == [1]
    read.clear()
    calls = plant_steps(monkeypatch, [None, None, NumericalFailure("planted")])
    drive = StepDrive([0.0, 0.5, 1.0], [[0.3], [-0.2]])
    with pytest.raises(NumericalFailure, match="^planted$"):
        k_sweep(m, e, v, [5.0], 1.0, 101, drive)
    assert calls == [0.01, 0.5, 0.01] and sum(read) == 51


@pytest.mark.parametrize("ks", [[100.0], [100.0, 100.0]])
def test_corrected_slope_needs_two_distinct_couplings(ks):
    # one coupling, swept once or twice, leaves no slope to fit: NaN, unwarned
    ks = np.array(ks)
    res = semigroup.GeneratorResiduals(ks=ks, corrected=0.01 / ks, uncorrected=np.ones_like(ks))
    assert np.isnan(res.corrected_slope())
    two = semigroup.GeneratorResiduals(
        ks=np.array([10.0, 100.0]), corrected=np.array([0.1, 0.01]), uncorrected=np.ones(2)
    )
    assert two.corrected_slope() == pytest.approx(-1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the slow/fast split of stiff steps


def same_bits(A: np.ndarray, B: np.ndarray) -> bool:
    return A.shape == B.shape and np.array_equal(A.view(np.uint64), B.view(np.uint64))


def no_split(monkeypatch):
    """Every stiff step takes the dense exponential, as where the split declines."""
    monkeypatch.setattr(semigroup._SlowFast, "exp", lambda self, h, k: None)


# k·sup at k = 1e4 on the 6-point vacuum grid (horizon 1, default ground
# vector) from an mpmath run with k kept exact (ROADMAP item 1; two_level's is
# bench/data/stiff_oracle.json).  n_trunc 4 and 8 agree to 16 digits there, so
# the n_trunc 8 value stands for n_trunc 16.
SPLIT_ORACLE = {
    "two_level": (lambda: catalog.two_level_atom(1.0, 1.0, 0.5), 0.66332496),
    "cavity-d8": (lambda: catalog.default_cavity_system(n_trunc=4), 0.54867633),
    "lambda-d12": (lambda: catalog.lambda_system(1.0, 2.0, 0.4, 4), 0.20574429),
    "cavity-d16": (lambda: catalog.default_cavity_system(n_trunc=8), 0.54867633),
    "cavity-d32": (lambda: catalog.default_cavity_system(n_trunc=16), 0.54867633),
}


@pytest.mark.parametrize("name", sorted(SPLIT_ORACLE))
def test_split_meets_the_oracle_at_k_1e4(name, monkeypatch):
    build, truth = SPLIT_ORACLE[name]
    m = build()
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    splits = record_splits(monkeypatch)
    rep = k_sweep(m, e, v, [1e4], horizon=1.0, steps=6)
    assert splits and all(taken for _, _, taken in splits)
    assert 1e4 * rep.sup_distance[0] == pytest.approx(truth, rel=2e-6)
    assert rep.max_clamp == 0.0


def test_split_keeps_the_driven_lambda_distance_flat_in_k():
    # the driven-catalog drive on its 101-point grid: from k = 1e3 on every
    # step is stiff; k·sup may move by O(1/k) only
    m = catalog.lambda_system(1.0, 2.0, 0.4, 4)
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    drive = StepDrive([0.0, 0.5, 1.0], [[0.3], [-0.2]])
    rep = k_sweep(m, e, v, [1e3, 1e4], horizon=1.0, steps=101, drive=drive)
    low, high = rep.ks * rep.sup_distance
    assert high == pytest.approx(low, rel=1e-5)
    assert rep.max_clamp == 0.0


@pytest.mark.parametrize("name", sorted(GROUND_ROW_MODELS))
@pytest.mark.parametrize("drive_name", sorted(GROUND_ROW_DRIVES))
def test_split_agrees_with_the_dense_path_up_to_k_100(name, drive_name, monkeypatch):
    m = GROUND_ROW_MODELS[name]()
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    drive = None
    if GROUND_ROW_DRIVES[drive_name] is not None:
        breakpoints, amps = GROUND_ROW_DRIVES[drive_name]
        drive = StepDrive(breakpoints, [[a] * m.channels for a in amps])
    splits = record_splits(monkeypatch)
    rep = k_sweep(m, e, v, [20.0, 100.0], horizon=1.0, steps=6, drive=drive)
    assert splits and all(taken for _, _, taken in splits)
    no_split(monkeypatch)
    dense = k_sweep(m, e, v, [20.0, 100.0], horizon=1.0, steps=6, drive=drive)
    np.testing.assert_allclose(rep.distances, dense.distances, rtol=0, atol=1e-8)
    assert rep.max_clamp == dense.max_clamp == 0.0


def test_split_is_reached_only_by_stiff_steps(monkeypatch):
    # at k = 5 no step of any of these models is stiff, vacuum or driven
    def fail(self, h, k):
        raise AssertionError("the slow/fast split was reached")

    monkeypatch.setattr(semigroup._SlowFast, "exp", fail)
    small = [
        catalog.two_level_atom(1.0, 1.0, 0.5),
        catalog.alkali_atom(1.0, 1.0, 0.2, 0.0, 0.4),
        catalog.default_cavity_system(n_trunc=4),
    ]
    breakpoints, amps = GROUND_ROW_DRIVES["driven"]
    for m in small + [build() for build in GROUND_ROW_MODELS.values()]:
        e = eliminate(m)
        v = default_ground_vector(e.decomposition.P0)
        for drive in (None, StepDrive(breakpoints, [[a] * m.channels for a in amps])):
            k_sweep(m, e, v, [5.0], horizon=1.0, steps=6, drive=drive)


def fast_term_dropped(S: np.ndarray, c: float) -> bool:
    """The eigenvalue rule the split's Cholesky test stands for: the fast term
    is kept where log_margin + h·μ >= 0, with c = -log_margin/h, so dropped
    where μ, the largest eigenvalue of S, is below c."""
    return bool(np.linalg.eigvalsh(S)[-1] < c)


@pytest.mark.parametrize("n", [1, 2, 7, 24, 60])
def test_the_cholesky_test_decides_as_the_largest_eigenvalue(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        X = random_complex(rng, n, n)
        S = 0.5 * (X + X.conj().T) - rng.uniform(0, 3) * np.eye(n)
        mu, size = np.linalg.eigvalsh(S)[-1], np.linalg.norm(S, 2)
        for delta in np.geomspace(1e-3 * size, 1e3 * semigroup.EPS * size, 12):
            for c in (mu + delta, mu - delta):
                assert semigroup._spectrum_below(S, c) is fast_term_dropped(S, c)


@pytest.mark.parametrize("name", ["cavity-d16", "lambda-d12", "two_level"])
def test_the_split_drops_the_fast_term_as_the_eigenvalue_rule(name, monkeypatch):
    # cavity drops its fast term at k = 1e4; lambda's fast block has a positive
    # numerical abscissa, so it keeps it; every decision of a sweep agrees
    build = {**GROUND_ROW_MODELS, "two_level": lambda: catalog.two_level_atom(1.0, 1.0, 0.5)}[name]
    m = build()
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    real, decisions = semigroup._spectrum_below, []

    def checked(S, c):
        decisions.append(real(S, c))
        assert decisions[-1] is fast_term_dropped(S, c)
        return decisions[-1]

    monkeypatch.setattr(semigroup, "_spectrum_below", checked)
    drive = StepDrive([0.0, 0.5, 1.0], [[0.3] * m.channels, [-0.2] * m.channels])
    for steps in (6, 101):
        k_sweep(m, e, v, [1e3, 1e4], horizon=1.0, steps=steps)
        k_sweep(m, e, v, [1e4], horizon=1.0, steps=steps, drive=drive)
    assert decisions and set(decisions) == {name != "lambda-d12"}


def test_a_planted_slow_slow_block_falls_back_to_the_dense_path(monkeypatch):
    # P0·A·P0 = 1e-6i·P0 gives G₁ a slow-slow block far above tolerance: the
    # split refuses every step, and the sweep has the bits of the dense path
    base = catalog.default_cavity_system(n_trunc=8)
    P0m = eliminate(base).decomposition.P0.matrix
    m = ScaledModel(Y=base.Y, A=base.A + 1e-6j * P0m, B=base.B, F=base.F, G=base.G, W=base.W)
    e = eliminate(m)
    assert e.inverse_structure.residual("zero: P0·A·P0") > 1e-7
    v = default_ground_vector(e.decomposition.P0)
    splits = record_splits(monkeypatch)
    rep = k_sweep(m, e, v, [100.0], horizon=1.0, steps=6)
    assert splits and not any(taken for _, _, taken in splits)
    no_split(monkeypatch)
    dense = k_sweep(m, e, v, [100.0], horizon=1.0, steps=6)
    assert same_bits(rep.distances, dense.distances)
    assert rep.max_clamp == dense.max_clamp


def test_a_residual_the_split_would_drop_falls_back_at_k_100(monkeypatch):
    # P0·Y·P1 = 1e-11·‖Y‖ passes eliminate, but at k = 100 it stands for a term
    # of k²·1e-11 in the generator, far above the dense step's own rounding:
    # the split refuses, and the sweep has the bits of the dense path
    base = catalog.default_cavity_system(n_trunc=8)
    dec = eliminate(base).decomposition
    w = dec.P1.matrix[:, -1] / np.linalg.norm(dec.P1.matrix[:, -1])
    planted = 1e-11 * np.linalg.norm(base.Y) * np.outer(dec.V0[:, 0], w.conj())
    m = ScaledModel(Y=base.Y + planted, A=base.A, B=base.B, F=base.F, G=base.G, W=base.W)
    e = eliminate(m)
    assert e.assumptions_pass
    assert e.inverse_structure.residual("zero: P0·Y·P1") > 1e-12
    v = default_ground_vector(e.decomposition.P0)
    splits = record_splits(monkeypatch)
    rep = k_sweep(m, e, v, [100.0], horizon=1.0, steps=6)
    assert splits and not any(taken for _, _, taken in splits)
    no_split(monkeypatch)
    dense = k_sweep(m, e, v, [100.0], horizon=1.0, steps=6)
    assert same_bits(rep.distances, dense.distances)
    assert rep.max_clamp == dense.max_clamp


def test_a_stiff_step_at_coupling_zero_takes_the_dense_path(monkeypatch):
    # at k = 0 the generator is G₀ alone: a step long enough to be stiff has no
    # fast block to split off, and the split must not divide by k
    m = catalog.default_cavity_system(n_trunc=8)
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    splits = record_splits(monkeypatch)
    rep = k_sweep(m, e, v, [0.0], horizon=1e6, steps=3)
    assert splits and not any(taken for _, _, taken in splits)
    no_split(monkeypatch)
    dense = k_sweep(m, e, v, [0.0], horizon=1e6, steps=3)
    assert same_bits(rep.distances, dense.distances)


@pytest.mark.parametrize("n_trunc", [4, 8])
def test_a_fixed_point_that_does_not_converge_takes_the_dense_path(n_trunc, monkeypatch):
    # at k = 0.5 and 1 a 5000-long step is stiff, but the Riccati iteration does
    # not converge within SPLIT_MAX_ITER steps: the split gives None, and the
    # sweep has the bits of the dense path
    m = catalog.default_cavity_system(n_trunc=n_trunc)
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    fixed_points, real_fixed_point = [], semigroup._fixed_point

    def recording_fixed_point(*args):
        fixed_points.append(real_fixed_point(*args))
        return fixed_points[-1]

    monkeypatch.setattr(semigroup, "_fixed_point", recording_fixed_point)
    splits = record_splits(monkeypatch)
    rep = k_sweep(m, e, v, [0.5, 1.0], horizon=1e4, steps=3)
    assert [taken for _, _, taken in splits] == [False, False]
    assert [X is None for X in fixed_points] == [True, True]
    no_split(monkeypatch)
    dense = k_sweep(m, e, v, [0.5, 1.0], horizon=1e4, steps=3)
    assert same_bits(rep.distances, dense.distances)
    assert rep.max_clamp == dense.max_clamp
    if n_trunc == 4:
        np.testing.assert_allclose(rep.distances[1], [0.0, 1.33966611, 1.40581944], atol=1e-8)
