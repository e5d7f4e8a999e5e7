"""Tests for semigroup propagation, convergence distances, and correctors."""

import numpy as np
import pytest

from qsde_elim import (
    CLAMP_ABORT,
    ClampExceeded,
    CoefficientSet,
    DimensionMismatch,
    InvalidArgument,
    InvalidGroundVector,
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
    _distance_from_transported,
    _sandwich_terms,
    _superoperator,
)
from factories import haar_unitary, random_valid_model


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


def test_ground_vector_validation(two_level):
    m, e, _ = two_level
    with pytest.raises(InvalidGroundVector):
        k_sweep(m, e, [0.0, 0.5], [1.0], steps=2)
    with pytest.raises(InvalidGroundVector):
        k_sweep(m, e, [1.0, 0.0], [1.0], steps=2)
    with pytest.raises(DimensionMismatch):
        k_sweep(m, e, [0.0, 1.0, 0.0], [1.0], steps=2)


def test_distance_form_clamps_and_aborts():
    v = np.array([1.0, 0.0], dtype=complex)
    dist, clamp = _distance_from_transported((1.0 + 1e-9) * np.eye(2, dtype=complex), v)
    assert dist == 0.0
    assert clamp == pytest.approx(2e-9, rel=1e-6)
    assert clamp < CLAMP_ABORT
    with pytest.raises(ClampExceeded):
        _distance_from_transported(3.0 * np.eye(2, dtype=complex), v)


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


def test_a_sweep_displaces_each_segment_once(two_level, monkeypatch):
    # displacement does not depend on k: three couplings of a 2-segment drive
    # displace twice, not once per coupling and segment
    m, e, v = two_level
    calls = []

    def counted(name):
        real = getattr(semigroup, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("displace_limit", "displace_scaled"):
        monkeypatch.setattr(semigroup, name, counted(name))
    drive = StepDrive(breakpoints=[0.0, 0.5, 1.0], amplitudes=[[0.3], [-0.2]])
    k_sweep(m, e, v, [5.0, 20.0, 100.0], horizon=1.0, steps=11, drive=drive)
    assert sorted(calls) == ["displace_limit"] * 2 + ["displace_scaled"] * 2


def test_driven_sweep_requires_covering_window(two_level):
    m, e, v = two_level
    drive = StepDrive(breakpoints=[0.0, 0.5], amplitudes=[[0.3]])
    with pytest.raises(InvalidArgument):
        k_sweep(m, e, v, [5.0], horizon=1.0, steps=11, drive=drive)
    # the tolerance is relative: at a 1e-12 horizon a window of half of it is short
    short = StepDrive(breakpoints=[0.0, 5e-13], amplitudes=[[0.3]])
    with pytest.raises(InvalidArgument, match="before the horizon"):
        k_sweep(m, e, v, [5.0], horizon=1e-12, steps=5, drive=short)
    # while a window short of the horizon by rounding still covers it
    k_sweep(m, e, v, [5.0], horizon=0.5 * (1.0 + 1e-13), steps=5, drive=drive)


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


def test_ground_rows_shrink_the_exponentials(monkeypatch):
    # the n_trunc 16 cavity (d = 32, ground rank 2) steps a 2 x 32 state, so
    # every exponential is 64 x 64 where the full state needs 1024 x 1024
    m = catalog.default_cavity_system(n_trunc=16)
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    shapes = record_expm_shapes(monkeypatch)
    k_sweep(m, e, v, [1e4], horizon=1.0, steps=6)
    assert shapes and set(shapes) == {(64, 64)}
    # two_level (d = 2) keeps its full 2 x 2 state and its 4 x 4 exponentials
    shapes.clear()
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    e = eliminate(m)
    k_sweep(m, e, default_ground_vector(e.decomposition.P0), [1e4], horizon=1.0, steps=6)
    assert shapes and set(shapes) == {(4, 4)}


def test_ground_rows_reach_d64(monkeypatch):
    # the n_trunc 32 cavity: d = 64, where the full superoperator would take
    # 268 MB per matrix; its 100 * sup distance is that of n_trunc 8 and 16
    m = catalog.default_cavity_system(n_trunc=32)
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    shapes = record_expm_shapes(monkeypatch)
    rep = k_sweep(m, e, v, [100.0], horizon=1.0, steps=6)
    assert set(shapes) == {(128, 128)}
    assert 100.0 * rep.sup_distance[0] == pytest.approx(0.54868, abs=5e-6)
    assert rep.max_clamp == 0.0


def fail_at_kron(*args, **kwargs):
    raise AssertionError("np.kron reached: the generator was being assembled")


def test_oversized_generator_is_refused_before_assembly(monkeypatch):
    # the dense d = 40 oracle needs 16 * 40**4 bytes = 39 MiB, over the 32 MiB budget
    assert 16 * 40**4 > semigroup.GENERATOR_BUDGET_BYTES >= 16 * 32**4
    c = CoefficientSet(K=np.zeros((40, 40)), L=np.zeros((1, 40, 40)), S=np.zeros((1, 1, 40, 40)))
    monkeypatch.setattr(np, "kron", fail_at_kron)
    with pytest.raises(ResourceLimit, match="1600 x 1600 generator needs 40,960,000 bytes"):
        dense_generator(c, c)


def test_sweep_checks_the_budget_before_assembly(monkeypatch):
    # the n_trunc 16 cavity's ground-row generator is 64 x 64: 65536 bytes
    m = catalog.default_cavity_system(n_trunc=16)
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    monkeypatch.setattr(semigroup, "GENERATOR_BUDGET_BYTES", 16 * 64 * 64 - 1)
    monkeypatch.setattr(np, "kron", fail_at_kron)
    with pytest.raises(ResourceLimit):
        k_sweep(m, e, v, [5.0], horizon=1.0, steps=6)


def fail_at_linspace(*args, **kwargs):
    raise AssertionError("np.linspace reached: the time grid was being allocated")


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
