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
    Projector,
    ScaledModel,
    StepDrive,
    build_generators,
    catalog,
    coherent_distance,
    default_ground_vector,
    displace_limit,
    displace_scaled,
    eliminate,
    evolve,
    generator_convergence_check,
    instantiate,
    k_sweep,
    kurtz_corrector,
    pair_generator,
    unvec,
    vacuum_distance,
    vec,
)
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
# generators and evolve


def test_slow_only_skew_equals_limit():
    rng = np.random.default_rng(2)
    m = slow_only_model(rng)
    e = eliminate(m)
    for k in (0.0, 1.0, 13.0):
        pair = build_generators(m, e, k)
        np.testing.assert_allclose(pair.skew, pair.limit, atol=1e-12)
        assert pair.dim == 3


def test_limit_generator_kills_ground_projector(two_level):
    m, e, _ = two_level
    pair = build_generators(m, e, 3.0)
    P0m = e.decomposition.P0.matrix
    from qsde_elim import unvec, vec

    np.testing.assert_allclose(unvec(pair.limit @ vec(P0m)), np.zeros((2, 2)), atol=1e-12)
    # and P0 stays fixed under the limit semigroup out to long times
    np.testing.assert_allclose(evolve(pair.limit, P0m, 10.0), P0m, atol=1e-10)


def test_scalar_balanced_coefficients_have_zero_generator():
    c = CoefficientSet(K=[[-0.5]], L=[[[1.0]]], S=[[[[1.0]]]])
    gen = pair_generator(c, c)
    np.testing.assert_array_equal(gen, [[0.0]])
    np.testing.assert_allclose(evolve(gen, [[1.0]], 5.0), [[1.0]], atol=1e-15)


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
        terms = _sandwich_terms(left.K, left.L, right.K, right.L)
        np.testing.assert_allclose(
            unvec(pair_generator(left, right) @ vec(X)), _apply_terms(terms, X), atol=1e-12
        )
        terms = _sandwich_terms(None, left.L, right.K, right.L)
        np.testing.assert_allclose(
            unvec(_superoperator(terms, d) @ vec(X)), _apply_terms(terms, X), atol=1e-12
        )


def test_pair_generator_dimension_check():
    a = CoefficientSet(K=np.eye(2), L=np.zeros((1, 2, 2)), S=np.zeros((1, 1, 2, 2)))
    b = CoefficientSet(K=np.eye(3), L=np.zeros((1, 3, 3)), S=np.zeros((1, 1, 3, 3)))
    with pytest.raises(DimensionMismatch):
        pair_generator(a, b)


def test_build_generators_rejects_negative_coupling(two_level):
    m, e, _ = two_level
    with pytest.raises(ValueError):
        build_generators(m, e, -2.0)


def test_evolve_edge_cases(two_level):
    m, e, _ = two_level
    gen = build_generators(m, e, 1.0).skew
    X = np.array([[0.2, 0.0], [0.1, 0.7]])
    np.testing.assert_array_equal(evolve(gen, X, 0.0), X)
    with pytest.raises(ValueError):
        evolve(gen, X, -1.0)
    with pytest.raises(DimensionMismatch):
        evolve(gen, np.eye(3), 1.0)


def test_evolve_semigroup_law(two_level):
    m, e, _ = two_level
    gen = build_generators(m, e, 4.0).skew
    P0m = e.decomposition.P0.matrix
    via_steps = evolve(gen, evolve(gen, P0m, 0.3), 0.45)
    np.testing.assert_allclose(via_steps, evolve(gen, P0m, 0.75), atol=1e-10)


def test_limit_semigroup_preserves_hermiticity():
    lam = catalog.lambda_system(1.0, 2.0, 0.4, 3)
    e = eliminate(lam)
    gen = build_generators(lam, e, 1.0).limit
    rng = np.random.default_rng(4)
    H = rng.normal(size=(9, 9))
    H = H + H.T
    P0m = e.decomposition.P0.matrix
    X = P0m @ H @ P0m
    for t in (0.2, 1.0, 3.0):
        T = evolve(gen, X, t)
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
            gen = build_generators(m, e, k).skew
            for t in (0.1, 0.5, 2.0):
                for _ in range(3):
                    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                    X /= np.linalg.norm(X, 2)
                    assert np.linalg.norm(evolve(gen, X, t), 2) <= 1.0 + 1e-8


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
        vacuum_distance(m, e, 1.0, [0.0, 0.5], [0.0, 1.0])
    with pytest.raises(InvalidGroundVector):
        vacuum_distance(m, e, 1.0, [1.0, 0.0], [0.0, 1.0])
    with pytest.raises(DimensionMismatch):
        vacuum_distance(m, e, 1.0, [0.0, 1.0, 0.0], [0.0, 1.0])


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
    m, e, v = two_level
    d = vacuum_distance(m, e, 7.0, v, [0.0])
    assert d.shape == (1,)
    assert d[0] == pytest.approx(0.0, abs=1e-12)


def test_vacuum_distance_grid_validation(two_level):
    m, e, v = two_level
    with pytest.raises(ValueError):
        vacuum_distance(m, e, 1.0, v, [])
    with pytest.raises(ValueError):
        vacuum_distance(m, e, 1.0, v, [0.5, 0.2])
    with pytest.raises(ValueError):
        vacuum_distance(m, e, 1.0, v, [-0.1, 0.2])


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
    d = vacuum_distance(m, e, 9.0, v, np.linspace(0.0, 2.0, 21))
    assert np.max(d) < 1e-7


def test_k_sweep_matches_pointwise_vacuum_distance(two_level):
    m, e, v = two_level
    ks = [2.0, 20.0]
    rep = k_sweep(m, e, v, ks, horizon=0.8, steps=9)
    assert rep.distances.shape == (2, 9)
    np.testing.assert_allclose(rep.t_grid, np.linspace(0.0, 0.8, 9), atol=1e-15)
    for i, k in enumerate(ks):
        np.testing.assert_allclose(
            rep.distances[i], vacuum_distance(m, e, k, v, rep.t_grid), atol=1e-10
        )
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
    drive = StepDrive(breakpoints=[0.0, 0.5, 2.0], amplitudes=[[0.1], [0.2j]])
    assert drive.segments == 2
    assert drive.horizon == 2.0


def test_zero_drive_matches_vacuum(two_level):
    m, e, v = two_level
    drive = StepDrive(breakpoints=[0.0, 1.0], amplitudes=[[0.0]])
    for k in (1.0, 30.0):
        for t in (0.3, 1.0):
            c = coherent_distance(m, e, k, v, drive, t)
            vd = vacuum_distance(m, e, k, v, [t])[0]
            assert c == pytest.approx(vd, abs=1e-10)


def test_splitting_a_constant_drive_changes_nothing(two_level):
    m, e, v = two_level
    one = StepDrive(breakpoints=[0.0, 1.0], amplitudes=[[0.25]])
    three = StepDrive(breakpoints=[0.0, 0.3, 0.7, 1.0], amplitudes=[[0.25]] * 3)
    for t in (0.3, 0.55, 1.0):
        a = coherent_distance(m, e, 7.0, v, one, t)
        b = coherent_distance(m, e, 7.0, v, three, t)
        assert a == pytest.approx(b, abs=1e-10)


def test_coherent_distance_frozen_value(two_level):
    m, e, v = two_level
    drive = StepDrive(breakpoints=[0.0, 1.0], amplitudes=[[0.25]])
    assert coherent_distance(m, e, 50.0, v, drive, 1.0) == pytest.approx(
        0.014997766, abs=1e-7
    )
    assert coherent_distance(m, e, 50.0, v, drive, 1.0) < 0.1


def test_coherent_distance_outside_window_raises(two_level):
    m, e, v = two_level
    drive = StepDrive(breakpoints=[0.0, 1.0], amplitudes=[[0.25]])
    with pytest.raises(InvalidArgument):
        coherent_distance(m, e, 5.0, v, drive, 1.5)


def test_driven_sweep_frozen_values(two_level):
    m, e, v = two_level
    drive = StepDrive(breakpoints=[0.0, 0.5, 1.0], amplitudes=[[0.3], [-0.2]])
    rep = k_sweep(m, e, v, [5.0, 100.0], horizon=1.0, steps=101, drive=drive)
    np.testing.assert_allclose(rep.sup_distance, [0.176480436, 0.008762663], atol=1e-8)
    assert rep.max_clamp == 0.0


def test_driven_sweep_matches_pointwise_coherent_distance(two_level):
    # the sweep steps along the grid; coherent_distance jumps from each
    # segment start in one step.  The 0.73 breakpoint lies off the grid and
    # 0.5 on it, so this covers stepping, segment switches and the order in
    # which the segments compose.
    m, e, v = two_level
    drive = StepDrive(breakpoints=[0.0, 0.5, 0.73, 1.0], amplitudes=[[0.3], [-0.2j], [0.1]])
    rep = k_sweep(m, e, v, [2.0, 20.0], horizon=1.0, steps=11, drive=drive)
    for i, k in enumerate(rep.ks):
        pointwise = [coherent_distance(m, e, k, v, drive, t) for t in rep.t_grid]
        np.testing.assert_allclose(rep.distances[i], pointwise, atol=1e-10)
    # composed by hand at t = 0.8, in the third segment: earliest outermost
    g1, g2, g3 = (
        pair_generator(displace_limit(e.limit, a), instantiate(displace_scaled(m, a), 20.0))
        for a in drive.amplitudes
    )
    t = rep.t_grid[8]
    T = evolve(g1, evolve(g2, evolve(g3, e.decomposition.P0.matrix, t - 0.73), 0.23), 0.5)
    expected = np.sqrt(np.vdot(v, (2.0 * np.eye(2) - T - T.conj().T) @ v).real)
    assert rep.distances[1, 8] == pytest.approx(expected, abs=1e-10)


def test_driven_sweep_requires_covering_window(two_level):
    m, e, v = two_level
    drive = StepDrive(breakpoints=[0.0, 0.5], amplitudes=[[0.3]])
    with pytest.raises(InvalidArgument):
        k_sweep(m, e, v, [5.0], horizon=1.0, steps=11, drive=drive)


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
