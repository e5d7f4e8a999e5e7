"""Tests for the worked model catalog against closed-form oracles."""

import numpy as np
import pytest

from qsde_elim import (
    InvalidParameters,
    catalog,
    check_hp_unitarity,
    check_limit_unitarity,
    check_scaling_consistency,
    decompose,
    eliminate,
    instantiate,
)
from factories import coefficient_gap, decoupled_ground_amplitude, lambda_y1inv, lambda_y1inv_block


# ---------------------------------------------------------------------------
# operator algebra


def test_pauli_oracles():
    p = catalog.pauli_ops()
    np.testing.assert_array_equal(p.sigma_z, np.diag([1.0, -1.0]))
    np.testing.assert_array_equal(p.sigma_p @ p.sigma_m, p.P_e)
    np.testing.assert_array_equal(p.sigma_m @ p.sigma_p, p.P_g)
    np.testing.assert_array_equal(p.sigma_x, p.sigma_p + p.sigma_m)
    np.testing.assert_allclose(p.sigma_x @ p.sigma_y, 1j * p.sigma_z, atol=1e-15)


def test_oscillator_oracles():
    osc = catalog.oscillator_ops(3)
    np.testing.assert_allclose(osc.number, np.diag([0.0, 1.0, 2.0]), atol=1e-15)
    # truncation pushes the commutator defect onto the top rung only
    comm = osc.b @ osc.bdag - osc.bdag @ osc.b
    top = np.zeros((3, 3))
    top[2, 2] = 1.0
    np.testing.assert_allclose(comm, np.eye(3) - 3.0 * top, atol=1e-13)
    with pytest.raises(InvalidParameters):
        catalog.oscillator_ops(1)


def test_lambda_ops_oracles():
    lam = catalog.lambda_ops()
    np.testing.assert_array_equal(lam.sigma_p_plus @ lam.sigma_m_plus, lam.P_e)
    np.testing.assert_array_equal(lam.sigma_m_plus @ lam.sigma_p_plus, lam.P_plus)
    np.testing.assert_array_equal(lam.sigma_m_minus @ lam.sigma_p_minus, lam.P_minus)
    # |+><e| |e><-| = |+><-|
    plus_minus = np.zeros((3, 3), dtype=complex)
    plus_minus[1, 2] = 1.0
    np.testing.assert_array_equal(lam.sigma_m_plus @ lam.sigma_p_minus, plus_minus)


# ---------------------------------------------------------------------------
# two-level atom


def test_two_level_fast_coefficient():
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    np.testing.assert_allclose(m.Y, np.diag([-1j - 0.5, 0.0]), atol=1e-15)
    np.testing.assert_allclose(m.B, np.zeros((2, 2)), atol=1e-15)


def test_two_level_frozen_limit_values():
    c = catalog.two_level_limit(1.0, 1.0, 0.5)
    np.testing.assert_allclose(c.K[1, 1], -0.1 + 0.2j, atol=1e-15)
    np.testing.assert_allclose(c.L[0][1, 1], -0.4 - 0.2j, atol=1e-15)
    np.testing.assert_allclose(c.S[0, 0][1, 1], 0.6 + 0.8j, atol=1e-15)
    assert c.K[0, 0] == 0.0 and c.L[0][0, 0] == 0.0


def test_two_level_undamped_decouples_from_field():
    c = catalog.two_level_limit(2.0, 0.0, 0.7)
    p = catalog.pauli_ops()
    assert np.linalg.norm(c.L) == 0.0
    np.testing.assert_allclose(c.S[0, 0], p.P_g, atol=1e-15)
    np.testing.assert_allclose(c.K, (1j * 0.49 / 2.0) * p.P_g, atol=1e-15)
    assert coefficient_gap(eliminate(catalog.two_level_atom(2.0, 0.0, 0.7)).limit, c) < 1e-12


def test_two_level_limit_requires_nonzero_fast_part():
    with pytest.raises(InvalidParameters):
        catalog.two_level_limit(0.0, 0.0, 0.5)


# ---------------------------------------------------------------------------
# alkali atom


def test_alkali_has_no_slow_drive_or_coupling():
    m = catalog.alkali_atom(1.0, 1.0, 0.2, 0.0, 0.4)
    assert np.linalg.norm(m.A) == 0.0
    assert np.linalg.norm(m.G) == 0.0


def test_alkali_zero_field_limit_is_pure_scattering():
    c = catalog.alkali_limit(1.0, 1.0, 0.0, 0.0, 0.0)
    assert np.linalg.norm(c.K) == 0.0
    assert np.linalg.norm(c.L) == 0.0
    assert np.linalg.norm(c.S) > 0.5


def test_alkali_scattering_oracle_on_resonance():
    # at delta = 0, gamma = 2/3 the prefactor gamma/(3 gamma/2) is exactly 2/3
    p = catalog.pauli_ops()
    c = catalog.alkali_limit(0.0, 2.0 / 3.0, 0.1, 0.2, 0.3)
    P_g = p.P_g
    np.testing.assert_allclose(c.S[0, 0], np.kron(P_g, (1.0 / 3.0) * np.eye(2)), atol=1e-14)
    np.testing.assert_allclose(c.S[0, 1], np.kron(P_g, -(2.0 / 3.0) * 1j * p.sigma_z), atol=1e-14)
    np.testing.assert_allclose(c.S[2, 2], np.kron(P_g, (1.0 / 3.0) * np.eye(2)), atol=1e-14)


# ---------------------------------------------------------------------------
# damped cavity


def test_cavity_zero_interaction_reflects_with_sign_flip():
    z = np.zeros((2, 2))
    c = catalog.cavity_limit(1.3, z, z, z, n_trunc=3)
    assert np.linalg.norm(c.K) == 0.0
    assert np.linalg.norm(c.L) == 0.0
    np.testing.assert_allclose(c.S[0, 0], -c.ground.matrix, atol=1e-14)
    m = catalog.cavity_system(1.3, z, z, z, n_trunc=3)
    assert coefficient_gap(eliminate(m).limit, c) < 1e-12


def test_cavity_parameter_validation():
    e00, e10, e11 = catalog.default_cavity_blocks()
    with pytest.raises(InvalidParameters):
        catalog.cavity_system(0.0, e00, e10, e11)
    with pytest.raises(InvalidParameters):
        catalog.cavity_system(1.0, e00, e10, np.array([[0.0, 1.0], [0.0, 0.0]]))
    p = catalog.pauli_ops()
    with pytest.raises(InvalidParameters):
        # ||e11|| = 0.6 >= gamma/2 = 0.5: fast sector would go singular
        catalog.cavity_system(1.0, e00, e10, 0.6 * p.sigma_z)
    with pytest.raises(InvalidParameters):
        catalog.cavity_system(1.0, np.zeros((3, 3)), e10, e11)


def test_cavity_hermiticity_check_does_not_overflow():
    # |1e300|^2 overflows a plain Frobenius norm; the check must still run
    # (RuntimeWarnings are errors in this suite) and reject the block
    zero = np.zeros((1, 1))
    with pytest.raises(InvalidParameters, match="Hermitian"):
        catalog.cavity_system(1.0, zero, zero, np.array([[1e300j]]))
    with pytest.raises(InvalidParameters, match="Hermitian"):
        catalog.cavity_system(1.0, np.array([[0.0, 1.5e308], [-1.5e308, 0.0]]), np.zeros((2, 2)),
                              np.zeros((2, 2)))
    with pytest.raises(InvalidParameters, match="gamma/2"):
        catalog.cavity_system(1.0, zero, zero, np.array([[1e300]]))


def test_default_cavity_matches_closed_form():
    e00, e10, e11 = catalog.default_cavity_blocks()
    for gamma in (1.0, 2.5):
        for n_trunc in (3, 4):
            res = eliminate(catalog.cavity_system(gamma, e00, e10, e11, n_trunc))
            closed = catalog.cavity_limit(gamma, e00, e10, e11, n_trunc)
            assert coefficient_gap(res.limit, closed) < 1e-10
            assert res.assumptions_pass


# ---------------------------------------------------------------------------
# lambda system


def test_lambda_frozen_limit_values():
    c = catalog.lambda_limit(1.0, 2.0, 0.4, 4)
    lam = catalog.lambda_ops()
    N = 4
    vac = np.zeros((N, N))
    vac[0, 0] = 1.0
    np.testing.assert_allclose(c.K, -0.02 * np.kron(lam.P_minus, vac), atol=1e-15)
    np.testing.assert_allclose(
        c.L[0], -0.2 * np.kron(lam.sigma_m_plus @ lam.sigma_p_minus, vac), atol=1e-15
    )
    expected_S = np.kron(lam.P_plus - lam.P_minus, vac)
    np.testing.assert_allclose(c.S[0, 0], expected_S, atol=1e-15)


def test_lambda_limit_unitary_at_uneven_rates():
    # gamma != 1 distinguishes a sqrt(gamma) coupling from a gamma one
    for gamma, g, alpha in ((2.0, 1.5, 0.3), (0.5, -1.0, 0.2 + 0.1j)):
        c = catalog.lambda_limit(gamma, g, alpha, 3)
        assert check_limit_unitarity(c).passed


def test_lambda_undriven_limit_is_pure_scattering():
    c = catalog.lambda_limit(1.0, 2.0, 0.0, 3)
    assert np.linalg.norm(c.K) == 0.0
    assert np.linalg.norm(c.L) == 0.0


def test_lambda_restricted_inverse_matches_blockwise_form():
    for gamma, g, N in ((1.0, 2.0, 4), (2.0, 1.5, 3)):
        m = catalog.lambda_system(gamma, g, 0.4, N)
        dec = decompose(m)
        np.testing.assert_allclose(dec.Y1inv, lambda_y1inv(gamma, g, N), atol=1e-10)


def test_lambda_parameter_validation():
    with pytest.raises(InvalidParameters):
        catalog.lambda_system(0.0, 2.0, 0.4)
    with pytest.raises(InvalidParameters):
        catalog.lambda_system(1.0, 0.0, 0.4)
    with pytest.raises(InvalidParameters):
        catalog.lambda_limit(-1.0, 2.0, 0.4)
    with pytest.raises(InvalidParameters):
        lambda_y1inv_block(1.0, 2.0, 0)


# ---------------------------------------------------------------------------
# independent amplitude oracle


def test_decoupled_ground_amplitude_trivial_cases():
    assert decoupled_ground_amplitude(1.0, 0.0, 3.0, 2.0) == pytest.approx(1.0)
    assert decoupled_ground_amplitude(1.0, 0.5, 0.0, 2.0) == pytest.approx(1.0)


def test_decoupled_ground_amplitude_is_unitary_matrix_element():
    amp = decoupled_ground_amplitude(1.0, 0.5, 3.0, 1.0)
    assert abs(amp) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# the whole catalog on a parameter grid


def catalog_grid():
    """One model per grid point, at least three values per parameter."""
    models = []
    for delta in (-1.0, 0.0, 2.0):
        for gamma in (0.5, 1.0, 3.0):
            for alpha in (0.0, 0.5, -0.3 + 0.8j):
                models.append(catalog.two_level_atom(delta, gamma, alpha))
    base = (1.0, 1.0, 0.2, -0.1, 0.4)
    for slot in range(5):
        for value in (-0.7, 0.3, 1.1):
            args = list(base)
            args[slot] = value
            if slot == 1 and value <= 0:
                continue
            models.append(catalog.alkali_atom(*args))
    e00, e10, e11 = catalog.default_cavity_blocks()
    for gamma in (1.0, 2.0, 4.0):
        for n_trunc in (3, 4, 5):
            models.append(catalog.cavity_system(gamma, e00, e10, e11, n_trunc))
    for gamma in (0.5, 1.0, 2.0):
        for g in (-1.5, 1.0, 2.0):
            for alpha in (0.0, 0.4, 0.2 - 0.6j):
                models.append(catalog.lambda_system(gamma, g, alpha, 3))
    return models


def test_catalog_grid_satisfies_every_check():
    for m in catalog_grid():
        assert check_scaling_consistency(m).passed
        assert check_hp_unitarity(instantiate(m, 1.9)).passed
        res = eliminate(m)
        assert res.assumptions_pass
        assert res.limit_unitarity.passed


def test_catalog_grid_matches_closed_forms():
    for delta in (-1.0, 0.0, 2.0):
        for gamma in (0.5, 1.0, 3.0):
            for alpha in (0.0, 0.5, -0.3 + 0.8j):
                res = eliminate(catalog.two_level_atom(delta, gamma, alpha))
                closed = catalog.two_level_limit(delta, gamma, alpha)
                assert coefficient_gap(res.limit, closed) < 1e-10
    for bz in (-0.7, 0.3, 1.1):
        res = eliminate(catalog.alkali_atom(1.0, 1.0, 0.2, -0.1, bz))
        closed = catalog.alkali_limit(1.0, 1.0, 0.2, -0.1, bz)
        assert coefficient_gap(res.limit, closed) < 1e-10
    for gamma in (0.5, 1.0, 2.0):
        for g in (-1.5, 1.0, 2.0):
            for alpha in (0.0, 0.4, 0.2 - 0.6j):
                res = eliminate(catalog.lambda_system(gamma, g, alpha, 3))
                closed = catalog.lambda_limit(gamma, g, alpha, 3)
                assert coefficient_gap(res.limit, closed) < 1e-10
