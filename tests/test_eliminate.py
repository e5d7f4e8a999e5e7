"""Tests for the ground/excited decomposition, the limit formulas, the
structural checks, and Weyl displacement."""

import numpy as np
import pytest

from qsde_elim import (
    CoefficientSet,
    Decomposition,
    DimensionMismatch,
    InvalidOperator,
    Projector,
    ScaledModel,
    catalog,
    check_ground_support,
    check_hp_unitarity,
    check_inverse_structure,
    check_limit_unitarity,
    check_scaling_consistency,
    decompose,
    displace_limit,
    displace_scaled,
    eliminate,
    instantiate,
)
from qsde_elim.eliminate import as_amplitude
from factories import coefficient_gap, model_gap, random_valid_model


def test_decompose_two_level_oracle():
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    dec = decompose(m)
    p = catalog.pauli_ops()
    assert dec.P0.rank == 1
    np.testing.assert_allclose(dec.P0.matrix, p.P_g, atol=1e-12)
    np.testing.assert_allclose(dec.P1.matrix, p.P_e, atol=1e-12)
    # Y restricted to |e><e| is -i - 1/2, whose inverse is -0.4 + 0.8i
    np.testing.assert_allclose(dec.Y1inv, np.diag([-0.4 + 0.8j, 0.0]), atol=1e-12)
    assert dec.warnings == []


def test_vanishing_fast_part_is_idempotent():
    # Y = 0, F = 0: nothing to eliminate, the limit returns the slow data as-is
    rng = np.random.default_rng(1)
    d = 3
    G = rng.normal(size=(1, d, d)) + 1j * rng.normal(size=(1, d, d))
    H = rng.normal(size=(d, d))
    H = H + H.T
    B = -0.5 * np.einsum("iba,ibc->ac", G.conj(), G) + 1j * H
    from factories import haar_unitary

    W = haar_unitary(rng, d)[None, None]
    m = ScaledModel(Y=np.zeros((d, d)), A=np.zeros((d, d)), B=B, F=np.zeros((1, d, d)), G=G, W=W)
    assert check_scaling_consistency(m).passed
    res = eliminate(m)
    assert res.decomposition.P0.rank == d
    np.testing.assert_allclose(res.limit.K, B, atol=1e-12)
    np.testing.assert_allclose(res.limit.L, G, atol=1e-12)
    np.testing.assert_allclose(res.limit.S, W, atol=1e-12)
    assert res.assumptions_pass
    assert res.limit_unitarity.passed


def test_trivial_kernel_flags_empty_limit():
    m = ScaledModel(
        Y=[[-0.5]], A=[[0.0]], B=[[0.0]], F=[[[1.0]]], G=[[[0.0]]], W=[[[[1.0]]]]
    )
    res = eliminate(m)
    assert res.decomposition.P0.rank == 0
    assert any("empty" in w for w in res.warnings)
    assert np.linalg.norm(res.limit.K) == 0.0
    assert np.linalg.norm(res.limit.L) == 0.0
    assert np.linalg.norm(res.limit.S) == 0.0
    assert res.assumptions_pass


def test_borderline_spectrum_warns():
    Y = np.diag([0.0, -1.0, -5e-9])
    m = ScaledModel(
        Y=Y,
        A=np.zeros((3, 3)),
        B=np.zeros((3, 3)),
        F=np.zeros((1, 3, 3)),
        G=np.zeros((1, 3, 3)),
        W=np.eye(3)[None, None],
    )
    dec = decompose(m)
    assert dec.P0.rank == 1
    assert any("ill-conditioned" in w for w in dec.warnings)


def test_y1inv_override_used_and_validated():
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    dec = decompose(m, y1inv_override=np.diag([-0.4 + 0.8j, 0.0]))
    res = eliminate(m, y1inv_override=np.diag([-0.4 + 0.8j, 0.0]))
    assert res.assumptions_pass
    np.testing.assert_allclose(dec.Y1inv, np.diag([-0.4 + 0.8j, 0.0]))
    with pytest.raises(DimensionMismatch):
        decompose(m, y1inv_override=np.eye(3))
    # a wrong override is not trusted: the structural checks reject it
    bad = eliminate(m, y1inv_override=np.diag([1.0 + 0.0j, 0.0]))
    assert not bad.inverse_structure.passed


def test_two_level_limit_matches_closed_form():
    res = eliminate(catalog.two_level_atom(1.0, 1.0, 0.5))
    closed = catalog.two_level_limit(1.0, 1.0, 0.5)
    assert coefficient_gap(res.limit, closed) < 1e-12
    np.testing.assert_allclose(res.limit.K[1, 1], -0.1 + 0.2j, atol=1e-12)
    np.testing.assert_allclose(res.limit.L[0][1, 1], -0.4 - 0.2j, atol=1e-12)
    np.testing.assert_allclose(res.limit.S[0, 0][1, 1], 0.6 + 0.8j, atol=1e-12)
    assert res.assumptions_pass and res.limit_unitarity.passed


def test_inverse_structure_flags_coupling_into_ground():
    # sigma_x couples the ground state directly to the fast sector: F P0 != 0
    p = catalog.pauli_ops()
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    bad = ScaledModel(Y=m.Y, A=m.A, B=m.B, F=[p.sigma_x], G=m.G, W=m.W)
    dec = decompose(bad)
    rep = check_inverse_structure(bad, dec)
    assert not rep.passed
    assert rep.residual("zero: F_0·P0") == pytest.approx(1.0, abs=1e-12)


def test_inverse_structure_flags_ground_block_of_drive():
    p = catalog.pauli_ops()
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    bad = ScaledModel(Y=m.Y, A=m.A + 0.1 * p.P_g, B=m.B, F=m.F, G=m.G, W=m.W)
    rep = check_inverse_structure(bad, decompose(bad))
    assert not rep.passed
    assert rep.residual("zero: P0·A·P0") == pytest.approx(0.1, abs=1e-12)


def test_eliminate_reports_failure_but_still_evaluates_formulas():
    p = catalog.pauli_ops()
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    bad = ScaledModel(Y=m.Y, A=m.A, B=m.B, F=[p.sigma_x], G=m.G, W=m.W)
    res = eliminate(bad)
    assert not res.assumptions_pass
    dec = res.decomposition
    expected_K = dec.P0.matrix @ (bad.B - bad.A @ dec.Y1inv @ bad.A) @ dec.P0.matrix
    np.testing.assert_allclose(res.limit.K, expected_K, atol=1e-12)


def test_catalog_models_satisfy_assumptions():
    for m in (
        catalog.two_level_atom(1.0, 1.0, 0.5),
        catalog.alkali_atom(1.0, 1.0, 0.2, 0.0, 0.4),
        catalog.default_cavity_system(),
        catalog.lambda_system(1.0, 2.0, 0.4, 4),
    ):
        res = eliminate(m)
        assert res.assumptions_pass, res.inverse_structure.residuals
        assert res.limit_unitarity.passed


def test_random_models_satisfy_assumptions():
    rng = np.random.default_rng(9)
    for _ in range(10):
        res = eliminate(random_valid_model(rng))
        assert res.assumptions_pass
        assert res.limit_unitarity.passed


def test_ground_support_check_direct():
    res = eliminate(catalog.two_level_atom(1.0, 1.0, 0.5))
    rep = check_ground_support(res.limit, res.decomposition.P1)
    assert rep.passed
    # an L with excited support is caught
    p = catalog.pauli_ops()
    leaky = CoefficientSet(K=res.limit.K, L=[p.sigma_p], S=res.limit.S, ground=res.limit.ground)
    rep = check_ground_support(leaky, res.decomposition.P1)
    assert not rep.passed
    assert rep.residual("ground: P1·L_0") == pytest.approx(1.0, abs=1e-12)


def test_decomposition_dimension_check():
    with pytest.raises(DimensionMismatch):
        Decomposition(
            P0=Projector(np.eye(2), 2), P1=Projector(np.zeros((2, 2)), 0), Y1inv=np.eye(3)
        )


def test_as_amplitude_errors():
    with pytest.raises(DimensionMismatch):
        as_amplitude([1.0, 2.0], 3)
    with pytest.raises(InvalidOperator):
        as_amplitude([np.nan], 1)


def test_displacement_zero_amplitude_is_identity():
    m = catalog.lambda_system(1.0, 2.0, 0.4, 3)
    assert model_gap(displace_scaled(m, [0.0]), m) == 0.0
    c = catalog.two_level_limit(1.0, 1.0, 0.5)
    assert coefficient_gap(displace_limit(c, [0.0]), c) == 0.0


def test_displaced_two_level_is_a_shifted_drive():
    # with W = I and G = 0, a field displacement only re-tunes the drive:
    # alpha -> alpha - i a sqrt(gamma)
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    a = 0.3 - 0.2j
    shifted = catalog.two_level_atom(1.0, 1.0, 0.5 - 1j * a)
    assert model_gap(displace_scaled(m, [a]), shifted) < 1e-12


def test_displacing_decoupled_channels_is_inert():
    # alkali: W = I, G = 0, so B and G stay put and only A picks up the drive
    m = catalog.alkali_atom(1.0, 1.0, 0.2, 0.0, 0.4)
    disp = displace_scaled(m, [0.1, -0.2j, 0.3])
    np.testing.assert_allclose(disp.B, m.B, atol=1e-14)
    np.testing.assert_allclose(disp.G, m.G, atol=1e-14)
    assert np.linalg.norm(disp.A - m.A) > 0.1


def test_displaced_models_remain_consistent():
    rng = np.random.default_rng(17)
    models = [
        catalog.two_level_atom(1.0, 1.0, 0.5),
        catalog.lambda_system(1.0, 2.0, 0.4, 3),
        random_valid_model(rng),
        random_valid_model(rng, d0=1, d1=2, channels=3),
    ]
    for m in models:
        for _ in range(3):
            a = rng.normal(size=m.channels) + 1j * rng.normal(size=m.channels)
            disp = displace_scaled(m, a)
            assert check_scaling_consistency(disp).passed
            assert check_hp_unitarity(instantiate(disp, 1.3)).passed
            lim = eliminate(m).limit
            assert check_limit_unitarity(displace_limit(lim, a)).passed
            inst = displace_limit(instantiate(m, 2.1), a)
            assert check_hp_unitarity(inst).passed


def test_elimination_commutes_with_displacement():
    rng = np.random.default_rng(23)
    models = [
        catalog.two_level_atom(1.0, 1.0, 0.5),
        catalog.alkali_atom(1.0, 1.0, 0.2, 0.0, 0.4),
        catalog.lambda_system(1.0, 2.0, 0.4, 3),
        random_valid_model(rng),
    ]
    for m in models:
        a = rng.normal(size=m.channels) + 1j * rng.normal(size=m.channels)
        route_a = eliminate(displace_scaled(m, a)).limit
        route_b = displace_limit(eliminate(m).limit, a)
        assert coefficient_gap(route_a, route_b) < 1e-10


def test_displacement_commutes_with_instantiation():
    rng = np.random.default_rng(29)
    m = random_valid_model(rng)
    a = rng.normal(size=m.channels) + 1j * rng.normal(size=m.channels)
    for k in (0.0, 1.0, 3.7):
        route_a = instantiate(displace_scaled(m, a), k)
        route_b = displace_limit(instantiate(m, k), a)
        assert coefficient_gap(route_a, route_b) < 1e-12


def test_large_models_contract_channels_without_einsum(monkeypatch):
    # above the recorded-arithmetic dimension every channel contraction is a
    # BLAS product of channel-block matrices
    m = random_valid_model(np.random.default_rng(16), 4, 12, 3)

    def no_einsum(*args, **kwargs):
        raise AssertionError("einsum called on a d = 16 model")

    monkeypatch.setattr(np, "einsum", no_einsum)
    e = eliminate(m)
    assert e.assumptions_pass and e.limit_unitarity.passed
    assert check_hp_unitarity(instantiate(m, 1.0)).passed
    assert check_scaling_consistency(m).passed
    alpha = [0.3, -0.2j, 0.1 + 0.1j]
    ed = eliminate(displace_scaled(m, alpha))
    assert coefficient_gap(ed.limit, displace_limit(e.limit, alpha)) < 1e-9


@pytest.mark.parametrize("d", [16, 32])
def test_eliminate_checks_inverse_structure_on_its_own_products(d):
    # eliminate shares its product table with the check; the standalone check
    # computes the same table, so every residual has the same bits
    m = random_valid_model(np.random.default_rng(d), d // 4, d - d // 4, 3)
    e = eliminate(m)
    alone = check_inverse_structure(m, e.decomposition)
    assert e.inverse_structure.residuals == alone.residuals
    assert e.inverse_structure.tolerance == alone.tolerance
