"""Tests for scaled-model containers, instantiation, and the algebraic checks."""

import numpy as np
import pytest

from qsde_elim import (
    CheckReport,
    CoefficientSet,
    DimensionMismatch,
    InvalidArgument,
    InvalidOperator,
    InvalidProjector,
    Projector,
    ScaledModel,
    catalog,
    check_hp_unitarity,
    check_limit_unitarity,
    check_scaling_consistency,
    instantiate,
    norm_scale,
)
from factories import random_valid_model


def scalar_model():
    # single fast level, one channel: Y = -1/2, F = 1, everything else zero
    return ScaledModel(
        Y=[[-0.5]],
        A=[[0.0]],
        B=[[0.0]],
        F=[[[1.0]]],
        G=[[[0.0]]],
        W=[[[[1.0]]]],
    )


def test_instantiate_scalar_oracle():
    c = instantiate(scalar_model(), 3.0)
    np.testing.assert_allclose(c.K, [[-4.5]], atol=1e-15)
    np.testing.assert_allclose(c.L[0], [[3.0]], atol=1e-15)
    np.testing.assert_allclose(c.S[0, 0], [[1.0]], atol=1e-15)
    assert c.ground is None


def test_instantiate_two_level_oracle():
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    c = instantiate(m, 2.0)
    expected_K = np.array([[-2.0 - 4.0j, -1.0j], [-1.0j, 0.0]])
    np.testing.assert_allclose(c.K, expected_K, atol=1e-12)
    np.testing.assert_allclose(c.L[0], [[0.0, 0.0], [2.0, 0.0]], atol=1e-12)


def test_instantiate_at_zero_coupling_keeps_slow_part():
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    c = instantiate(m, 0.0)
    np.testing.assert_allclose(c.K, m.B, atol=1e-15)
    np.testing.assert_allclose(c.L, m.G, atol=1e-15)


def test_instantiate_rejects_negative_coupling():
    with pytest.raises(ValueError):
        instantiate(scalar_model(), -1.0)


def test_hp_unitarity_violation_residual_oracle():
    # K = 0 with L = sigma_m leaves drift residual ||sigma_p sigma_m|| = 1
    p = catalog.pauli_ops()
    c = CoefficientSet(K=np.zeros((2, 2)), L=[p.sigma_m], S=[[np.eye(2)]])
    rep = check_hp_unitarity(c)
    assert not rep.passed
    assert rep.residual("K+K† = -ΣL†L") == pytest.approx(1.0, abs=1e-12)
    assert rep.residual("Σ S·S† = δ·I") == pytest.approx(0.0, abs=1e-12)


def test_hp_unitarity_catalog_instantiations_pass():
    models = [
        catalog.two_level_atom(1.0, 1.0, 0.5),
        catalog.alkali_atom(1.0, 1.0, 0.2, 0.0, 0.4),
        catalog.lambda_system(1.0, 2.0, 0.4, 3),
    ]
    for m in models:
        for k in (0.0, 1.0, 1.9, 25.0):
            rep = check_hp_unitarity(instantiate(m, k))
            assert rep.passed, (k, rep.residuals)


def test_hp_unitarity_rejects_limit_sets():
    c = catalog.two_level_limit(1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        check_hp_unitarity(c)


def test_limit_unitarity_requires_ground_projector():
    c = instantiate(scalar_model(), 1.0)
    with pytest.raises(InvalidProjector):
        check_limit_unitarity(c)


def test_limit_unitarity_closed_form_two_level():
    rep = check_limit_unitarity(catalog.two_level_limit(1.0, 1.0, 0.5))
    assert rep.passed
    assert rep.max_residual < 1e-12


def test_scaling_consistency_catalog_passes():
    for m in (
        catalog.two_level_atom(0.7, 1.3, 0.2 - 0.4j),
        catalog.alkali_atom(1.0, 0.8, 0.1, 0.2, 0.3),
        catalog.default_cavity_system(),
        catalog.lambda_system(1.0, 2.0, 0.4, 4),
    ):
        rep = check_scaling_consistency(m)
        assert rep.passed, rep.residuals


def test_scaling_consistency_flags_perturbed_drive():
    p = catalog.pauli_ops()
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    bad = ScaledModel(Y=m.Y, A=m.A + 0.1 * p.P_g, B=m.B, F=m.F, G=m.G, W=m.W)
    rep = check_scaling_consistency(bad)
    assert not rep.passed
    # A + A† picks up 0.2 P_g and the cross term is unchanged
    assert rep.residual("A+A† = -Σ(F†G+G†F)") == pytest.approx(0.2, abs=1e-12)
    assert rep.residual("Y+Y† = -ΣF†F") == pytest.approx(0.0, abs=1e-12)
    assert rep.residual("B+B† = -ΣG†G") == pytest.approx(0.0, abs=1e-12)


def test_scaling_violation_propagates_to_every_coupling():
    # a defect in B shifts the instantiated drift residual by the same amount at any k
    p = catalog.pauli_ops()
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    bad = ScaledModel(Y=m.Y, A=m.A, B=m.B + 0.1 * p.P_e, F=m.F, G=m.G, W=m.W)
    assert check_scaling_consistency(bad).residual("B+B† = -ΣG†G") == pytest.approx(0.2, abs=1e-12)
    for k in (0.0, 1.0, 5.0):
        rep = check_hp_unitarity(instantiate(bad, k))
        assert rep.residual("K+K† = -ΣL†L") == pytest.approx(0.2, abs=1e-10)


def test_scaling_consistency_random_models():
    rng = np.random.default_rng(42)
    for _ in range(10):
        m = random_valid_model(rng)
        assert check_scaling_consistency(m).passed
        assert check_hp_unitarity(instantiate(m, 1.7)).passed


def test_check_report_logic():
    rep = CheckReport.from_residuals([("a", 1e-12), ("b", 4e-9)], 1e-9)
    assert not rep.passed
    assert rep.max_residual == pytest.approx(4e-9)
    assert rep.residual("a") == pytest.approx(1e-12)
    with pytest.raises(KeyError):
        rep.residual("c")
    # boundary: residual equal to the tolerance still passes
    assert CheckReport.from_residuals([("a", 1e-9)], 1e-9).passed
    # a non-finite tolerance certifies nothing
    for tol in (np.inf, np.nan):
        assert not CheckReport.from_residuals([("a", 0.0)], tol).passed
        assert not CheckReport.from_residuals([("a", np.inf)], tol).passed


def test_scaled_model_validation_errors():
    ok = scalar_model()
    with pytest.raises(DimensionMismatch):
        ScaledModel(Y=ok.Y, A=np.zeros((2, 2)), B=ok.B, F=ok.F, G=ok.G, W=ok.W)
    with pytest.raises(DimensionMismatch):
        ScaledModel(Y=ok.Y, A=ok.A, B=ok.B, F=ok.F, G=np.zeros((2, 1, 1)), W=ok.W)
    with pytest.raises(DimensionMismatch):
        ScaledModel(Y=ok.Y, A=ok.A, B=ok.B, F=ok.F, G=ok.G, W=np.zeros((2, 2, 1, 1)))
    with pytest.raises(InvalidOperator):
        ScaledModel(Y=[[np.inf]], A=ok.A, B=ok.B, F=ok.F, G=ok.G, W=ok.W)


def test_zero_channels_or_dimension_rejected():
    # the rule the CLI applies to explicit models holds for the classes too;
    # the channel-block reshapes and the norm scale need n >= 1 and d >= 1
    none = np.zeros((0, 0))
    with pytest.raises(DimensionMismatch, match="dim and channels must be positive"):
        ScaledModel(Y=np.eye(2), A=np.eye(2), B=np.eye(2), F=np.zeros((0, 2, 2)),
                    G=np.zeros((0, 2, 2)), W=np.zeros((0, 0, 2, 2)))
    with pytest.raises(DimensionMismatch, match="dim and channels must be positive"):
        ScaledModel(Y=none, A=none, B=none, F=np.zeros((1, 0, 0)),
                    G=np.zeros((1, 0, 0)), W=np.zeros((1, 1, 0, 0)))
    with pytest.raises(DimensionMismatch, match="dim and channels must be positive"):
        CoefficientSet(K=np.eye(2), L=np.zeros((0, 2, 2)), S=np.zeros((0, 0, 2, 2)))
    with pytest.raises(DimensionMismatch, match="dim and channels must be positive"):
        CoefficientSet(K=none, L=np.zeros((1, 0, 0)), S=np.zeros((1, 1, 0, 0)))


def test_coefficient_set_validation_errors():
    with pytest.raises(DimensionMismatch):
        CoefficientSet(K=np.eye(2), L=np.zeros((1, 2, 2)), S=np.zeros((2, 2, 2, 2)))
    with pytest.raises(DimensionMismatch):
        CoefficientSet(
            K=np.eye(2),
            L=np.zeros((1, 2, 2)),
            S=np.zeros((1, 1, 2, 2)),
            ground=Projector(np.eye(3), 3),
        )


def test_norm_scale():
    assert norm_scale(np.zeros((2, 2))) == 1.0
    assert norm_scale(3.0 * np.eye(2)) == pytest.approx(3.0 * np.sqrt(2.0))
    stack = np.stack([np.eye(2), 5.0 * np.eye(2)])
    assert norm_scale(np.zeros((2, 2)), stack) == pytest.approx(5.0 * np.sqrt(2.0))


@pytest.mark.parametrize("k", [1e160, 1e200, float("inf")])
def test_instantiate_names_a_coupling_that_overflows(k):
    # k²·Y overflows float64; the coupling is the bad argument, not K
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    with pytest.raises(InvalidArgument, match=r"coupling k = (1e\+\d+|inf) overflows"):
        instantiate(m, k)
