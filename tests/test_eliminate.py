"""Tests for the ground/excited decomposition, the limit formulas, the
structural checks, and Weyl displacement."""

import importlib
import json
import sys
import threading
import warnings

import numpy as np
import pytest

from qsde_elim import (
    CheckReport,
    CoefficientSet,
    Decomposition,
    InvalidArgument,
    Projector,
    ScaledModel,
    SingularRestriction,
    catalog,
    check_ground_support,
    check_hp_unitarity,
    check_inverse_structure,
    check_scaling_consistency,
    decompose,
    displace_limit,
    displace_scaled,
    eliminate,
    instantiate,
    restricted_inverse,
)
from qsde_elim.cli import main
from qsde_elim.eliminate import _channel_sum, as_amplitude
from qsde_elim.linalg import RECORDED_ARITHMETIC_MAX_DIM, dagger
from factories import coefficient_gap, haar_unitary, model_gap, random_valid_model

elim = importlib.import_module("qsde_elim.eliminate")  # the package's name is the function
model_module = importlib.import_module("qsde_elim.model")


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
    with pytest.raises(InvalidArgument, match="y1inv_override dimension does not match"):
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
    with pytest.raises(InvalidArgument, match="P0 and Y1inv must share one dimension"):
        Decomposition(P0=Projector(np.eye(2), 2), Y1inv=np.eye(3))


def test_as_amplitude_errors():
    with pytest.raises(InvalidArgument, match="amplitude has 2 entries, model has 3 channels"):
        as_amplitude([1.0, 2.0], 3)
    with pytest.raises(InvalidArgument, match="amplitude contains non-finite entries"):
        as_amplitude([np.nan], 1)


def test_displacement_zero_amplitude_is_identity():
    # an amplitude of zeros, -0.0 included, gives back the input itself once it
    # is checked; any other amplitude displaces
    m = catalog.lambda_system(1.0, 2.0, 0.4, 3)
    c = catalog.two_level_limit(1.0, 1.0, 0.5)
    for zero in ([0.0], [-0.0j], np.zeros((1, 1))):
        assert displace_scaled(m, zero) is m
        assert displace_limit(c, zero) is c
    for displace, model in ((displace_scaled, m), (displace_limit, c)):
        with pytest.raises(InvalidArgument, match="amplitude has 2 entries, model has 1 channels"):
            displace(model, [0.0, 0.0])
        with pytest.raises(InvalidArgument, match="amplitude contains non-finite entries"):
            displace(model, [np.nan])
    moved_m, moved_c = displace_scaled(m, [1e-3]), displace_limit(c, [1e-3j])
    assert moved_m is not m and model_gap(moved_m, m) > 0.0
    assert moved_c is not c and coefficient_gap(moved_c, c) > 0.0


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
            assert check_hp_unitarity(displace_limit(lim, a)).passed
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


def test_random_models_conjugate_their_channel_grid_without_einsum(monkeypatch):
    # the Haar conjugation of the channel grid is one matmul pair per block:
    # the same draws in the same order, so the same model up to rounding
    rng = np.random.default_rng(24)
    plain = random_valid_model(rng, 8, 24, 3, rotate=False)
    V = haar_unitary(rng, 32)  # the draw that follows W when rotate is set
    expected_W = np.einsum("ab,ijbc,cd->ijad", V, plain.W, dagger(V))

    def no_einsum(*args, **kwargs):
        raise AssertionError("einsum called while building a d = 32 model")

    monkeypatch.setattr(np, "einsum", no_einsum)
    m = random_valid_model(np.random.default_rng(24), 8, 24, 3)
    np.testing.assert_array_equal(m.Y, V @ plain.Y @ dagger(V))
    assert np.linalg.norm(m.W - expected_W) <= 1e-13 * np.linalg.norm(expected_W)
    assert check_scaling_consistency(m).passed
    assert check_hp_unitarity(instantiate(m, 1.0)).passed
    assert eliminate(m).assumptions_pass


@pytest.mark.parametrize("d1", [0, -1])
def test_random_models_need_a_fast_sector(d1):
    # refused before any draw, so the seeded models of every other shape keep their bits
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(InvalidArgument, match=f"fast sector needs d1 >= 1, got d1 = {d1}"):
        random_valid_model(rng, 5, d1, 2)
    assert rng.bit_generator.state == state
    assert random_valid_model(rng, 5, 1, 2).dim == 6


@pytest.mark.parametrize("d", [16, 32])
def test_eliminate_checks_inverse_structure_on_its_own_products(d):
    # the report read from eliminate is the standalone check's, on the
    # model and split eliminate was given, so every residual has its bits
    m = random_valid_model(np.random.default_rng(d), d // 4, d - d // 4, 3)
    e = eliminate(m)
    alone = check_inverse_structure(m, e.decomposition)
    assert e.inverse_structure.residuals == alone.residuals
    assert e.inverse_structure.tolerance == alone.tolerance


# ---------------------------------------------------------------------------
# the inverse-structure check against the per-residual loop it replaced


def inverse_structure_oracle(m, dec, tol=1e-9):
    """check_inverse_structure as one chain of 2-d products on P0 and P1 and
    one np.linalg.norm per identity, each product left to right as written."""
    P0m, P1m, Yi = dec.P0.matrix, dec.P1.matrix, dec.Y1inv
    Y, A, B, F, G, W = m.Y, m.A, m.B, m.F, m.G, m.W
    n = m.channels
    fdw, gdw = _channel_sum(m.F, m.W), _channel_sum(m.G, m.W)
    AYi, FYi = A @ Yi, [f @ Yi for f in F]
    r, cells = range(n), [(i, j) for i in range(n) for j in range(n)]

    residuals = []
    for name, Z in [("A", A)] + [(f"(F†W)_{j}", fdw[j]) for j in r]:
        block = P1m @ Z @ P0m
        residuals.append((f"left: Y·Y1inv·P1·{name}·P0", np.linalg.norm(Y @ Yi @ block - block)))
    right = [("A", A), ("B", B)] + [(f"F_{i}", F[i]) for i in r] + [(f"G_{i}", G[i]) for i in r]
    right += [(f"W_{i}{j}", W[i, j]) for i, j in cells] + [(f"(G†W)_{j}", gdw[j]) for j in r]
    right += [(f"F_{i}·Y1inv·F_{j}", FYi[i] @ F[j]) for i, j in cells]
    right += [(f"F_{i}·Y1inv·A", FYi[i] @ A) for i in r]
    right += [(f"F_{i}·Y1inv·(F†W)_{j}", FYi[i] @ fdw[j]) for i, j in cells]
    right += [("A·Y1inv·A", AYi @ A)] + [(f"A·Y1inv·F_{i}", AYi @ F[i]) for i in r]
    right += [(f"A·Y1inv·(F†W)_{j}", AYi @ fdw[j]) for j in r]
    for name, X in right:
        block = P0m @ X @ P1m
        residuals.append((f"right: P0·{name}·P1·Y1inv·Y", np.linalg.norm(block @ Yi @ Y - block)))
    residuals.append(("zero: P0·Y·P1", np.linalg.norm(P0m @ Y @ P1m)))
    residuals.append(("zero: P0·A·P0", np.linalg.norm(P0m @ A @ P0m)))
    residuals += [(f"zero: F_{i}·P0", np.linalg.norm(F[i] @ P0m)) for i in r]
    residuals += [
        (f"zero: P0·((δ+F·Y1inv·F†)W)_{i}{j}·P1", np.linalg.norm(P0m @ (W[i, j] + FYi[i] @ fdw[j]) @ P1m))
        for i, j in cells
    ]
    ops = [Y, A, B, *F, *G, *W.reshape(-1, m.dim, m.dim), Yi]
    scale = max([1.0] + [float(np.linalg.norm(op)) for op in ops])
    return CheckReport.from_residuals(residuals, tol * scale)


def small_models():
    """The catalog fixtures of dimension at most 8 and random models of d = 3..8."""
    models = {
        "two_level": catalog.two_level_atom(1.0, 1.0, 0.5),
        "two_level_phase": catalog.two_level_atom(1.0, 1.0, 0.6 + 0.8j),
        "alkali": catalog.alkali_atom(1.0, 1.0, 0.2, 0.0, 0.4),
        "cavity": catalog.default_cavity_system(n_trunc=4),
        "lambda": catalog.lambda_system(1.0, 2.0, 0.4, 2),
    }
    rng = np.random.default_rng(41)
    for d in (3, 4, 6, 8):
        for n in (1, 2, 3):
            models[f"random-d{d}-n{n}"] = random_valid_model(rng, max(1, d // 3), d - max(1, d // 3), n)
    return models


SMALL_MODELS = small_models()


@pytest.mark.parametrize("name", list(SMALL_MODELS))
def test_inverse_structure_equals_the_per_residual_loop_up_to_d8(name):
    # at or below the recorded-arithmetic dimension the stacked products keep
    # every association, so names, order and values are those of the loop
    m = SMALL_MODELS[name]
    assert m.dim <= RECORDED_ARITHMETIC_MAX_DIM
    e = eliminate(m)
    oracle = inverse_structure_oracle(m, e.decomposition)
    for report in (e.inverse_structure, check_inverse_structure(m, e.decomposition)):
        assert report.residuals == oracle.residuals
        assert report.tolerance == oracle.tolerance
        assert report.passed == oracle.passed
    assert len(oracle.residuals) == 6 + 8 * m.channels + 4 * m.channels**2


def large_model(d, n, seed):
    return random_valid_model(np.random.default_rng(seed), d // 4, d - d // 4, n)


def assert_close_to_oracle(report, oracle):
    scale = oracle.tolerance / 1e-9
    assert [name for name, _ in report.residuals] == [name for name, _ in oracle.residuals]
    gaps = [abs(a - b) for (_, a), (_, b) in zip(report.residuals, oracle.residuals)]
    assert max(gaps) <= 1e-13 * scale
    assert report.tolerance == pytest.approx(oracle.tolerance, rel=1e-14)
    assert report.passed == oracle.passed


@pytest.mark.parametrize("d", [12, 16, 32])
@pytest.mark.parametrize("n", [1, 3])
def test_inverse_structure_on_the_ground_basis_above_d8(d, n):
    # above it, the residuals are norms of V0† rows and V0 columns, which
    # agree with the P0 products to rounding
    m = large_model(d, n, seed=d + n)
    e = eliminate(m)
    oracle = inverse_structure_oracle(m, e.decomposition)
    assert oracle.passed
    assert_close_to_oracle(e.inverse_structure, oracle)
    assert_close_to_oracle(check_inverse_structure(m, e.decomposition), oracle)


def planted_violation(plant, m, dec):
    """A model and decomposition that break identities by about 1e-3."""
    rng = np.random.default_rng(7)
    R = rng.normal(size=(m.dim, m.dim)) + 1j * rng.normal(size=(m.dim, m.dim))
    P0m, P1m = dec.P0.matrix, dec.P1.matrix
    if plant == "y1inv":
        # Y1inv off the inverse of Y on the excited sector
        wrong = Decomposition(P0=dec.P0, Y1inv=dec.Y1inv + 1e-3 * P1m @ R @ P1m, V0=dec.V0)
        return m, wrong
    if plant == "drive":
        # the drive has a ground-ground block
        bad = ScaledModel(Y=m.Y, A=m.A + 1e-3 * P0m @ R @ P0m, B=m.B, F=m.F, G=m.G, W=m.W)
        return bad, dec
    # the coupling has ground rows, so F·Y1inv·F†W scatters into the fast sector
    F = m.F + 1e-3 * P0m @ R @ P1m
    return ScaledModel(Y=m.Y, A=m.A, B=m.B, F=F, G=m.G, W=m.W), dec


@pytest.mark.parametrize(
    "family, plant", [("left", "y1inv"), ("right", "y1inv"), ("zero", "drive"), ("zero", "coupling")]
)
def test_planted_violation_fails_under_both_checks(family, plant):
    m = large_model(16, 2, seed=5)
    bad, dec = planted_violation(plant, m, decompose(m))
    oracle = inverse_structure_oracle(bad, dec)
    report = check_inverse_structure(bad, dec)
    for rep in (oracle, report):
        assert not rep.passed
        worst = max(r for name, r in rep.residuals if name.startswith(family + ":"))
        assert worst > 1e3 * rep.tolerance
    assert_close_to_oracle(report, oracle)


def test_trivial_kernel_above_d8():
    # P0 has rank 0: no ground rows, so every residual is exactly 0
    m = random_valid_model(np.random.default_rng(3), 0, 12, 2)
    e = eliminate(m)
    assert e.decomposition.P0.rank == 0 and e.decomposition.V0.shape == (12, 0)
    assert any("trivial kernel" in w for w in e.warnings)
    oracle = inverse_structure_oracle(m, e.decomposition)
    assert e.inverse_structure.residuals == oracle.residuals
    assert e.inverse_structure.max_residual == 0.0 and e.assumptions_pass


def test_vanishing_fast_part_above_d8():
    # Y = 0: P1 has rank 0, Y1inv = 0, and the limit is the slow data itself
    rng = np.random.default_rng(4)
    d = 12
    G = rng.normal(size=(1, d, d)) + 1j * rng.normal(size=(1, d, d))
    H = rng.normal(size=(d, d))
    B = -0.5 * np.einsum("iba,ibc->ac", G.conj(), G) + 1j * (H + H.T)
    W = haar_unitary(rng, d)[None, None]
    m = ScaledModel(Y=np.zeros((d, d)), A=np.zeros((d, d)), B=B, F=np.zeros((1, d, d)), G=G, W=W)
    e = eliminate(m)
    assert e.decomposition.P1.rank == 0
    np.testing.assert_array_equal(e.decomposition.Y1inv, np.zeros((d, d)))
    assert_close_to_oracle(e.inverse_structure, inverse_structure_oracle(m, e.decomposition))
    assert e.assumptions_pass
    np.testing.assert_allclose(e.limit.K, B, atol=1e-12)


def test_y1inv_override_above_d8():
    m = large_model(16, 2, seed=6)
    Yi = decompose(m).Y1inv
    good = eliminate(m, y1inv_override=Yi)
    bad = eliminate(m, y1inv_override=2 * Yi)
    assert good.assumptions_pass and not bad.inverse_structure.passed
    for e in (good, bad):
        assert_close_to_oracle(e.inverse_structure, inverse_structure_oracle(m, e.decomposition))


def test_hand_built_decomposition_finds_its_ground_basis():
    # without V0 the decomposition takes the eigenvectors of P0
    m = large_model(16, 3, seed=8)
    dec = decompose(m)
    bare = Decomposition(P0=dec.P0, Y1inv=dec.Y1inv)
    V0 = bare.V0
    np.testing.assert_array_equal(V0, dec.P0.basis())
    np.testing.assert_allclose(V0 @ dagger(V0), dec.P0.matrix, atol=1e-12)
    oracle = inverse_structure_oracle(m, dec)
    assert_close_to_oracle(check_inverse_structure(m, bare), oracle)
    assert_close_to_oracle(check_inverse_structure(m, dec), oracle)


def test_decomposition_rejects_a_ground_basis_of_the_wrong_shape():
    P0 = Projector(np.diag([1.0, 0.0]), 1)
    with pytest.raises(InvalidArgument, match=r"V0 has shape \(2, 2\), P0 has rank 1"):
        Decomposition(P0=P0, Y1inv=np.zeros((2, 2)), V0=np.eye(2))


def test_decomposition_rejects_a_ground_basis_that_does_not_span_range_p0():
    # an orthonormal 16 x 4 basis of the wrong subspace: check_inverse_structure
    # read its largest residual as 48.46 and k_sweep's sup distance at k = 5 as
    # 1.41133394 instead of 0.94464351
    rng = np.random.default_rng(3)
    m = random_valid_model(rng, 4, 12, 2)
    dec = decompose(m)
    Q, _ = np.linalg.qr(rng.normal(size=(16, 4)) + 1j * rng.normal(size=(16, 4)))
    for V0 in (Q, 2.0 * dec.V0, np.full((16, 4), np.nan)):
        with pytest.raises(InvalidArgument, match=r"V0 is not an orthonormal basis of range\(P0\)"):
            Decomposition(P0=dec.P0, Y1inv=dec.Y1inv, V0=V0)
    # a rotated basis of the same range is a basis all the same
    Qr, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    Decomposition(P0=dec.P0, Y1inv=dec.Y1inv, V0=dec.V0 @ Qr)
    listed = Decomposition(P0=Projector(np.diag([1.0, 0.0]), 1), Y1inv=np.zeros((2, 2)), V0=[[1.0], [0.0]])
    assert listed.V0.dtype == complex


@pytest.mark.parametrize("d, n", [(8, 2), (16, 3)])
def test_decompose_hands_over_the_svds_ground_basis_unchecked(d, n, monkeypatch):
    # decompose's V0 is the SVD's kernel columns, orthonormal and spanning
    # range(P0) by construction: with the check's tolerance below every
    # residual it still passes, and the same basis given by a caller does not
    m = large_model(d, n, seed=d + n)
    monkeypatch.setattr(elim, "PROJECTOR_TOL", -1.0)
    dec = decompose(m)
    vh = np.linalg.svd(m.Y)[2]
    assert np.array_equal(dec.V0, dagger(vh)[:, d - dec.P0.rank :])
    with pytest.raises(InvalidArgument, match=r"V0 is not an orthonormal basis of range\(P0\)"):
        Decomposition(P0=dec.P0, Y1inv=dec.Y1inv, V0=dec.V0)


@pytest.mark.parametrize("d0, d1, n", [(1, 1, 1), (2, 6, 3), (0, 12, 2), (4, 12, 2), (3, 9, 1)])
def test_decomposition_derives_its_excited_projector(d0, d1, n):
    m = random_valid_model(np.random.default_rng(d0 + d1 + n), d0, d1, n)
    dec = decompose(m)
    d = m.dim
    np.testing.assert_array_equal(dec.P1.matrix, np.eye(d) - dec.P0.matrix)
    assert dec.P1.rank == d - dec.P0.rank == d1
    assert dec.P1 is dec.P1  # derived once
    e = eliminate(m)
    assert e.warnings is e.decomposition.warnings


def test_decompose_above_d8_solves_on_the_singular_vectors(monkeypatch):
    # the excited right singular vectors of Y carry the restricted inverse,
    # so neither P1 nor P0 is diagonalised
    m = large_model(16, 2, seed=9)

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called on a d = 16 model")

    expected = restricted_inverse(m.Y, decompose(m).P1)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    e = eliminate(m)
    assert e.assumptions_pass
    np.testing.assert_allclose(e.decomposition.Y1inv, expected, atol=1e-12)
    V0 = e.decomposition.V0
    np.testing.assert_allclose(dagger(V0) @ V0, np.eye(V0.shape[1]), atol=1e-12)
    np.testing.assert_allclose(V0 @ dagger(V0), e.decomposition.P0.matrix, atol=1e-12)


@pytest.mark.parametrize("name", ["two_level", "cavity", "random-d8-n3"])
def test_decompose_up_to_d8_keeps_the_restricted_inverse(name):
    m = SMALL_MODELS[name]
    dec = decompose(m)
    np.testing.assert_array_equal(dec.Y1inv, restricted_inverse(m.Y, dec.P1))


# ---------------------------------------------------------------------------
# what eliminate computes: reports on first read, one split per Y


def report_models():
    """The catalog fixtures and random models at d in {4, 8, 16, 32}, n in {1, 3}."""
    models = {
        "two_level": catalog.two_level_atom(1.0, 1.0, 0.5),
        "alkali": catalog.alkali_atom(1.0, 1.0, 0.2, 0.0, 0.4),
        "cavity": catalog.default_cavity_system(),
        "lambda": catalog.lambda_system(1.0, 2.0, 0.4, 4),
    }
    for d in (4, 8, 16, 32):
        for n in (1, 3):
            models[f"random-d{d}-n{n}"] = large_model(d, n, seed=100 + d + n)
    return models


REPORT_MODELS = report_models()


def assert_same_report(report, alone):
    """Names, residuals, tolerance and verdict, bit for bit."""
    assert [name for name, _ in report.residuals] == [name for name, _ in alone.residuals]
    values = [np.array([r for _, r in rep.residuals]).tobytes() for rep in (report, alone)]
    assert values[0] == values[1]
    assert np.float64(report.tolerance).tobytes() == np.float64(alone.tolerance).tobytes()
    assert report.passed is alone.passed


@pytest.mark.parametrize("name", list(REPORT_MODELS))
def test_reports_read_from_eliminate_are_the_standalone_reports(name):
    m = REPORT_MODELS[name]
    e = eliminate(m)
    dec = e.decomposition
    assert_same_report(e.inverse_structure, check_inverse_structure(m, dec))
    assert_same_report(e.ground_support, check_ground_support(e.limit, dec.P1))
    assert_same_report(e.limit_unitarity, check_hp_unitarity(e.limit))
    # each report is computed once, then kept
    assert e.inverse_structure is e.inverse_structure
    assert e.ground_support is e.ground_support
    assert e.limit_unitarity is e.limit_unitarity


def test_reports_keep_the_tolerance_eliminate_was_given():
    m = REPORT_MODELS["random-d8-n3"]
    e = eliminate(m, tol=1e-6)
    assert_same_report(e.inverse_structure, check_inverse_structure(m, e.decomposition, 1e-6))
    assert_same_report(e.ground_support, check_ground_support(e.limit, e.decomposition.P1, 1e-6))
    assert_same_report(e.limit_unitarity, check_hp_unitarity(e.limit, 1e-6))


@pytest.mark.parametrize("name", list(REPORT_MODELS))
def test_the_limit_reports_share_one_norm_scale(name, monkeypatch):
    # ground support and limit unitarity scale their tolerances by the norm
    # scale of the same limit (K, L, S): taken once, with the bits of the call
    m = REPORT_MODELS[name]
    e = eliminate(m, tol=1e-7)
    direct = 1e-7 * model_module.norm_scale(e.limit.K, e.limit.L, e.limit.S)
    scales = count(monkeypatch, model_module, "norm_scale")
    reports = (e.ground_support, e.limit_unitarity)
    assert scales.calls == 1
    for report in reports:
        assert np.float64(report.tolerance).tobytes() == np.float64(direct).tobytes()


def test_overflowing_reports_fail_when_read_without_a_warning():
    # the limit is (B, G, W) = (0, 1e200, 1): finite, but L†L and every norm
    # scale overflow; the reports are read here, outside any errstate
    m = ScaledModel(Y=[[0.0]], A=[[0.0]], B=[[0.0]], F=[[[0.0]]], G=[[[1e200]]], W=[[[[1.0]]]])
    e = eliminate(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = (e.inverse_structure, e.ground_support, e.limit_unitarity)
    assert not any(report.passed for report in reports)
    assert all(report.tolerance == np.inf for report in reports)
    assert e.limit_unitarity.residual("K+K† = -ΣL†L") == np.inf


class Counter:
    """Wraps a function and counts its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.f(*args, **kwargs)


def count(monkeypatch, module, name):
    counter = Counter(getattr(module, name))
    monkeypatch.setattr(module, name, counter)
    return counter


@pytest.fixture
def no_split(monkeypatch):
    """eliminate's memo, emptied for the test and restored after it."""
    monkeypatch.setattr(elim, "_last_split", None)


@pytest.mark.parametrize("name", ["two_level", "lambda", "random-d16-n3", "random-d32-n1"])
def test_a_displaced_elimination_reuses_the_split(monkeypatch, no_split, name):
    m = REPORT_MODELS[name]
    splits = count(monkeypatch, elim, "_kernel_split")
    e = eliminate(m)
    md = displace_scaled(m, 0.3 - 0.4j + np.arange(m.channels))
    ed = eliminate(md)
    assert splits.calls == 1
    assert ed.decomposition is e.decomposition
    fresh = decompose(md)
    for a, b in [(ed.decomposition.P0.matrix, fresh.P0.matrix), (ed.decomposition.Y1inv, fresh.Y1inv),
                 (ed.decomposition.V0, fresh.V0)]:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert ed.decomposition.P0.rank == fresh.P0.rank
    assert ed.warnings == fresh.warnings


def with_y(m, Y):
    return ScaledModel(Y=Y, A=m.A, B=m.B, F=m.F, G=m.G, W=m.W)


def test_the_split_is_not_reused_for_another_y_or_rank_tol(monkeypatch, no_split):
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    assert m.Y[0, 1] == 0.0 and not np.signbit(m.Y[0, 1].real)
    ulp = m.Y.copy()
    ulp[1, 1] = np.nextafter(ulp[1, 1].real, 0.0) + 1j * ulp[1, 1].imag
    signed_zero = m.Y.copy()
    signed_zero[0, 1] = complex(-0.0, 0.0)
    assert np.array_equal(signed_zero, m.Y) and signed_zero.tobytes() != m.Y.tobytes()

    override = decompose(m).Y1inv
    splits = count(monkeypatch, elim, "_kernel_split")
    calls = [
        lambda: eliminate(with_y(m, ulp)),
        lambda: eliminate(with_y(m, signed_zero)),
        lambda: eliminate(m, rank_tol=1e-8),
        lambda: eliminate(m, y1inv_override=override),
    ]
    for call in calls:
        shared = eliminate(m).decomposition  # m's split is the memo's entry
        before = splits.calls
        assert call().decomposition is not shared
        assert splits.calls == before + 1


def test_an_override_neither_reads_nor_writes_the_split(monkeypatch, no_split):
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    e = eliminate(m)
    memo = elim._last_split
    wrong = np.diag([1.0 + 0.0j, 0.0])
    overridden = eliminate(m, y1inv_override=wrong)
    assert elim._last_split is memo
    np.testing.assert_array_equal(overridden.decomposition.Y1inv, wrong)
    assert not overridden.inverse_structure.passed
    assert eliminate(m).decomposition is e.decomposition


def test_a_write_into_y_is_a_new_key(no_split):
    Y = catalog.two_level_atom(1.0, 1.0, 0.5).Y.copy()
    m = with_y(catalog.two_level_atom(1.0, 1.0, 0.5), Y)
    assert m.Y is Y
    first = eliminate(m).decomposition
    Y[1, 1] *= 2.0  # the model is written in place: its old split must not return
    second = eliminate(m).decomposition
    assert second is not first
    np.testing.assert_allclose(second.Y1inv[1, 1], first.Y1inv[1, 1] / 2.0, rtol=1e-15)


def test_a_singular_restriction_raises_on_every_call(monkeypatch, no_split):
    # nilpotent Y: its restriction to the complement of its kernel is 0
    m = ScaledModel(
        Y=[[0.0, 0.0], [1.0, 0.0]], A=np.zeros((2, 2)), B=np.zeros((2, 2)),
        F=np.zeros((1, 2, 2)), G=np.zeros((1, 2, 2)), W=np.eye(2)[None, None],
    )
    splits = count(monkeypatch, elim, "_kernel_split")
    for calls in (1, 2, 3):
        with pytest.raises(SingularRestriction):
            eliminate(m)
        assert splits.calls == calls
    assert elim._last_split is None


def test_the_shared_split_is_read_only(no_split):
    m = REPORT_MODELS["random-d16-n3"]
    dec = eliminate(m).decomposition
    for a in (dec.P0.matrix, dec.Y1inv, dec.V0, dec.P1.matrix):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0
    fresh = decompose(m)
    assert eliminate(m).decomposition.Y1inv.tobytes() == fresh.Y1inv.tobytes()
    # a decomposition of one's own stays writable
    fresh.P0.matrix[0, 0] = fresh.P0.matrix[0, 0]
    fresh.P1.matrix[0, 0] = fresh.P1.matrix[0, 0]


def test_threads_eliminating_two_models_each_get_their_own_split(no_split):
    # two models of different Y alternate in more threads than cores, with a
    # short switch interval: a torn or lost memo entry would hand a thread
    # the other model's split
    models = [REPORT_MODELS["random-d8-n3"], REPORT_MODELS["random-d4-n1"]]
    expected = [eliminate(m).limit.K.tobytes() for m in models]
    wrong = []

    def work(offset):
        for i in range(60):
            j = (i + offset) % 2
            if eliminate(models[j]).limit.K.tobytes() != expected[j]:
                wrong.append((offset, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def write_model(tmp_path):
    path = tmp_path / "m.json"
    doc = {"schema_version": 1, "builtin": {"name": "lambda_system", "parameters": {"gamma": 1.0, "g": 2.0, "alpha": 0.4}}}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [["converge", "--ks", "5,10"], ["kurtz"]])
def test_converge_and_kurtz_compute_no_report(monkeypatch, tmp_path, capsys, argv):
    builders = [count(monkeypatch, elim, name) for name in
                ("check_inverse_structure", "check_ground_support", "check_hp_unitarity")]
    assert main(argv + ["--model", write_model(tmp_path)]) == 0
    capsys.readouterr()
    assert [b.calls for b in builders] == [0, 0, 0]


def test_the_eliminate_command_computes_each_report_once(monkeypatch, tmp_path, capsys):
    builders = [count(monkeypatch, elim, name) for name in
                ("check_inverse_structure", "check_ground_support", "check_hp_unitarity")]
    assert main(["eliminate", "--model", write_model(tmp_path)]) == 0
    capsys.readouterr()
    assert [b.calls for b in builders] == [1, 1, 1]


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf"), -float("inf")])
def test_a_tol_that_is_not_finite_and_positive_is_refused(monkeypatch, no_split, tol):
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    good = eliminate(m)
    memo = elim._last_split
    splits = count(monkeypatch, elim, "_kernel_split")
    message = "tol must be finite and positive, got"
    calls = [
        lambda: eliminate(m, tol=tol),
        lambda: eliminate(m, tol=tol, y1inv_override=good.decomposition.Y1inv),
        lambda: check_inverse_structure(m, good.decomposition, tol),
        lambda: check_ground_support(good.limit, good.decomposition.P1, tol),
        lambda: check_hp_unitarity(good.limit, tol),
        lambda: check_scaling_consistency(m, tol),
    ]
    for call in calls:
        with pytest.raises(InvalidArgument, match=message):
            call()
    # refused before any work: no split taken, none stored
    assert splits.calls == 0
    assert elim._last_split is memo
