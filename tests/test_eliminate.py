"""Tests for the ground/excited decomposition, the limit formulas, the
structural checks, and Weyl displacement."""

import numpy as np
import pytest

from qsde_elim import (
    CheckReport,
    CoefficientSet,
    Decomposition,
    InvalidArgument,
    Projector,
    ScaledModel,
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
from qsde_elim.eliminate import _channel_sums, as_amplitude
from qsde_elim.linalg import RECORDED_ARITHMETIC_MAX_DIM, dagger
from factories import coefficient_gap, haar_unitary, model_gap, random_valid_model


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
    # eliminate shares its product table with the check; the standalone check
    # computes the same table, so every residual has the same bits
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
    fdw, gdw = _channel_sums(m)
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
