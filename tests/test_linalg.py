"""Tests for the dense linear algebra kernels."""

import functools
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from qsde_elim import (
    InvalidArgument,
    NumericalFailure,
    Projector,
    ResourceLimit,
    SingularRestriction,
    StepDrive,
    catalog,
    dagger,
    default_ground_vector,
    displace_limit,
    displace_scaled,
    eliminate,
    expm,
    instantiate,
    k_sweep,
    kernel_projector,
    restricted_inverse,
    vec,
)
from qsde_elim.linalg import RECORDED_ARITHMETIC_MAX_DIM, _BLAS_FORMS, blocks, contract, frobenius_norms
from qsde_elim import linalg, semigroup
from qsde_elim.semigroup import _kron, _sandwich_terms, _superoperator
from factories import haar_unitary


def test_vec_column_stacking():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(vec(X), [1.0, 3.0, 2.0, 4.0])


def test_vec_roundtrip():
    # the stepper lifts its state back by the column-major reshape, square
    # or d0 x d ground rows
    rng = np.random.default_rng(0)
    for shape in ((3, 3), (2, 5)):
        X = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        np.testing.assert_array_equal(vec(X).reshape(shape, order="F"), X)


def test_dagger():
    M = np.array([[1.0 + 2.0j, 3.0], [0.0, -1.0j]])
    np.testing.assert_array_equal(dagger(M), M.conj().T)


def test_as_operator_rejects_nonsquare_and_nonfinite():
    from qsde_elim.linalg import as_operator

    with pytest.raises(InvalidArgument, match="must be square"):
        as_operator(np.zeros((2, 3)))
    with pytest.raises(InvalidArgument, match="contains non-finite entries"):
        as_operator(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_projector_validate_accepts_true_projector():
    P = Projector(np.diag([1.0, 0.0, 1.0]), 2)
    P.validate()


def test_projector_validate_rejects_defects():
    with pytest.raises(InvalidArgument, match="not Hermitian"):
        Projector(np.array([[1.0, 1.0], [0.0, 0.0]]), 1).validate()
    with pytest.raises(InvalidArgument, match="not idempotent"):
        Projector(np.diag([0.5, 0.0]), 1).validate()
    with pytest.raises(InvalidArgument, match="does not match declared rank 1"):
        Projector(np.diag([1.0, 1.0]), 1).validate()
    with pytest.raises(InvalidArgument, match="rank 5 out of range for dim 2"):
        Projector(np.eye(2), 5)


def test_projector_validate_refuses_a_nan_or_negative_tol():
    # a NaN tolerance would pass any matrix; +inf, which a tolerance scaled by
    # the dimension overflows to, passes every projector as it did
    not_a_projector = Projector(np.array([[2.0, 1.0], [0.0, 5.0]]), 1)
    for bad in (float("nan"), -1.0):
        with pytest.raises(InvalidArgument, match="tol must be non-negative"):
            not_a_projector.validate(bad)
    not_a_projector.validate(float("inf"))
    Projector(np.diag([1.0, 0.0, 1.0]), 2).validate(0.0)


def test_kernel_projector_diagonal():
    P = kernel_projector(np.diag([0.0, 0.0, 2.0, 3.0]))
    assert P.rank == 2
    np.testing.assert_allclose(P.matrix, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-12)
    P.validate()


def test_kernel_projector_zero_matrix_gives_identity():
    P = kernel_projector(np.zeros((3, 3)))
    assert P.rank == 3
    np.testing.assert_allclose(P.matrix, np.eye(3), atol=1e-12)


def test_kernel_projector_rotated_kernel():
    # conjugating by a unitary must transport the kernel projector the same way
    rng = np.random.default_rng(7)
    U = haar_unitary(rng, 4)
    M = np.diag([0.0, 0.0, 1.5, -2.0 + 1.0j])
    P = kernel_projector(U @ M @ dagger(U))
    expected = U @ np.diag([1.0, 1.0, 0.0, 0.0]) @ dagger(U)
    assert P.rank == 2
    np.testing.assert_allclose(P.matrix, expected, atol=1e-10)
    P.validate()


def test_kernel_projector_rank_tol_threshold():
    M = np.diag([1e-12, 1.0])
    assert kernel_projector(M).rank == 1
    assert kernel_projector(M, rank_tol=1e-15).rank == 0
    with pytest.raises(ValueError):
        kernel_projector(M, rank_tol=0.0)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidArgument):
            kernel_projector(M, rank_tol=bad)


def test_restricted_inverse_diagonal_oracle():
    M = np.diag([-0.4 + 0.8j, 0.0])
    P1 = Projector(np.diag([1.0, 0.0]), 1)
    R = restricted_inverse(M, P1)
    np.testing.assert_allclose(R, np.diag([-0.5 - 1.0j, 0.0]), atol=1e-12)


def test_restricted_inverse_certifies_on_rotated_block():
    rng = np.random.default_rng(11)
    U = haar_unitary(rng, 5)
    D = np.diag([0.0, 0.0, 1.0 + 1.0j, -2.0, 0.5j])
    M = U @ D @ dagger(U)
    P1 = Projector(U @ np.diag([0.0, 0.0, 1.0, 1.0, 1.0]) @ dagger(U), 3)
    R = restricted_inverse(M, P1)
    P1m = P1.matrix
    np.testing.assert_allclose(P1m @ M @ R @ P1m, P1m, atol=1e-10)
    np.testing.assert_allclose(P1m @ R @ M @ P1m, P1m, atol=1e-10)
    # and the inverse lives entirely inside the restricted block
    P0m = np.eye(5) - P1m
    assert np.linalg.norm(P0m @ R) < 1e-10
    assert np.linalg.norm(R @ P0m) < 1e-10


def test_restricted_inverse_zero_rank_projector():
    R = restricted_inverse(np.eye(3), Projector(np.zeros((3, 3)), 0))
    np.testing.assert_array_equal(R, np.zeros((3, 3)))


def test_restricted_inverse_singular_block_raises_with_sigma():
    M = np.diag([1.0, 0.0])
    P1 = Projector(np.eye(2), 2)
    with pytest.raises(SingularRestriction) as exc:
        restricted_inverse(M, P1)
    assert exc.value.sigma == pytest.approx(0.0, abs=1e-15)


def test_restricted_inverse_of_a_subnormal_block_is_a_numerical_failure():
    # the block is nonsingular relative to itself, but 1 / 1e-310 overflows
    M = np.diag([-1e-310, 0.0])
    P1 = Projector(np.diag([1.0, 0.0]), 1)
    with pytest.raises(NumericalFailure, match="overflowed"):
        restricted_inverse(M, P1)


def test_restricted_inverse_certifies_a_block_whose_squares_overflow():
    # ||M||² overflows but ||M|| does not: certified against ||M||, unwarned
    M = np.diag([1e160, -2e160, 0.0])
    P1 = Projector(np.diag([1.0, 1.0, 0.0]), 2)
    np.testing.assert_array_equal(restricted_inverse(M, P1), np.diag([1e-160, -5e-161, 0.0]))


def test_restricted_inverse_against_an_infinite_norm_is_a_numerical_failure():
    # every entry is finite, but ||M|| is not: nothing can be certified against it
    M = np.diag([-1.7e308, -1.7e308, 0.0])
    P1 = Projector(np.diag([1.0, 1.0, 0.0]), 2)
    with pytest.raises(NumericalFailure, match="the norm of M overflows float64"):
        restricted_inverse(M, P1)


def test_projector_basis_spans_the_range():
    rng = np.random.default_rng(12)
    U = haar_unitary(rng, 4)
    P = Projector(U @ np.diag([1.0, 0.0, 1.0, 0.0]) @ dagger(U), 2)
    V = P.basis()
    assert V.shape == (4, 2)
    np.testing.assert_allclose(dagger(V) @ V, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(V @ dagger(V), P.matrix, atol=1e-12)
    assert Projector(np.zeros((3, 3)), 0).basis().shape == (3, 0)
    with pytest.raises(InvalidArgument, match="eigenvalues do not match declared rank 2"):
        Projector(np.diag([1.0, 0.0]), 2).basis()


def test_restricted_inverse_refuses_a_tolerance_that_is_not_finite_and_positive():
    # the default refuses this block as singular; a NaN or zero tol would return
    # an inverse of norm 1e12, and a negative one fail its certification
    M = np.diag([1.0, 1e-12, 0.0])
    P1 = Projector(np.diag([1.0, 1.0, 0.0]), 2)
    with pytest.raises(SingularRestriction):
        restricted_inverse(M, P1)
    for bad in (float("nan"), 0.0, -1.0, float("inf")):
        with pytest.raises(InvalidArgument, match="tol must be finite and positive"):
            restricted_inverse(M, P1, tol=bad)


def test_restricted_inverse_dimension_mismatch():
    with pytest.raises(InvalidArgument, match="M is 3x3 but projector dim is 2"):
        restricted_inverse(np.eye(3), Projector(np.eye(2), 2))


def test_expm_rotation_quarter_turn():
    gen = np.array([[0.0, -1.0], [1.0, 0.0]])
    R = expm((np.pi / 2) * gen)
    np.testing.assert_allclose(R, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)


def same_bits(A: np.ndarray, B: np.ndarray) -> bool:
    """Equal entry for entry, sign bits of zeros included."""
    return A.shape == B.shape and np.array_equal(A.view(np.uint64), B.view(np.uint64))


def is_stiff(M: np.ndarray) -> bool:
    """The split's gate: a mean decay rate beyond -ln of the smallest normal double."""
    return -np.trace(M).real > 708 * M.shape[0]


def sweep_exponents(monkeypatch, m, ks, drive=None) -> list[np.ndarray]:
    """Every matrix a vacuum or driven sweep of m hands to expm."""
    seen = []
    monkeypatch.setattr(semigroup, "expm", lambda M: (seen.append(M), expm(M))[1])
    e = eliminate(m)
    k_sweep(m, e, default_ground_vector(e.decomposition.P0), ks, 1.0, 6, drive)
    monkeypatch.undo()
    return seen


CATALOG = {
    "two_level": catalog.two_level_atom(1.0, 1.0, 0.5),
    "alkali": catalog.alkali_atom(1.0, 1.0, 0.2, 0.0, 0.4),
    "cavity": catalog.default_cavity_system(),
    "lambda": catalog.lambda_system(1.0, 2.0, 0.4, 4),
}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_expm_has_the_bits_of_scipy_on_the_catalog_sweeps(name, monkeypatch):
    m = CATALOG[name]
    drive = StepDrive([0.0, 0.5, 1.0], [[0.3] + [0.0] * (m.channels - 1), [-0.2] * m.channels])
    mats = [M for d in (None, drive) for M in sweep_exponents(monkeypatch, m, [5.0, 100.0], d)]
    assert mats and not all(is_stiff(M) for M in mats)
    for M in mats:
        assert same_bits(expm(M), scipy.linalg.expm(M))


def test_expm_leaves_a_stiff_triangular_matrix_to_scipy():
    # scipy squares a triangular matrix with its diagonal recomputed each time
    M = np.array([[-2000.0, 1.0, 0.5], [0.0, -3000.0, 2.0], [0.0, 0.0, -2500.0]], dtype=complex)
    assert is_stiff(M)
    assert same_bits(expm(M), scipy.linalg.expm(M))


@pytest.fixture(scope="module")
def cavity_d32():
    m = catalog.default_cavity_system(n_trunc=16)
    e = eliminate(m)
    return m, e, default_ground_vector(e.decomposition.P0)


def first_ground_row_step(m, e, k: float, steps: int = 6) -> np.ndarray:
    """h·G of the first step of a vacuum sweep above d = 8, with G the
    ground-row generator that k_sweep assembles (the same terms, the same
    bits) and h the first grid difference."""
    zero, V0 = np.zeros(m.channels), e.decomposition.V0
    limit, scaled = displace_limit(e.limit, zero), displace_scaled(m, zero)
    K, L = dagger(V0) @ limit.K @ V0, dagger(V0) @ limit.L @ V0
    right = instantiate(scaled, k)
    gen = _superoperator(_sandwich_terms(K, L, right.K, right.L), m.dim, len(K))
    return np.linspace(0.0, 1.0, steps)[1] * gen


def test_stiff_expm_keeps_the_subnormals_of_scipy(cavity_d32):
    # the first step of the d = 32 cavity at k = 1e4, where scipy leaves about
    # 255 subnormal entries: expm has its bits, subnormals included.  The sweep
    # itself takes that step by the slow/fast split, so the matrix comes from
    # the ground-row generator it assembles.
    m, e, v = cavity_d32
    M = first_ground_row_step(m, e, 1e4)
    assert M.shape == (64, 64) and is_stiff(M)
    ref = scipy.linalg.expm(M)
    ref_parts = np.concatenate([ref.real.ravel(), ref.imag.ravel()])
    assert np.any((ref_parts != 0) & (np.abs(ref_parts) < np.finfo(float).tiny))
    assert same_bits(expm(M), ref)


def test_stiff_sweep_has_the_bits_of_scipy(cavity_d32, monkeypatch):
    m, e, v = cavity_d32
    rep = k_sweep(m, e, v, [1e4], 1.0, 6)
    monkeypatch.setattr(semigroup, "expm", scipy.linalg.expm)
    ref = k_sweep(m, e, v, [1e4], 1.0, 6)
    assert same_bits(rep.distances, ref.distances)
    assert rep.max_clamp == ref.max_clamp


def test_stiff_sweep_at_d8_has_the_bits_of_scipy(monkeypatch):
    # the n_trunc 4 cavity (d = 8) keeps its full state, and the slow/fast
    # split takes its three stiff steps at k = 1e4: no exponential is of the
    # 64 x 64 full-state generator, and every one has scipy's bits
    m = catalog.default_cavity_system(n_trunc=4)
    taken, real_exp = [], semigroup._Decoupled.exp

    def recording_exp(self, h):
        taken.append(real_exp(self, h))
        return taken[-1]

    monkeypatch.setattr(semigroup._Decoupled, "exp", recording_exp)
    mats = sweep_exponents(monkeypatch, m, [1e4])
    assert len(taken) == 3 and all(E is not None and E.shape == (64, 64) for E in taken)
    assert mats and all(M.shape == (4, 4) for M in mats)
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    rep = k_sweep(m, e, v, [1e4], 1.0, 6)
    monkeypatch.setattr(semigroup, "expm", scipy.linalg.expm)
    ref = k_sweep(m, e, v, [1e4], 1.0, 6)
    assert same_bits(rep.distances, ref.distances)
    assert rep.max_clamp == ref.max_clamp


def random_complex(rng, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 36, 64])
def test_expm_kernel_has_the_bits_of_scipy(n):
    rng = np.random.default_rng(100 + n)
    for scale in (1e-3, 1.0, 30.0, 1e3):
        M = random_complex(rng, n, scale / np.sqrt(n))
        with np.errstate(over="ignore", invalid="ignore"):  # at 1e3 both overflow alike
            assert same_bits(expm(M), scipy.linalg.expm(M))


@pytest.mark.parametrize("n", [2, 4, 16])
def test_expm_kernel_has_the_bits_of_scipy_on_a_stiff_split(n):
    # one slow mode and n - 1 fast ones at rate 2000: a stiff input that is
    # not triangular goes to scipy's kernel like any other
    rng = np.random.default_rng(200 + n)
    M = random_complex(rng, n) + np.diag([0.0] + [-2000.0] * (n - 1))
    assert is_stiff(M) and 0 not in scipy.linalg.bandwidth(M)
    assert same_bits(expm(M), scipy.linalg.expm(M))


@pytest.mark.parametrize("scale", [1.0, 3000.0])
def test_expm_of_triangular_input_has_the_bits_of_scipy(scale):
    rng = np.random.default_rng(7)
    M = scale * (random_complex(rng, 5) - 2 * np.eye(5))
    for A in (np.triu(M), np.tril(M)):
        assert same_bits(expm(A), scipy.linalg.expm(A))


def test_expm_takes_a_full_matrix_without_its_triangle_scan(monkeypatch):
    # M[1, 0] and M[0, 1] both non-zero: neither triangle is zero, so the Padé
    # kernel at once, as the scan would decide; with either of them zero the
    # scan still routes the matrix
    rng = np.random.default_rng(5)
    M = random_complex(rng, 6)
    sparse = np.diag(np.diag(M))
    sparse[1, 0], sparse[0, 1] = M[1, 0], M[0, 1]
    corner = np.triu(M)
    corner[5, 2] = 1.0  # full, though M[1, 0] is zero
    results = {}
    with monkeypatch.context() as patch:
        patch.setattr(np, "tri", None)  # a scan would fail
        for name, A in (("dense", M), ("sparse", sparse)):
            results[name] = expm(A)
        for A in (corner, np.triu(M), np.tril(M)):
            with pytest.raises(TypeError):
                expm(A)
    for name, A in (("dense", M), ("sparse", sparse)):
        assert same_bits(results[name], scipy.linalg.expm(A))
    for A in (corner, np.triu(M), np.tril(M)):
        assert same_bits(expm(A), scipy.linalg.expm(A))


def test_expm_of_diagonal_and_1x1_input_needs_no_scipy_linalg(monkeypatch):
    monkeypatch.setattr(linalg, "_scipy_expm", None)  # a call would fail
    M = np.diag([1.0 + 2.0j, -3000.0, 0.5])
    for A in (M, M[:1, :1], M[:0, :0]):
        assert same_bits(expm(A), scipy.linalg.expm(A))


SCIPY_DIR = os.path.dirname(scipy.__file__)
# whether expm loads this scipy's kernel from its file, not through scipy.linalg
KERNEL_ALONE = linalg._scipy_version(SCIPY_DIR) >= linalg._KERNEL_ALONE_SINCE


def test_scipy_version_is_read_from_its_file():
    assert linalg._scipy_version(SCIPY_DIR) == tuple(int(part) for part in scipy.__version__.split(".")[:2])


@pytest.fixture
def fresh_kernel():
    """Makes expm load and check its kernel again, in the test and after it."""
    linalg._kernel.cache_clear()
    yield
    linalg._kernel.cache_clear()


@pytest.mark.skipif(not KERNEL_ALONE, reason="expm uses no kernel below scipy 1.17")
def test_expm_kernel_loads_from_its_file_alone(monkeypatch, fresh_kernel):
    name = linalg._KERNEL_NAME
    imported = sys.modules[name]  # by scipy.linalg, imported above
    assert linalg._kernel() is imported
    monkeypatch.delitem(sys.modules, name)
    kernel = linalg._load_alone(SCIPY_DIR)
    assert kernel is not imported and kernel.__file__ == imported.__file__
    assert sys.modules[name] is kernel
    assert linalg._checked(kernel) is kernel  # it has the interface expm calls
    monkeypatch.setattr(linalg, "_KERNEL_NAME", "scipy.linalg._no_such_kernel")
    assert linalg._load_alone(SCIPY_DIR) is None


def test_expm_uses_no_kernel_below_scipy_1_17(monkeypatch, fresh_kernel):
    monkeypatch.setattr(linalg, "_KERNEL_ALONE_SINCE", (10**6,))  # as on a scipy older than any
    assert linalg._KERNEL_NAME in sys.modules  # by scipy.linalg, imported above
    assert linalg._kernel() is None  # not reused either
    M = random_complex(np.random.default_rng(13), 6)
    assert same_bits(expm(M), scipy.linalg.expm(M))


def test_expm_looks_for_its_kernel_once(monkeypatch, fresh_kernel):
    calls = []
    version = linalg._scipy_version
    monkeypatch.setattr(linalg, "_scipy_version", lambda package: calls.append(package) or version(package))
    M = random_complex(np.random.default_rng(17), 4)
    for _ in range(3):
        assert same_bits(expm(M), scipy.linalg.expm(M))
    assert calls == [SCIPY_DIR]


COLD_EXPM = """
import json, sys
import numpy as np
from qsde_elim import linalg
if sys.argv[1] == "import":
    linalg._KERNEL_ALONE_SINCE = (10**6,)  # as on a scipy older than any
rng = np.random.default_rng(5)
M = 3.0 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
E = linalg.expm(M)
loaded = [name in sys.modules for name in ("scipy", "scipy.linalg")]
import scipy.linalg
same = E.dtype == complex and E.tobytes() == np.ascontiguousarray(scipy.linalg.expm(M)).tobytes()
json.dump({"loaded": loaded, "kernel": linalg._kernel() is not None, "same": same}, sys.stdout)
"""


@pytest.mark.parametrize("way", ["file", "import"])
def test_first_expm_in_a_fresh_interpreter_has_the_bits_of_scipy(way):
    """The first exponential in a process that has no scipy yet: by the kernel
    loaded from its file where this scipy allows that, else by
    scipy.linalg.expm."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(linalg.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_EXPM, way],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    # whether this scipy's kernel passes the check
    usable = linalg._checked(sys.modules.get(linalg._KERNEL_NAME)) is not None
    kernel = way == "file" and KERNEL_ALONE and usable
    assert seen["same"] and seen["kernel"] == kernel
    # [scipy, scipy.linalg] after the first exponential
    assert seen["loaded"] == ([False, False] if kernel else [True, True])


class ThreeArgumentKernel:
    """Another interface: pade_UV_calc(Am, n, m), returning None."""

    pick_pade_structure = staticmethod(lambda Am: (13, 0))
    pade_UV_calc = staticmethod(lambda Am, n, m: None)


class SkippingKernel:
    """Right signatures, wrong numbers: leaves A itself in Am[0]."""

    pick_pade_structure = staticmethod(lambda Am: (13, 0))
    pade_UV_calc = staticmethod(lambda Am, m: 0)


@pytest.mark.parametrize("kernel", [None, ThreeArgumentKernel, SkippingKernel])
def test_expm_without_a_usable_kernel_has_the_bits_of_scipy(kernel, monkeypatch, fresh_kernel):
    if kernel is None:
        monkeypatch.setattr(linalg, "_KERNEL_NAME", "scipy.linalg._no_such_kernel")
    else:
        monkeypatch.setitem(sys.modules, linalg._KERNEL_NAME, kernel)  # reused, then checked
    rng = np.random.default_rng(11)
    plain = random_complex(rng, 6)
    stiff = random_complex(rng, 6) + np.diag([0.0] + [-2000.0] * 5)
    for M in (plain, stiff):
        assert same_bits(expm(M), scipy.linalg.expm(M))
    assert linalg._kernel() is None


class StatusKernel:
    """Reports the given Padé degree and LAPACK status and computes nothing."""

    def __init__(self, m: int, info: int):
        self.pick_pade_structure = lambda Am: (m, 0)
        self.pade_UV_calc = lambda Am, m: info


@pytest.mark.parametrize(
    "m, info, error",
    [
        (-1, 0, ResourceLimit),
        (13, -11, ResourceLimit),
        (13, -12, ResourceLimit),
        (13, -3, NumericalFailure),
        (13, 2, NumericalFailure),
    ],
)
def test_expm_kernel_failure_statuses_are_package_errors(m, info, error, monkeypatch):
    kernel = StatusKernel(m, info)
    monkeypatch.setattr(linalg, "_kernel", lambda: kernel)  # used unchecked
    with pytest.raises(error, match=f"code {min(m, info) if m < 0 else info}"):
        expm(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_assemble_superoperator_matches_sandwich():
    # X -> L X R has matrix kron(R.T, L) on vec(X), X square or ground rows
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        rows = int(rng.integers(1, d + 1))
        L = rng.normal(size=(rows, rows)) + 1j * rng.normal(size=(rows, rows))
        R = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        X = rng.normal(size=(rows, d)) + 1j * rng.normal(size=(rows, d))
        S = _superoperator([(L, R)], d, rows)
        np.testing.assert_allclose(
            (S @ vec(X)).reshape((rows, d), order="F"), L @ X @ R, atol=1e-12
        )


def kron_superoperator(terms, d: int, rows: int) -> np.ndarray:
    """The generator as np.kron assembles it: the oracle of _superoperator."""
    eye_left, eye_right = np.eye(rows, dtype=complex), np.eye(d, dtype=complex)
    mats = [
        np.kron((eye_right if r is None else r).T, eye_left if l is None else l) for l, r in terms
    ]
    return functools.reduce(np.add, mats)


@pytest.mark.parametrize("d, rows", [(1, 1), (2, 2), (3, 1), (8, 8), (12, 1), (12, 3), (16, 4)])
def test_superoperator_has_the_bits_and_memory_order_of_np_kron(d, rows):
    # the broadcast product and reshape of np.kron itself: every entry, sign bits
    # of zeros included, and the strides, which decide the BLAS calls that follow
    rng = np.random.default_rng(d * rows)
    K, R = random_complex(rng, rows), random_complex(rng, d)
    L = [random_complex(rng, rows) for _ in range(2)]
    K[0, 0], R[-1, 0] = complex(-0.0, 0.0), complex(0.0, -0.0)
    for terms in (
        _sandwich_terms(K, L, R, [R.T, R.conj()]),
        _sandwich_terms(None, L, R, [R, -R]),
        [(None, None), (L[0], None), (None, R)],
    ):
        got, ref = _superoperator(terms, d, rows), kron_superoperator(terms, d, rows)
        assert got.strides == ref.strides
        assert same_bits(np.ascontiguousarray(got), np.ascontiguousarray(ref))
    for a, b in ((R.T, L[0].conj().T), (np.eye(d).T, L[1]), (R, np.eye(rows))):
        got, ref = _kron(a, b), np.kron(a, b)
        assert got.strides == ref.strides
        assert same_bits(np.ascontiguousarray(got), np.ascontiguousarray(ref))


def test_blocks_layout():
    rng = np.random.default_rng(3)
    W = rng.normal(size=(2, 2, 3, 3))
    B = blocks(W)
    for i in range(2):
        for j in range(2):
            np.testing.assert_array_equal(B[3 * i:3 * i + 3, 3 * j:3 * j + 3], W[i, j])


def _contraction_operands(rng, spec, n, d):
    """Random complex operands of the shapes the einsum spec names."""
    shapes = {"i": n, "j": n, "l": n, "a": d, "b": d, "c": d}
    operands = []
    for labels in spec.split("->")[0].split(","):
        shape = [shapes[x] for x in labels]
        operands.append(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return operands


@pytest.mark.parametrize("spec", sorted(_BLAS_FORMS))
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 8, 9, 16, 32])
def test_contract_matches_einsum(spec, n, d, monkeypatch):
    # the BLAS forms sum in another order, so above the recorded-arithmetic
    # dimension they agree to rounding; at or below it they are einsum itself
    rng = np.random.default_rng(1000 * d + 10 * n + len(spec))
    operands = _contraction_operands(rng, spec, n, d)
    want = np.einsum(spec, *operands)
    if d <= RECORDED_ARITHMETIC_MAX_DIM:
        assert np.array_equal(contract(spec, *operands), want)
        return
    monkeypatch.setattr(np, "einsum", None)  # the BLAS form must not fall back
    got = contract(spec, *operands)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("d", [1, 2, 5, 8, 9, 16, 32])
def test_frobenius_norms_have_the_bits_of_numpy_norm(d):
    # one batched product per stack, each value equal to np.linalg.norm of its
    # matrix: stacks, grids, rectangular ground rows, strided views, no rows
    rng = np.random.default_rng(d)
    for shape in [(d, d), (3, d, d), (2, 4, d, d), (5, max(1, d // 3), d), (4, 0, d)]:
        for scale in (1.0, 1e-150, 1e100):
            X = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
            for view in (X, X[..., ::2, :], X.swapaxes(-1, -2)):
                mats = view.reshape(int(np.prod(view.shape[:-2])), *view.shape[-2:])
                want = np.array([np.linalg.norm(x) for x in mats]).reshape(view.shape[:-2])
                got = frobenius_norms(view)
                assert got.shape == want.shape
                assert np.array_equal(got, want)


@pytest.mark.parametrize("d", [4, 16])
def test_restricted_inverse_factorises_once(d, monkeypatch):
    # the singular values for the singularity test come from the least-squares
    # solve itself, so no separate SVD runs
    rng = np.random.default_rng(d)
    U = haar_unitary(rng, d)
    P1 = Projector(U[:, : d // 2] @ dagger(U[:, : d // 2]), d // 2)
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd reached: the block was factorised twice")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    R = restricted_inverse(M, P1)
    P1m = P1.matrix
    np.testing.assert_allclose(P1m @ M @ R @ P1m, P1m, atol=1e-10)
    np.testing.assert_allclose(R @ P1m, R, atol=1e-12)


def test_restricted_inverse_of_an_ill_conditioned_block():
    # condition number 5e8: the block passes the singular-value test and the
    # certification of Mr·Rr and Rr·Mr, and its inverse is exact
    M = np.diag([1.0, 2e-9 + 0j, 0.0])
    P1 = Projector(np.diag([1.0, 1.0, 0.0]), 2)
    R = restricted_inverse(M, P1)
    np.testing.assert_allclose(R, np.diag([1.0, 5e8, 0.0]), rtol=1e-12)
    with pytest.raises(SingularRestriction):
        restricted_inverse(M, P1, tol=1e-8)
