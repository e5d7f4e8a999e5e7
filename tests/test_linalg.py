"""Tests for the dense linear algebra kernels."""

import numpy as np
import pytest

from qsde_elim import (
    DimensionMismatch,
    InvalidArgument,
    InvalidOperator,
    InvalidProjector,
    Projector,
    SingularRestriction,
    assemble_superoperator,
    dagger,
    expm,
    kernel_projector,
    op_distance,
    restricted_inverse,
    unvec,
    vec,
)
from factories import haar_unitary


def test_vec_column_stacking():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(vec(X), [1.0, 3.0, 2.0, 4.0])


def test_unvec_roundtrip():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_array_equal(unvec(vec(X)), X)


def test_unvec_rejects_non_square_length():
    with pytest.raises(DimensionMismatch):
        unvec(np.arange(6))


def test_dagger():
    M = np.array([[1.0 + 2.0j, 3.0], [0.0, -1.0j]])
    np.testing.assert_array_equal(dagger(M), M.conj().T)


def test_as_operator_rejects_nonsquare_and_nonfinite():
    from qsde_elim.linalg import as_operator

    with pytest.raises(DimensionMismatch):
        as_operator(np.zeros((2, 3)))
    with pytest.raises(InvalidOperator):
        as_operator(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_projector_validate_accepts_true_projector():
    P = Projector(np.diag([1.0, 0.0, 1.0]), 2)
    P.validate()


def test_projector_validate_rejects_defects():
    with pytest.raises(InvalidProjector):
        Projector(np.array([[1.0, 1.0], [0.0, 0.0]]), 1).validate()
    with pytest.raises(InvalidProjector):
        Projector(np.diag([0.5, 0.0]), 1).validate()
    with pytest.raises(InvalidProjector):
        Projector(np.diag([1.0, 1.0]), 1).validate()
    with pytest.raises(InvalidProjector):
        Projector(np.eye(2), 5)


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


def test_restricted_inverse_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        restricted_inverse(np.eye(3), Projector(np.eye(2), 2))


def test_expm_rotation_quarter_turn():
    gen = np.array([[0.0, -1.0], [1.0, 0.0]])
    R = expm((np.pi / 2) * gen)
    np.testing.assert_allclose(R, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)


def test_assemble_superoperator_matches_sandwich():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = rng.integers(1, 5)
        L = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        R = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        S = assemble_superoperator(L, R)
        np.testing.assert_allclose(unvec(S @ vec(X)), L @ X @ R, atol=1e-12)


def test_assemble_superoperator_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        assemble_superoperator(np.eye(2), np.eye(3))


def test_op_distance_oracle():
    assert op_distance(np.diag([3.0, 0.0]), np.diag([0.0, -4.0])) == pytest.approx(5.0)
    with pytest.raises(DimensionMismatch):
        op_distance(np.eye(2), np.eye(3))
