"""Dense complex linear algebra kernels.

Conventions used throughout the package:

* Operators are square complex ``numpy`` arrays.
* ``vec`` stacks columns: ``vec(X)[i + d*j] = X[i, j]``.  With that choice the
  map ``X -> L @ X @ R`` has matrix ``kron(R.T, L)`` acting on ``vec(X)``,
  which is what :func:`assemble_superoperator` returns.
* Distances between operators are Frobenius norms.

Only numpy is imported here; scipy is loaded by the first :func:`expm` call,
so the certificate paths that need no matrix exponential never pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    InvalidOperator,
    InvalidProjector,
    SingularRestriction,
)

DEFAULT_RANK_TOL = 1e-9


def as_operator(M, name: str = "operator") -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidOperator(f"{name} contains non-finite entries")
    return M


def dagger(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return M.conj().T


def vec(X: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(X).reshape(-1, order="F")


def unvec(w: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec` for square operators."""
    w = np.asarray(w)
    d = int(round(np.sqrt(w.size)))
    if d * d != w.size:
        raise DimensionMismatch(f"vector of length {w.size} is not a vectorized square matrix")
    return w.reshape((d, d), order="F")


@dataclass
class Projector:
    """Orthogonal projector with its rank kept alongside the matrix."""

    matrix: np.ndarray
    rank: int

    def __post_init__(self):
        self.matrix = as_operator(self.matrix, "projector")
        self.rank = int(self.rank)
        if not 0 <= self.rank <= self.matrix.shape[0]:
            raise InvalidProjector(f"rank {self.rank} out of range for dim {self.matrix.shape[0]}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def validate(self, tol: float = 1e-9) -> None:
        """Check P = P†, P² = P and trace(P) = rank, else raise InvalidProjector."""
        P = self.matrix
        if np.linalg.norm(P - dagger(P)) > tol:
            raise InvalidProjector("projector is not Hermitian")
        if np.linalg.norm(P @ P - P) > tol:
            raise InvalidProjector("projector is not idempotent")
        if abs(np.trace(P).real - self.rank) > tol * max(1.0, self.dim):
            raise InvalidProjector(
                f"trace {np.trace(P).real:.6g} does not match declared rank {self.rank}"
            )


def kernel_projector(M, rank_tol: float = DEFAULT_RANK_TOL) -> Projector:
    """Orthogonal projector onto the numerical kernel of ``M``.

    Singular values sigma <= rank_tol * sigma_max count as zero; a zero matrix
    yields the identity projector.  ``rank_tol`` must be finite and positive.
    """
    return _kernel_split(M, rank_tol)[0]


def _kernel_split(M, rank_tol: float) -> tuple[Projector, np.ndarray]:
    """:func:`kernel_projector` plus the singular values of ``M``, descending."""
    M = as_operator(M, "M")
    if not (np.isfinite(rank_tol) and rank_tol > 0):
        raise InvalidArgument(f"rank_tol must be finite and positive, got {rank_tol!r}")
    d = M.shape[0]
    _, s, vh = np.linalg.svd(M)
    if s.size and s[0] > 0:
        null_mask = s <= rank_tol * s[0]
    else:
        null_mask = np.ones(d, dtype=bool)
    V = dagger(vh)[:, null_mask]
    P = V @ dagger(V)
    P = 0.5 * (P + dagger(P))
    return Projector(P, int(null_mask.sum())), s


def restricted_inverse(M, P1: Projector, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Inverse of ``M`` restricted to the range of ``P1``, zero elsewhere.

    Solves the restricted block in an orthonormal basis of range(P1) by least
    squares, then certifies that P1·M·R·P1 and P1·R·M·P1 reproduce P1.  Raises
    SingularRestriction (carrying the offending singular value) when the
    restricted block is numerically singular, i.e. its smallest singular value
    is <= tol times its largest.
    """
    M = as_operator(M, "M")
    if M.shape[0] != P1.dim:
        raise DimensionMismatch(f"M is {M.shape[0]}x{M.shape[0]} but projector dim is {P1.dim}")
    d = M.shape[0]
    if P1.rank == 0:
        return np.zeros((d, d), dtype=complex)

    evals, evecs = np.linalg.eigh(P1.matrix)
    basis = evecs[:, evals > 0.5]
    if basis.shape[1] != P1.rank:
        raise InvalidProjector(
            f"projector eigenvalues do not match declared rank {P1.rank}"
        )

    Mr = dagger(basis) @ M @ basis
    s = np.linalg.svd(Mr, compute_uv=False)
    if s[0] == 0 or s[-1] <= tol * s[0]:
        raise SingularRestriction(
            f"restriction of M to range(P1) is numerically singular "
            f"(smallest singular value {s[-1]:.3e})",
            sigma=float(s[-1]),
        )
    Rr, *_ = np.linalg.lstsq(Mr, np.eye(P1.rank, dtype=complex), rcond=None)
    R = basis @ Rr @ dagger(basis)

    P1m = P1.matrix
    scale = max(1.0, float(np.linalg.norm(M)))
    res_right = np.linalg.norm(P1m @ M @ R @ P1m - P1m)
    res_left = np.linalg.norm(P1m @ R @ M @ P1m - P1m)
    if max(res_right, res_left) > tol * scale:
        raise SingularRestriction(
            f"restricted inverse failed certification "
            f"(residuals {res_right:.3e}, {res_left:.3e})",
            sigma=float(s[-1]),
        )
    return R


def expm(M) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with diagonal Pade approximant)."""
    import scipy.linalg  # deferred: about two thirds of the package's import time

    M = as_operator(M, "M")
    return scipy.linalg.expm(M)


def assemble_superoperator(left, right) -> np.ndarray:
    """Matrix of ``X -> left @ X @ right`` acting on vec(X) (column stacking)."""
    left = as_operator(left, "left")
    right = as_operator(right, "right")
    if left.shape != right.shape:
        raise DimensionMismatch(
            f"left {left.shape} and right {right.shape} factors must share a dimension"
        )
    return np.kron(right.T, left)


def op_distance(A, B) -> float:
    """Frobenius distance between two operators of equal shape."""
    A = as_operator(A, "A")
    B = as_operator(B, "B")
    if A.shape != B.shape:
        raise DimensionMismatch(f"shape mismatch {A.shape} vs {B.shape}")
    return float(np.linalg.norm(A - B))
