"""Dense complex linear algebra kernels.

Conventions used throughout the package:

* Operators are square complex ``numpy`` arrays.
* ``vec`` stacks columns: ``vec(X)[i + d*j] = X[i, j]``.  With that choice the
  map ``X -> L @ X @ R`` has matrix ``kron(R.T, L)`` acting on ``vec(X)``.
* Distances between operators are Frobenius norms; :func:`frobenius_norms`
  takes those of a whole stack in one batched product, with the bits of
  ``np.linalg.norm`` on each matrix.
* A channel-indexed stack of operators has shape (n, d, d), a channel-indexed
  grid (n, n, d, d).  A contraction over the channel index runs as one BLAS
  product: ``blocks`` reshapes a grid to the nd x nd matrix whose (i, j) block
  is W_ij, ``column`` a stack to the nd x d matrix of its blocks, so that
  Σ_i X_i†W_ij is column(X)†·blocks(W), Σ_i X_i†Y_i is column(X)†·column(Y)
  and the scattering Gram sums are B·B† and B†·B with B = blocks(S).

One exactness rule holds for every dimension-dependent kernel: models of
dimension at most :data:`RECORDED_ARITHMETIC_MAX_DIM` keep the arithmetic the
benchmark's recorded CLI outputs (``bench/data/reference.json``) were made
with.  That is numpy's einsum loop for channel contractions, the restricted
inverse on the eigenvectors of P1, P0 as the ground factor of every
inverse-structure residual in its written association (P0·X·P1, see
``eliminate.check_inverse_structure``), and the full d x d state in
propagation, stepped by every distinct float difference of the time grid.
Above that dimension propagation steps the ground rows by the grid's one
step length.  A BLAS product sums in another order, with fused multiply-adds,
a product by a ground basis V0 instead of by P0 rounds differently, and a
step of the one length instead of the grid difference an ulp from it gives
another exponential: each moves the last bits of recorded outputs.  The
comment on the constant names the outputs each of the four kernels pins.  A
stacked matmul keeps the bits: each of its matrices equals the 2-d product.

Only numpy and the standard library are imported here.  On scipy 1.17 or
later the first :func:`expm` call loads scipy's compiled expm kernel from its
file; scipy.linalg is then imported only for a triangular input or an
unusable kernel.  On an older scipy every exponential is scipy.linalg.expm.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NumericalFailure, ResourceLimit, SingularRestriction

DEFAULT_RANK_TOL = 1e-9
# Models up to this dimension keep the arithmetic the benchmark's 16 recorded
# CLI outputs (bench/data/reference.json, four commands on four catalog
# models, all of dimension at most 8) were made with.  Each kernel's d <= 8
# branch pins its own outputs; switched to the d > 8 arithmetic, it moves the
# bytes of
#   contract, the einsum loop (below): check and eliminate on two_level and
#     alkali;
#   decompose, Y1inv on the eigenvectors of P1 (eliminate): all four lambda
#     calls;
#   the inverse-structure check, P0 rather than V0 (eliminate): check and
#     eliminate on cavity and lambda;
#   propagation, the full d x d state stepped by every distinct float
#     difference of the time grid, not by its one step length (semigroup):
#     converge on all four models (the step length alone moves all four).
# That is 13 of the 16; kurtz on two_level, alkali and cavity moves under none
# of the four.  tools/planted_faults.py switches each branch and checks that
# these outputs move.  For the two-level limit with phase 0.6+0.8i, for
# example, a BLAS product with fused multiply-adds gives a limit-unitarity
# residual of 6.7e-18 where einsum gives exactly 0.  Removing
# any branch, or the constant, needs a change to the benchmark that
# re-records reference.json.
RECORDED_ARITHMETIC_MAX_DIM = 8
PROJECTOR_TOL = 1e-9  # Projector.validate's, and a ground basis V0's against P0
# Largest generator matrix assembled: 32 MiB, a 1448 x 1448 complex matrix.
# expm allocates at most 8 times its input (measured); with the input itself
# one expm peaks near PEAK_BUDGET_BYTES, 288 MiB.  A catalog model's operators
# together are held to that peak: they are allocated once, the generator's at
# every coupling.
GENERATOR_BUDGET_BYTES = 32 * 2**20
PEAK_BUDGET_BYTES = 9 * GENERATOR_BUDGET_BYTES


def as_operator(M, name: str = "operator") -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidArgument(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidArgument(f"{name} contains non-finite entries")
    return M


def dagger(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return M.conj().T


def vec(X: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(X).reshape(-1, order="F")


@dataclass
class Projector:
    """Orthogonal projector with its rank kept alongside the matrix."""

    matrix: np.ndarray
    rank: int

    def __post_init__(self):
        self.matrix = as_operator(self.matrix, "projector")
        self.rank = int(self.rank)
        if not 0 <= self.rank <= self.matrix.shape[0]:
            raise InvalidArgument(f"rank {self.rank} out of range for dim {self.matrix.shape[0]}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def validate(self, tol: float = PROJECTOR_TOL) -> None:
        """Check P = P†, P² = P and trace(P) = rank to tol >= 0, else raise InvalidArgument."""
        if not tol >= 0:  # NaN included; +inf passes every projector
            raise InvalidArgument(f"tol must be non-negative, got {tol!r}")
        P = self.matrix
        if np.linalg.norm(P - dagger(P)) > tol:
            raise InvalidArgument("projector is not Hermitian")
        if np.linalg.norm(P @ P - P) > tol:
            raise InvalidArgument("projector is not idempotent")
        if abs(np.trace(P).real - self.rank) > tol * max(1.0, self.dim):
            raise InvalidArgument(
                f"trace {np.trace(P).real:.6g} does not match declared rank {self.rank}"
            )

    def complement(self) -> "Projector":
        """I - P, the projector onto the orthogonal complement of the range."""
        return Projector(np.eye(self.dim, dtype=complex) - self.matrix, self.dim - self.rank)

    def basis(self) -> np.ndarray:
        """Orthonormal basis of the range: the eigenvectors of eigenvalue > 1/2.

        Raises InvalidArgument when their count is not the declared rank.
        """
        evals, evecs = np.linalg.eigh(self.matrix)
        basis = evecs[:, evals > 0.5]
        if basis.shape[1] != self.rank:
            raise InvalidArgument(f"projector eigenvalues do not match declared rank {self.rank}")
        return basis


def _require_tol(tol, name: str = "tol") -> None:
    """Refuses a tolerance that is not finite and positive, before any work."""
    if not (np.isfinite(tol) and tol > 0):
        raise InvalidArgument(f"{name} must be finite and positive, got {tol!r}")


def kernel_projector(M, rank_tol: float = DEFAULT_RANK_TOL) -> Projector:
    """Orthogonal projector onto the numerical kernel of ``M``.

    Singular values sigma <= rank_tol * sigma_max count as zero; a zero matrix
    yields the identity projector.  ``rank_tol`` must be finite and positive.
    """
    return _kernel_split(M, rank_tol)[0]


def _kernel_split(M, rank_tol: float) -> tuple[Projector, np.ndarray, np.ndarray]:
    """:func:`kernel_projector`, the singular values of ``M``, descending, and
    the right singular vectors as columns: the last ``rank`` of them span the
    kernel, the others its complement."""
    M = as_operator(M, "M")
    _require_tol(rank_tol, "rank_tol")
    d = M.shape[0]
    _, s, vh = np.linalg.svd(M)
    if s.size and s[0] > 0:
        null_mask = s <= rank_tol * s[0]
    else:
        null_mask = np.ones(d, dtype=bool)
    V = dagger(vh)
    V0 = V[:, null_mask]
    P = V0 @ dagger(V0)
    P = 0.5 * (P + dagger(P))
    return Projector(P, int(null_mask.sum())), s, V


def restricted_inverse(M, P1: Projector, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Inverse of ``M`` restricted to the range of ``P1``, zero elsewhere.

    Solves the restricted block in an orthonormal basis of range(P1) by least
    squares, then certifies that P1·M·R·P1 and P1·R·M·P1 reproduce P1.  Raises
    SingularRestriction (carrying the offending singular value) when the
    restricted block is numerically singular, i.e. its smallest singular value
    is <= tol times its largest, and NumericalFailure when the inverse of a
    nonsingular but tiny block (a subnormal one, say) or the norm of M, against
    which the residuals are certified, overflows float64.  ``tol`` must be
    finite and positive.
    """
    M = as_operator(M, "M")
    _require_tol(tol)
    if M.shape[0] != P1.dim:
        raise InvalidArgument(f"M is {M.shape[0]}x{M.shape[0]} but projector dim is {P1.dim}")
    return _inverse_on(M, P1.basis(), tol)


def _inverse_on(M: np.ndarray, basis: np.ndarray, tol: float) -> np.ndarray:
    """:func:`restricted_inverse` on the span of the orthonormal columns of ``basis``.

    The certification runs in the basis coordinates: with P1 = basis·basis†
    and R = basis·Rr·basis†, P1·M·R·P1 - P1 is basis·(Mr·Rr - I)·basis†,
    whose norm is that of Mr·Rr - I, and likewise for R·M.
    """
    d, rank = basis.shape
    if rank == 0:
        return np.zeros((d, d), dtype=complex)
    Mr = dagger(basis) @ M @ basis
    eye = np.eye(rank, dtype=complex)
    # the inverse can overflow; the checks below report that, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        # lstsq (LAPACK gelsd) factorises Mr by an SVD and returns its singular
        # values, descending: one factorisation gives the test and the inverse
        Rr, _, _, s = np.linalg.lstsq(Mr, eye, rcond=None)
        R = basis @ Rr @ dagger(basis)
    if s[0] == 0 or s[-1] <= tol * s[0]:
        raise SingularRestriction(
            f"restriction of M to range(P1) is numerically singular "
            f"(smallest singular value {s[-1]:.3e})",
            sigma=float(s[-1]),
        )
    if not np.all(np.isfinite(R)):
        raise NumericalFailure(
            "restricted inverse overflowed to non-finite entries "
            f"(smallest singular value of the restricted block {s[-1]:.3e})"
        )

    # ||M|| in units of its largest real or imaginary part, so no square overflows
    top = max(np.abs(M.real).max(), np.abs(M.imag).max())
    scale = max(1.0, float(top) * float(np.linalg.norm(M / top)))
    if not np.isfinite(scale):
        raise NumericalFailure(
            "the norm of M overflows float64, so the restricted inverse cannot be certified"
        )
    res_right = np.linalg.norm(Mr @ Rr - eye)
    res_left = np.linalg.norm(Rr @ Mr - eye)
    if max(res_right, res_left) > tol * scale:
        raise SingularRestriction(
            f"restricted inverse failed certification "
            f"(residuals {res_right:.3e}, {res_left:.3e})",
            sigma=float(s[-1]),
        )
    return R


def expm(M) -> np.ndarray:
    """scipy.linalg.expm (Al-Mohy & Higham 2009), bit for bit.

    A 1x1 or diagonal M is exponentiated entrywise, as scipy does.  A
    triangular one goes to scipy.linalg.expm itself, whose squarings recompute
    the diagonal (Code Fragment 2.1 of the paper).  Every other M goes to
    scipy's compiled Padé kernel (see :func:`_pade_exp`).  A failure status of
    the kernel is ResourceLimit (an allocation) or NumericalFailure (a LAPACK
    solve)."""
    M = as_operator(M, "M")
    if len(M) > 1 and M[1, 0] != 0 and M[0, 1] != 0:  # neither triangle is zero
        return _pade_exp(M)
    below = np.tri(len(M), k=-1, dtype=bool)
    lower, upper = M[below].any(), M.T[below].any()
    if not (lower or upper):
        return np.diag(np.exp(M.diagonal()))
    if not (lower and upper):
        return _scipy_expm(M)
    return _pade_exp(M)


def _scipy_expm(A: np.ndarray) -> np.ndarray:
    import scipy.linalg  # deferred: its __init__ takes about 0.2 s and 28 MB

    return scipy.linalg.expm(A)


_KERNEL_NAME = "scipy.linalg._matfuncs_expm"
# The oldest scipy whose kernel is known to load alone: in 1.17 it is a C
# module that imports nothing but numpy's C API.  An older kernel may be a
# Cython module that cimports scipy.linalg.cython_lapack; loaded from its file,
# that would run scipy.linalg's __init__ halfway through the kernel's own load,
# and the __init__ would import the half-loaded kernel and fail, leaving
# scipy.linalg unusable.  There every exponential is scipy.linalg.expm.
_KERNEL_ALONE_SINCE = (1, 17)


@functools.cache
def _kernel():
    """scipy's compiled expm kernel, loaded and checked once per process, or
    None where scipy is older than :data:`_KERNEL_ALONE_SINCE` or the kernel is
    missing, does not load or fails the check.  It is loaded from its file, so
    that scipy.linalg's __init__ never runs (it clones numpy's namespace,
    numpy.f2py included); a kernel already in sys.modules is reused."""
    spec = importlib.util.find_spec("scipy")  # finds the package, runs none of it
    if spec is None or spec.origin is None:
        return None
    package = os.path.dirname(spec.origin)
    if _scipy_version(package) < _KERNEL_ALONE_SINCE:
        return None
    try:
        kernel = sys.modules.get(_KERNEL_NAME) or _load_alone(package)
    except ImportError:
        return None
    return _checked(kernel)


def _scipy_version(package: str) -> tuple[int, ...]:
    """(major, minor) of the scipy in the directory ``package``, read from its
    version.py without running it (importlib.metadata would take about 26 ms
    and 2.4 MB); (0,) where that file is missing or has no version line."""
    try:
        with open(os.path.join(package, "version.py"), encoding="utf-8") as f:
            found = re.search(r"""^version\s*=\s*['"](\d+)\.(\d+)""", f.read(), re.M)
    except OSError:
        return (0,)
    return (int(found[1]), int(found[2])) if found else (0,)


def _load_alone(package: str):
    """The kernel, loaded from its file in the scipy directory ``package`` into
    sys.modules, running neither scipy's nor scipy.linalg's __init__; None
    where that directory has no kernel."""
    loader = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(os.path.join(package, "linalg"), loader).find_spec(_KERNEL_NAME)
    if spec is None:
        return None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_KERNEL_NAME] = module  # a later import of scipy.linalg shares it
    return module


def _checked(kernel):
    """``kernel`` if it gives exp([[0, 1], [-1, 0]]) = [[cos 1, sin 1], [-sin 1,
    cos 1]], else None: its interface is private to scipy and may differ
    between releases."""
    c, s = np.cos(1.0), np.sin(1.0)
    try:
        E = _kernel_exp(kernel, np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex))
    except (AttributeError, TypeError, ValueError, NumericalFailure, ResourceLimit):
        return None  # no kernel, or another signature, return type or meaning of its status
    return kernel if np.abs(E - [[c, s], [-s, c]]).max() <= 1e-15 else None


def _pade_exp(A: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm of a complex A that is not triangular: by scipy's
    kernel, or by scipy.linalg.expm where :func:`_kernel` has none."""
    kernel = _kernel()
    return _scipy_expm(A) if kernel is None else _kernel_exp(kernel, A)


def _kernel_exp(kernel, A: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm's generic branch: the kernel scales A by 2^-s in Am[0]
    and puts its powers in Am[1:], choosing the Padé degree m, and evaluates
    the approximant in Am[0]; the s squarings follow."""
    Am = np.empty((5, *A.shape), dtype=complex)
    Am[0] = A
    m, s = kernel.pick_pade_structure(Am)
    if m < 0:
        raise ResourceLimit(f"expm could not allocate its Padé workspace (code {m})")
    info = kernel.pade_UV_calc(Am, m)
    if info <= -11:
        raise ResourceLimit(f"expm could not allocate its Padé workspace (code {info})")
    if info != 0:
        raise NumericalFailure(f"the LAPACK solve of expm's Padé approximant failed (code {info})")
    E = Am[0].copy()  # keeps none of the workspace alive
    for _ in range(s):
        E = E @ E
    return E


def frobenius_norms(X: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, in one batched product.

    Each equals ``np.linalg.norm`` of its matrix bit for bit: that norm is the
    square root of the BLAS dot of the real parts with themselves plus that of
    the imaginary parts, taken in memory order, and a stacked (1 x m)·(m x 1)
    matmul makes the same dot call, over the same strides, for every matrix.
    """
    return np.sqrt(_squared_frobenius_norms(X))[..., 0, 0]


def _squared_frobenius_norms(X: np.ndarray) -> np.ndarray:
    """The squares :func:`frobenius_norms` takes the roots of, of shape (..., 1, 1)."""
    if X.strides[-2] < X.strides[-1]:  # column-major matrices: read them in memory order
        X = X.swapaxes(-1, -2)
    flat = X.reshape(*X.shape[:-2], 1, X.shape[-2] * X.shape[-1])
    re, im = flat.real, flat.imag
    return re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)


def blocks(W: np.ndarray) -> np.ndarray:
    """The nd x nd matrix whose (i, j) block is W_ij, of an (n, n, d, d) grid."""
    n, _, d, _ = W.shape
    return W.transpose(0, 2, 1, 3).reshape(n * d, n * d)


def unblocks(M: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`blocks` for blocks of size d."""
    n = M.shape[0] // d
    return M.reshape(n, d, n, d).transpose(0, 2, 1, 3)


def column(X: np.ndarray) -> np.ndarray:
    """The nd x d matrix stacking the blocks X_i of an (n, d, d) stack."""
    n, d, _ = X.shape
    return X.reshape(n * d, d)


def _adjoint_sums(Xc: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Σ_i X_i† W_ij, the (n, d, d) stack of the d x nd row column(X)†·blocks(W)."""
    n, d = Xc.shape[0], Xc.shape[-1]
    return (column(Xc).T @ blocks(W)).reshape(d, n, d).transpose(1, 0, 2)


# The channel contractions of the package as BLAS products.  Operands arrive
# as einsum takes them, conjugates included: column(Xc).T is column(X)† when
# Xc = conj(X).
_BLAS_FORMS = {
    # Σ_i X_i† W_ij
    "iba,ijbc->jac": _adjoint_sums,
    # Σ_i X_i† Y_i
    "iba,ibc->ac": lambda Xc, Y: column(Xc).T @ column(Y),
    # Σ_l S_il S_jl†
    "ilab,jlcb->ijac": lambda S, Sc: unblocks(blocks(S) @ blocks(Sc).T, S.shape[-1]),
    # Σ_l S_li† S_lj
    "liba,ljbc->ijac": lambda Sc, S: unblocks(blocks(Sc).T @ blocks(S), S.shape[-1]),
    # Σ_i c_i X_i
    "i,iab->ab": lambda c, X: (c @ X.reshape(len(c), -1)).reshape(X.shape[1:]),
    # (Σ_j W_ij a_j)_i
    "j,ijab->iab": lambda a, W: (a @ W.reshape(*W.shape[:2], -1)).reshape(W.shape[1:]),
    # Σ_ij c_i W_ij a_j
    "i,ijab,j->ab": lambda c, W, a: (
        (np.outer(c, a).ravel() @ W.reshape(len(c) ** 2, -1)).reshape(W.shape[2:])
    ),
}


def contract(spec: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(spec, *operands)`` for the channel contractions of the package.

    Operators of dimension at most :data:`RECORDED_ARITHMETIC_MAX_DIM` go
    through einsum itself; larger ones through BLAS products of channel-block
    matrices, which agree with einsum to rounding.
    """
    d = max(op.shape[-1] for op in operands if op.ndim > 1)  # amplitudes are 1-d
    if d <= RECORDED_ARITHMETIC_MAX_DIM:
        return np.einsum(spec, *operands)
    return _BLAS_FORMS[spec](*operands)
