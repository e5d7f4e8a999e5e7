"""Coupling-scaled quantum stochastic models and their coefficient checks.

A scaled model packages the coefficients of a family of quantum stochastic
differential equations indexed by a coupling strength k:

    K(k) = k^2 Y + k A + B        (drift)
    L_i(k) = k F_i + G_i          (coupling to field channel i)
    S_ij(k) = W_ij                (scattering, k-independent)

``instantiate`` evaluates the family at one k.  The checkers report residuals
of the algebraic identities the family must satisfy so that each member
generates a unitary cocycle: the Hudson-Parthasarathy unitarity relations at
fixed k, closing on I or on the ground projector P0 a limit set carries, and
their order-by-order (in k) counterparts for the whole family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidArgument
from .linalg import (
    Projector,
    _squared_frobenius_norms,
    as_operator,
    contract,
    dagger,
    frobenius_norms,
)

DEFAULT_TOL = 1e-9


def _as_operator_stack(arr, name: str, dim: int | None) -> np.ndarray:
    """Coerce to shape (n, d, d) complex with finite entries, n and d positive."""
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise InvalidArgument(f"{name} must be a sequence of square matrices, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InvalidArgument(f"dim and channels must be positive, {name} has shape {arr.shape}")
    if dim is not None and arr.shape[1] != dim:
        raise InvalidArgument(f"{name} has dimension {arr.shape[1]}, expected {dim}")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgument(f"{name} contains non-finite entries")
    return arr


def norm_scale(*arrays) -> float:
    """max(1, largest Frobenius norm of an operator or of one matrix of a stack)
    used to scale check tolerances.  The squared norms are taken array by
    array, so no copy of all the operators is made, and one square root is
    taken of the largest: the root is monotone and correctly rounded, so the
    scale has the bits of the largest np.linalg.norm."""
    d = np.shape(arrays[0])[-1]
    squares = [_squared_frobenius_norms(np.asarray(a).reshape(-1, d, d)).ravel() for a in arrays]
    return max(1.0, float(np.sqrt(np.concatenate(squares).max())))


def _require_tol(tol) -> None:
    """Refuses a check tolerance that is not finite and positive, before any work."""
    if not (np.isfinite(tol) and tol > 0):
        raise InvalidArgument(f"tol must be finite and positive, got {tol!r}")


@dataclass
class ScaledModel:
    """Coefficient family (Y, A, B, F_i, G_i, W_ij) of a coupling-scaled QSDE.

    ``F`` and ``G`` have shape (channels, dim, dim); ``W`` has shape
    (channels, channels, dim, dim).  Values are treated as immutable.
    """

    Y: np.ndarray
    A: np.ndarray
    B: np.ndarray
    F: np.ndarray
    G: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        self.Y = as_operator(self.Y, "Y")
        d = self.Y.shape[0]
        self.A = as_operator(self.A, "A")
        self.B = as_operator(self.B, "B")
        if self.A.shape[0] != d or self.B.shape[0] != d:
            raise InvalidArgument("Y, A, B must share one dimension")
        self.F = _as_operator_stack(self.F, "F", d)
        n = self.F.shape[0]
        self.G = _as_operator_stack(self.G, "G", d)
        if self.G.shape[0] != n:
            raise InvalidArgument(f"G has {self.G.shape[0]} channels, F has {n}")
        W = np.asarray(self.W, dtype=complex)
        if W.shape != (n, n, d, d):
            raise InvalidArgument(f"W must have shape ({n}, {n}, {d}, {d}), got {W.shape}")
        if not np.all(np.isfinite(W)):
            raise InvalidArgument("W contains non-finite entries")
        self.W = W

    @property
    def dim(self) -> int:
        return self.Y.shape[0]

    @property
    def channels(self) -> int:
        return self.F.shape[0]


@dataclass
class CoefficientSet:
    """QSDE coefficients (K, L_i, S_ij) at a single coupling value.

    ``ground`` is set on eliminated limit models: the projector P0 onto the
    surviving ground space.  ``closure``, the δ_ij operator of the unitarity
    relations and of displacements, is P0 there and the identity elsewhere.
    Values are treated as immutable: S may be shared.
    """

    K: np.ndarray
    L: np.ndarray
    S: np.ndarray
    ground: Projector | None = None

    def __post_init__(self):
        self.K = as_operator(self.K, "K")
        d = self.K.shape[0]
        self.L = _as_operator_stack(self.L, "L", d)
        n = self.L.shape[0]
        S = np.asarray(self.S, dtype=complex)
        if S.shape != (n, n, d, d):
            raise InvalidArgument(f"S must have shape ({n}, {n}, {d}, {d}), got {S.shape}")
        if not np.all(np.isfinite(S)):
            raise InvalidArgument("S contains non-finite entries")
        self.S = S
        if self.ground is not None and self.ground.dim != d:
            raise InvalidArgument("ground projector dimension does not match K")

    @cached_property
    def _scale(self) -> float:
        """norm_scale(K, L, S), the scale of the set's check tolerances, taken
        once for every report of the set."""
        return norm_scale(self.K, self.L, self.S)

    @property
    def dim(self) -> int:
        return self.K.shape[0]

    @property
    def channels(self) -> int:
        return self.L.shape[0]

    @property
    def closure(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex) if self.ground is None else self.ground.matrix


@dataclass
class CheckReport:
    """Named residuals of a family of identities against one tolerance.

    A non-finite tolerance (the norm scale of the operators overflowed)
    certifies nothing, so the report fails whatever the residuals.
    """

    passed: bool
    residuals: list[tuple[str, float]]
    tolerance: float

    @classmethod
    def from_residuals(cls, residuals, tolerance: float) -> "CheckReport":
        residuals = [(name, float(r)) for name, r in residuals]
        passed = bool(np.isfinite(tolerance)) and all(r <= tolerance for _, r in residuals)
        return cls(passed=passed, residuals=residuals, tolerance=float(tolerance))

    @property
    def max_residual(self) -> float:
        return max((r for _, r in self.residuals), default=0.0)

    def residual(self, name: str) -> float:
        for n, r in self.residuals:
            if n == name:
                return r
        raise KeyError(name)


def instantiate(m: ScaledModel, k: float) -> CoefficientSet:
    """Evaluate the scaled family at coupling k >= 0.

    Raises InvalidArgument for a negative or NaN k, or when K or L overflows float64.
    """
    k = float(k)
    if not k >= 0:
        raise InvalidArgument(f"coupling must be a non-negative number, got k = {k}")
    K, L = _coefficients(m, k)
    return CoefficientSet(K=K, L=L, S=m.W, ground=None)


def _coefficients(m: ScaledModel, k) -> tuple[np.ndarray, np.ndarray]:
    """K = k²Y + kA + B and L = kF + G at a float k; or stacked, shape
    (nk, d, d) and (nk, n, d, d), at an (nk, 1, 1) array of couplings, each
    matrix with the bits of the same sum at one float k.  Raises
    InvalidArgument naming the first coupling at which K or L overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        K, L = k * k * m.Y + k * m.A + m.B, np.expand_dims(k, -1) * m.F + m.G
    finite = np.isfinite(K).all(axis=(-2, -1)) & np.isfinite(L).all(axis=(-3, -2, -1))
    if not finite.all():
        bad = np.ravel(k)[~np.ravel(finite)][0]
        raise InvalidArgument(
            f"coupling k = {bad:g} overflows the coefficients K = k²Y + kA + B, L = kF + G"
        )
    return K, L


def _unitarity_residuals(c: CoefficientSet):
    """Residuals of the three unitarity identities, closing on ``c.closure``."""
    diag, closure = np.arange(c.channels), c.closure
    label = "I" if c.ground is None else "P0"
    r_drift = np.linalg.norm(c.K + dagger(c.K) + contract("iba,ibc->ac", c.L.conj(), c.L))
    # S_il S_jl† and S_li† S_lj less δ_ij·closure, worst case over (i, j)
    ssd = contract("ilab,jlcb->ijac", c.S, c.S.conj())
    sds = contract("liba,ljbc->ijac", c.S.conj(), c.S)
    ssd[diag, diag] -= closure
    sds[diag, diag] -= closure
    return [
        ("K+K† = -ΣL†L", float(r_drift)),
        (f"Σ S·S† = δ·{label}", float(frobenius_norms(ssd).max())),
        (f"Σ S†·S = δ·{label}", float(frobenius_norms(sds).max())),
    ]


def check_hp_unitarity(c: CoefficientSet, tol: float = DEFAULT_TOL) -> CheckReport:
    """Hudson-Parthasarathy unitarity relations, closing on ``c.closure``.

    K+K† = -Σ L_i†L_i, Σ_l S_il S_jl† = δ_ij D, Σ_l S_li†S_lj = δ_ij D, with D
    a limit set's ground projector, validated first, or else I.  Tolerance is
    scaled by max(1, largest coefficient Frobenius norm).
    """
    _require_tol(tol)
    if c.ground is not None:
        c.ground.validate(tol * max(1.0, float(c.dim)))
    return CheckReport.from_residuals(_unitarity_residuals(c), tol * c._scale)


def check_scaling_consistency(m: ScaledModel, tol: float = DEFAULT_TOL) -> CheckReport:
    """Order-by-order (in k) dissipativity identities of the scaled family.

    Y+Y† = -Σ F_i†F_i, A+A† = -Σ (F_i†G_i + G_i†F_i), B+B† = -Σ G_i†G_i,
    each as a full-space identity.  Together they make every instantiation
    satisfy the unitarity drift relation, at any k.
    """
    _require_tol(tol)
    r1 = np.linalg.norm(m.Y + dagger(m.Y) + contract("iba,ibc->ac", m.F.conj(), m.F))
    cross = contract("iba,ibc->ac", m.F.conj(), m.G)
    r2 = np.linalg.norm(m.A + dagger(m.A) + cross + dagger(cross))
    r3 = np.linalg.norm(m.B + dagger(m.B) + contract("iba,ibc->ac", m.G.conj(), m.G))
    residuals = [
        ("Y+Y† = -ΣF†F", float(r1)),
        ("A+A† = -Σ(F†G+G†F)", float(r2)),
        ("B+B† = -ΣG†G", float(r3)),
    ]
    return CheckReport.from_residuals(residuals, tol * norm_scale(m.Y, m.A, m.B, m.F, m.G, m.W))
