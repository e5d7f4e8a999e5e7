"""Coupling-scaled quantum stochastic models and their coefficient checks.

A scaled model packages the coefficients of a family of quantum stochastic
differential equations indexed by a coupling strength k:

    K(k) = k^2 Y + k A + B        (drift)
    L_i(k) = k F_i + G_i          (coupling to field channel i)
    S_ij(k) = W_ij                (scattering, k-independent)

``instantiate`` evaluates the family at one k.  The checkers report residuals
of the algebraic identities the family must satisfy so that each member
generates a unitary cocycle: the Hudson-Parthasarathy unitarity relations at
fixed k, and their order-by-order (in k) counterparts for the whole family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, InvalidOperator, InvalidProjector
from .linalg import Projector, as_operator, contract, dagger, frobenius_norms

DEFAULT_TOL = 1e-9


def _as_operator_stack(arr, name: str, dim: int | None) -> np.ndarray:
    """Coerce to shape (n, d, d) complex with finite entries, n and d positive."""
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise DimensionMismatch(f"{name} must be a sequence of square matrices, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DimensionMismatch(f"dim and channels must be positive, {name} has shape {arr.shape}")
    if dim is not None and arr.shape[1] != dim:
        raise DimensionMismatch(f"{name} has dimension {arr.shape[1]}, expected {dim}")
    if not np.all(np.isfinite(arr)):
        raise InvalidOperator(f"{name} contains non-finite entries")
    return arr


def norm_scale(*arrays) -> float:
    """max(1, largest Frobenius norm of an operator or of one matrix of a stack)
    used to scale check tolerances."""
    d = np.shape(arrays[0])[-1]
    stack = np.concatenate([np.reshape(a, (-1, d, d)) for a in arrays])
    return max(1.0, float(frobenius_norms(stack).max()))


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
            raise DimensionMismatch("Y, A, B must share one dimension")
        self.F = _as_operator_stack(self.F, "F", d)
        n = self.F.shape[0]
        self.G = _as_operator_stack(self.G, "G", d)
        if self.G.shape[0] != n:
            raise DimensionMismatch(f"G has {self.G.shape[0]} channels, F has {n}")
        W = np.asarray(self.W, dtype=complex)
        if W.shape != (n, n, d, d):
            raise DimensionMismatch(f"W must have shape ({n}, {n}, {d}, {d}), got {W.shape}")
        if not np.all(np.isfinite(W)):
            raise InvalidOperator("W contains non-finite entries")
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

    ``ground`` is set on eliminated limit models: the projector onto the
    surviving ground space, on which the unitarity relations close with P0 in
    place of the identity.
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
            raise DimensionMismatch(f"S must have shape ({n}, {n}, {d}, {d}), got {S.shape}")
        if not np.all(np.isfinite(S)):
            raise InvalidOperator("S contains non-finite entries")
        self.S = S
        if self.ground is not None and self.ground.dim != d:
            raise DimensionMismatch("ground projector dimension does not match K")

    @property
    def dim(self) -> int:
        return self.K.shape[0]

    @property
    def channels(self) -> int:
        return self.L.shape[0]


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
    try:
        return CoefficientSet(K=K, L=L, S=m.W.copy(), ground=None)
    except InvalidOperator as exc:  # K or L is not finite: W is
        raise _coupling_overflow(k) from exc


def _coefficients(m: ScaledModel, k) -> tuple[np.ndarray, np.ndarray]:
    """K = k²Y + kA + B and L = kF + G, unchecked, at a float k; or stacked,
    shape (nk, d, d) and (nk, n, d, d), at an (nk, 1, 1) array of couplings,
    each matrix with the bits of the same sum at one float k."""
    with np.errstate(over="ignore", invalid="ignore"):
        return k * k * m.Y + k * m.A + m.B, np.expand_dims(k, -1) * m.F + m.G


def _coupling_overflow(k: float) -> InvalidArgument:
    return InvalidArgument(
        f"coupling k = {k:g} overflows the coefficients K = k²Y + kA + B, L = kF + G"
    )


def _unitarity_residuals(c: CoefficientSet, closure: np.ndarray, label: str):
    """Residuals of the three unitarity identities with the given delta-closure."""
    diag = np.arange(c.channels)
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
    """Hudson-Parthasarathy unitarity relations with identity closure.

    K+K† = -Σ L_i†L_i, Σ_l S_il S_jl† = δ_ij I, Σ_l S_li†S_lj = δ_ij I.
    Tolerance is scaled by max(1, largest coefficient Frobenius norm).
    """
    if c.ground is not None:
        raise InvalidArgument(
            "coefficient set carries a ground projector; use check_limit_unitarity"
        )
    identity = np.eye(c.dim, dtype=complex)
    residuals = _unitarity_residuals(c, identity, "I")
    return CheckReport.from_residuals(residuals, tol * norm_scale(c.K, c.L, c.S))


def check_limit_unitarity(c: CoefficientSet, tol: float = DEFAULT_TOL) -> CheckReport:
    """Unitarity relations of a limit model, closing on the ground projector.

    K+K† = -Σ L_i†L_i, Σ_l S_il S_jl† = δ_ij P0, Σ_l S_li†S_lj = δ_ij P0.
    """
    if c.ground is None:
        raise InvalidProjector("limit coefficient set must carry a ground projector")
    c.ground.validate(tol * max(1.0, float(c.dim)))
    residuals = _unitarity_residuals(c, c.ground.matrix, "P0")
    return CheckReport.from_residuals(residuals, tol * norm_scale(c.K, c.L, c.S))


def check_scaling_consistency(m: ScaledModel, tol: float = DEFAULT_TOL) -> CheckReport:
    """Order-by-order (in k) dissipativity identities of the scaled family.

    Y+Y† = -Σ F_i†F_i, A+A† = -Σ (F_i†G_i + G_i†F_i), B+B† = -Σ G_i†G_i,
    each as a full-space identity.  Together they make every instantiation
    satisfy the unitarity drift relation, at any k.
    """
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
