"""Adiabatic elimination of the fast sector of a coupling-scaled model.

The kernel of Y is the slow (ground) sector; its orthogonal complement is the
fast (excited) sector, removed in the strong-coupling limit.  With P0 the
projector onto Ker(Y), P1 = I - P0, and Y1inv the inverse of Y restricted to
the excited sector, the limit coefficients are

    K    = P0 (B - A Y1inv A) P0
    L_i  = (G_i - F_i Y1inv A) P0
    S_ij = sum_l (delta_il + F_i Y1inv F_l†) W_lj P0

The limit is meaningful only when the structural identities verified by
:func:`check_inverse_structure` hold (they tie Y1inv to the model operators
and forbid transitions that would survive into the fast sector) and when the
limit coefficients are supported on the ground sector
(:func:`check_ground_support`).  ``eliminate`` always evaluates the formulas
verbatim and returns the check reports alongside, so a failing model yields
an explicit diagnosis rather than a silent fallback.

Weyl displacement of the driving fields maps scaled models to scaled models
(:func:`displace_scaled`) and limit models to limit models
(:func:`displace_limit`); elimination commutes with it, with the same P0 and
Y1inv on both routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidOperator, NumericalFailure
from .linalg import DEFAULT_RANK_TOL, Projector, _kernel_split, as_operator, restricted_inverse
from .model import (
    DEFAULT_TOL,
    CheckReport,
    CoefficientSet,
    ScaledModel,
    check_limit_unitarity,
    norm_scale,
)


@dataclass
class Decomposition:
    """Ground/excited split of a scaled model: P0, P1 = I - P0, and Y1inv."""

    P0: Projector
    P1: Projector
    Y1inv: np.ndarray
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.Y1inv = as_operator(self.Y1inv, "Y1inv")
        if not (self.P0.dim == self.P1.dim == self.Y1inv.shape[0]):
            raise DimensionMismatch("P0, P1 and Y1inv must share one dimension")


@dataclass
class EliminationResult:
    """Limit coefficients plus every structural check report."""

    decomposition: Decomposition
    limit: CoefficientSet
    inverse_structure: CheckReport
    ground_support: CheckReport
    limit_unitarity: CheckReport
    warnings: list[str] = field(default_factory=list)

    @property
    def assumptions_pass(self) -> bool:
        return self.inverse_structure.passed and self.ground_support.passed


def as_amplitude(alpha, channels: int) -> np.ndarray:
    """Coerce a per-channel complex displacement amplitude vector."""
    a = np.atleast_1d(np.asarray(alpha, dtype=complex)).ravel()
    if a.size != channels:
        raise DimensionMismatch(f"amplitude has {a.size} entries, model has {channels} channels")
    if not np.all(np.isfinite(a)):
        raise InvalidOperator("amplitude contains non-finite entries")
    return a


def decompose(
    m: ScaledModel,
    rank_tol: float = DEFAULT_RANK_TOL,
    y1inv_override: np.ndarray | None = None,
) -> Decomposition:
    """Split the state space along Ker(Y) and invert Y on the complement.

    An explicitly supplied ``y1inv_override`` replaces the computed restricted
    inverse; it is still subject to the structural checks downstream.
    Singular values of Y within a factor 10 of the rank threshold trigger a
    conditioning warning.  A trivial kernel (empty limit model) is flagged.
    """
    P0, s = _kernel_split(m.Y, rank_tol)
    d = m.dim
    P1 = Projector(np.eye(d, dtype=complex) - P0.matrix, d - P0.rank)

    warnings: list[str] = []
    if s.size and s[0] > 0:
        borderline = int(np.sum((s > rank_tol * s[0]) & (s <= 10 * rank_tol * s[0])))
        if borderline:
            warnings.append(
                f"{borderline} singular value(s) of Y lie within 10x of the rank threshold; "
                "the ground/excited split is ill-conditioned"
            )
    if P0.rank == 0:
        warnings.append("Y has trivial kernel: the limit model is empty (all coefficients vanish)")

    if y1inv_override is not None:
        Y1inv = as_operator(y1inv_override, "y1inv_override")
        if Y1inv.shape[0] != d:
            raise DimensionMismatch("y1inv_override dimension does not match the model")
    else:
        Y1inv = restricted_inverse(m.Y, P1, rank_tol)
    return Decomposition(P0=P0, P1=P1, Y1inv=Y1inv, warnings=warnings)


def _channel_sums(m: ScaledModel):
    """(F†W)_j = sum_i F_i† W_ij and (G†W)_j = sum_i G_i† W_ij."""
    fdw = np.einsum("iba,ijbc->jac", m.F.conj(), m.W)
    gdw = np.einsum("iba,ijbc->jac", m.G.conj(), m.W)
    return fdw, gdw


def check_inverse_structure(
    m: ScaledModel, dec: Decomposition, tol: float = DEFAULT_TOL
) -> CheckReport:
    """Verify that Y1inv interacts correctly with every model operator.

    Three families of identities are checked, each reported by name:

    * left:  Y·Y1inv·(P1 Z P0) = P1 Z P0 for Z = A and each channel sum (F†W)_j;
    * right: (P0 X P1)·Y1inv·Y = P0 X P1 for X running over A, B, F_i, G_i,
      W_ij, (G†W)_j, F_i·Y1inv·F_j, F_i·Y1inv·A, F_i·Y1inv·(F†W)_j, A·Y1inv·A,
      A·Y1inv·F_i and A·Y1inv·(F†W)_j;
    * zero:  P0·Y·P1 = 0, P0·A·P0 = 0, F_i·P0 = 0, and
      P0·(W_ij + F_i·Y1inv·(F†W)_j)·P1 = 0 (no scattering into the fast sector).
    """
    P0m, P1m, Yi = dec.P0.matrix, dec.P1.matrix, dec.Y1inv
    Y, A, B, F, G, W = m.Y, m.A, m.B, m.F, m.G, m.W
    n = m.channels
    fdw, gdw = _channel_sums(m)

    residuals: list[tuple[str, float]] = []

    left_terms = [("A", A)] + [(f"(F†W)_{j}", fdw[j]) for j in range(n)]
    for name, Z in left_terms:
        block = P1m @ Z @ P0m
        residuals.append((f"left: Y·Y1inv·P1·{name}·P0", float(np.linalg.norm(Y @ Yi @ block - block))))

    right_terms = [("A", A), ("B", B)]
    right_terms += [(f"F_{i}", F[i]) for i in range(n)]
    right_terms += [(f"G_{i}", G[i]) for i in range(n)]
    right_terms += [(f"W_{i}{j}", W[i, j]) for i in range(n) for j in range(n)]
    right_terms += [(f"(G†W)_{j}", gdw[j]) for j in range(n)]
    right_terms += [(f"F_{i}·Y1inv·F_{j}", F[i] @ Yi @ F[j]) for i in range(n) for j in range(n)]
    right_terms += [(f"F_{i}·Y1inv·A", F[i] @ Yi @ A) for i in range(n)]
    right_terms += [
        (f"F_{i}·Y1inv·(F†W)_{j}", F[i] @ Yi @ fdw[j]) for i in range(n) for j in range(n)
    ]
    right_terms += [("A·Y1inv·A", A @ Yi @ A)]
    right_terms += [(f"A·Y1inv·F_{i}", A @ Yi @ F[i]) for i in range(n)]
    right_terms += [(f"A·Y1inv·(F†W)_{j}", A @ Yi @ fdw[j]) for j in range(n)]
    for name, X in right_terms:
        block = P0m @ X @ P1m
        residuals.append((f"right: P0·{name}·P1·Y1inv·Y", float(np.linalg.norm(block @ Yi @ Y - block))))

    residuals.append(("zero: P0·Y·P1", float(np.linalg.norm(P0m @ Y @ P1m))))
    residuals.append(("zero: P0·A·P0", float(np.linalg.norm(P0m @ A @ P0m))))
    for i in range(n):
        residuals.append((f"zero: F_{i}·P0", float(np.linalg.norm(F[i] @ P0m))))
    for i in range(n):
        for j in range(n):
            scatter = W[i, j] + F[i] @ Yi @ fdw[j]
            residuals.append(
                (f"zero: P0·((δ+F·Y1inv·F†)W)_{i}{j}·P1", float(np.linalg.norm(P0m @ scatter @ P1m)))
            )

    scale = norm_scale(Y, A, B, F, G, W, Yi)
    return CheckReport.from_residuals(residuals, tol * scale)


def check_ground_support(c: CoefficientSet, P1: Projector, tol: float = DEFAULT_TOL) -> CheckReport:
    """Limit coefficients must vanish on the fast sector: P1·L_i = P1·S_ij = 0."""
    P1m = P1.matrix
    n = c.channels
    residuals = [(f"ground: P1·L_{i}", float(np.linalg.norm(P1m @ c.L[i]))) for i in range(n)]
    residuals += [
        (f"ground: P1·S_{i}{j}", float(np.linalg.norm(P1m @ c.S[i, j])))
        for i in range(n)
        for j in range(n)
    ]
    return CheckReport.from_residuals(residuals, tol * norm_scale(c.K, c.L, c.S))


def eliminate(
    m: ScaledModel,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_TOL,
    y1inv_override: np.ndarray | None = None,
) -> EliminationResult:
    """Compute the strong-coupling limit coefficients and all check reports.

    Raises NumericalFailure when a limit coefficient overflows float64.
    """
    dec = decompose(m, rank_tol, y1inv_override)
    P0m, Yi = dec.P0.matrix, dec.Y1inv
    fdw, _ = _channel_sums(m)
    n, d = m.channels, m.dim

    # finite coefficients can still overflow in these products; the check
    # below reports that, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        K = P0m @ (m.B - m.A @ Yi @ m.A) @ P0m
        L = np.stack([(m.G[i] - m.F[i] @ Yi @ m.A) @ P0m for i in range(n)])
        S = np.empty((n, n, d, d), dtype=complex)
        for i in range(n):
            for j in range(n):
                S[i, j] = (m.W[i, j] + m.F[i] @ Yi @ fdw[j]) @ P0m
    for name, X in (("K", K), ("L", L), ("S", S)):
        if not np.all(np.isfinite(X)):
            raise NumericalFailure(f"limit coefficient {name} overflowed to non-finite entries")

    limit = CoefficientSet(K=K, L=L, S=S, ground=dec.P0)
    inverse_structure = check_inverse_structure(m, dec, tol)
    ground_support = check_ground_support(limit, dec.P1, tol)
    limit_unitarity = check_limit_unitarity(limit, tol)
    return EliminationResult(
        decomposition=dec,
        limit=limit,
        inverse_structure=inverse_structure,
        ground_support=ground_support,
        limit_unitarity=limit_unitarity,
        warnings=list(dec.warnings),
    )


def displace_scaled(m: ScaledModel, alpha) -> ScaledModel:
    """Conjugate the scaled model by a Weyl displacement of amplitude alpha.

    Y, F and W are unchanged; with sums over repeated channel indices,

        A' = A + F_i conj(a_i) - a_j F_i† W_ij
        B' = B + conj(a_i)(W_ij - delta_ij I) a_j + G_i conj(a_i) - a_j G_i† W_ij
        G_i' = G_i + (W_ij - delta_ij I) a_j

    The delta subtraction in G' is forced by unitarity: conjugating by a
    field-only displacement must leave a field-decoupled model (W = I, F = 0)
    untouched, and the order-by-order dissipativity identities must keep
    holding for every amplitude.
    """
    a = as_amplitude(alpha, m.channels)
    fdw, gdw = _channel_sums(m)
    d = m.dim
    eye = np.eye(d, dtype=complex)

    F_abar = np.einsum("i,iab->ab", a.conj(), m.F)
    G_abar = np.einsum("i,iab->ab", a.conj(), m.G)
    fdw_a = np.einsum("j,jab->ab", a, fdw)
    gdw_a = np.einsum("j,jab->ab", a, gdw)
    quad = np.einsum("i,ijab,j->ab", a.conj(), m.W, a) - np.vdot(a, a).real * eye

    A2 = m.A + F_abar - fdw_a
    B2 = m.B + quad + G_abar - gdw_a
    G2 = m.G + np.einsum("j,ijab->iab", a, m.W) - a[:, None, None] * eye
    return ScaledModel(Y=m.Y, A=A2, B=B2, F=m.F.copy(), G=G2, W=m.W.copy())


def displace_limit(c: CoefficientSet, alpha) -> CoefficientSet:
    """Conjugate a fixed-coefficient model by a Weyl displacement.

    S is unchanged; with sums over repeated channel indices,

        K' = K + conj(a_i)(S_ij - delta_ij D) a_j + conj(a_i) L_i - a_j L_i† S_ij
        L_i' = L_i + (S_ij - delta_ij D) a_j

    where D is the ground projector for limit models and the identity for
    plain instantiated coefficient sets.  The delta subtraction in L' mirrors
    the one in K': it keeps K' + K'† = -sum L'† L' exact for every amplitude,
    and makes displacing a field-decoupled model a no-op.
    """
    a = as_amplitude(alpha, c.channels)
    d = c.dim
    closure = c.ground.matrix if c.ground is not None else np.eye(d, dtype=complex)

    quad = np.einsum("i,ijab,j->ab", a.conj(), c.S, a) - np.vdot(a, a).real * closure
    L_abar = np.einsum("i,iab->ab", a.conj(), c.L)
    lds = np.einsum("iba,ijbc->jac", c.L.conj(), c.S)
    lds_a = np.einsum("j,jab->ab", a, lds)

    K2 = c.K + quad + L_abar - lds_a
    L2 = c.L + np.einsum("j,ijab->iab", a, c.S) - a[:, None, None] * closure
    return CoefficientSet(K=K2, L=L2, S=c.S.copy(), ground=c.ground)
