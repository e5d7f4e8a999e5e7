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
an explicit diagnosis rather than a silent fallback.  The reports are computed
when first read, from the model as passed (models are treated as immutable),
so a caller that reads only the limit pays for none of them.

Weyl displacement of the driving fields maps scaled models to scaled models
(:func:`displace_scaled`) and limit models to limit models
(:func:`displace_limit`); elimination commutes with it, with the same P0 and
Y1inv on both routes.  The limit depends on Y only through P0 and Y1inv, so
``eliminate`` reuses its last split for a Y of the same bytes.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidArgument, NumericalFailure
from .linalg import (
    DEFAULT_RANK_TOL,
    PROJECTOR_TOL,
    RECORDED_ARITHMETIC_MAX_DIM,
    Projector,
    _inverse_on,
    _kernel_split,
    as_operator,
    contract,
    dagger,
    frobenius_norms,
)
from .model import (
    DEFAULT_TOL,
    CheckReport,
    CoefficientSet,
    ScaledModel,
    _require_tol,
    check_hp_unitarity,
    norm_scale,
)


@dataclass
class Decomposition:
    """Ground/excited split of a scaled model: P0, Y1inv, V0, and P1 = I - P0
    derived from P0, the only record of the split.

    ``V0`` is an orthonormal d x d0 basis of range(P0): ``decompose`` keeps it
    from the SVD that found the kernel, and a decomposition built without one
    takes the eigenvectors of P0.  A given one must span range(P0); only
    ``decompose``'s own, orthonormal and spanning range(P0) by construction,
    is not checked again.  Values are treated as immutable: ``eliminate``
    hands one decomposition to every result of a Y with the same bytes, with
    P0, Y1inv, V0 and P1 read-only.
    """

    P0: Projector
    Y1inv: np.ndarray
    warnings: list[str] = field(default_factory=list)
    V0: np.ndarray | None = None
    _from_svd: InitVar[bool] = False  # decompose's V0, the SVD's ground columns

    def __post_init__(self, _from_svd: bool):
        self.Y1inv = as_operator(self.Y1inv, "Y1inv")
        d, d0 = self.P0.dim, self.P0.rank
        if d != self.Y1inv.shape[0]:
            raise InvalidArgument("P0 and Y1inv must share one dimension")
        if self.V0 is None:
            self.V0 = self.P0.basis()
            return
        self.V0 = np.asarray(self.V0, dtype=complex)
        if self.V0.shape != (d, d0):
            raise InvalidArgument(f"V0 has shape {self.V0.shape}, P0 has rank {d0}")
        if not _from_svd and not (  # a NaN entry fails too
            np.linalg.norm(dagger(self.V0) @ self.V0 - np.eye(d0)) <= PROJECTOR_TOL
            and np.linalg.norm(self.V0 @ dagger(self.V0) - self.P0.matrix) <= PROJECTOR_TOL
        ):
            raise InvalidArgument("V0 is not an orthonormal basis of range(P0)")

    @cached_property
    def P1(self) -> Projector:
        P1 = self.P0.complement()
        P1.matrix.flags.writeable = self.P0.matrix.flags.writeable  # read-only when shared
        return P1


@dataclass
class EliminationResult:
    """Limit coefficients, the split they were formed on, and the three
    structural check reports.

    Each report is computed on its first read, from the model as passed to
    :func:`eliminate` and its ``tol``, and then kept.  A residual or norm
    scale that overflows fails its report without a numpy warning.  Only the
    model and ``tol`` are kept for them: the inverse-structure check forms
    its (2n + 1) d x d products when read, so a result held through a sweep
    holds none of them.
    """

    decomposition: Decomposition
    limit: CoefficientSet
    _model: ScaledModel = field(repr=False)
    _tol: float = field(repr=False)

    @cached_property
    def inverse_structure(self) -> CheckReport:
        with np.errstate(over="ignore", invalid="ignore"):
            return check_inverse_structure(self._model, self.decomposition, self._tol)

    @cached_property
    def ground_support(self) -> CheckReport:
        with np.errstate(over="ignore", invalid="ignore"):
            return check_ground_support(self.limit, self.decomposition.P1, self._tol)

    @cached_property
    def limit_unitarity(self) -> CheckReport:
        with np.errstate(over="ignore", invalid="ignore"):
            return check_hp_unitarity(self.limit, self._tol)

    @property
    def warnings(self) -> list[str]:
        return self.decomposition.warnings

    @property
    def assumptions_pass(self) -> bool:
        return self.inverse_structure.passed and self.ground_support.passed


def as_amplitude(alpha, channels: int) -> np.ndarray:
    """Coerce a per-channel complex displacement amplitude vector."""
    a = np.atleast_1d(np.asarray(alpha, dtype=complex)).ravel()
    if a.size != channels:
        raise InvalidArgument(f"amplitude has {a.size} entries, model has {channels} channels")
    if not np.all(np.isfinite(a)):
        raise InvalidArgument("amplitude contains non-finite entries")
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
    Above :data:`RECORDED_ARITHMETIC_MAX_DIM` the inverse is solved on the
    excited right singular vectors of Y; smaller models solve it on the
    eigenvectors of P1, the arithmetic their outputs were recorded with.
    """
    P0, s, V = _kernel_split(m.Y, rank_tol)
    d, d1 = m.dim, m.dim - P0.rank

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
            raise InvalidArgument("y1inv_override dimension does not match the model")
    else:
        excited = P0.complement().basis() if d <= RECORDED_ARITHMETIC_MAX_DIM else V[:, :d1]
        Y1inv = _inverse_on(m.Y, excited, rank_tol)
    return Decomposition(P0=P0, Y1inv=Y1inv, warnings=warnings, V0=V[:, d1:], _from_svd=True)


def _channel_sum(L: np.ndarray, S: np.ndarray) -> np.ndarray:
    """(L†S)_j = sum_i L_i† S_ij."""
    return contract("iba,ijbc->jac", L.conj(), S)


def _limit_products(m: ScaledModel, Yi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The channel sums (F†W)_j and the stack a·Y1inv for a = (A, F_1..F_n).

    With b = (A, F_1..F_n, (F†W)_1..(F†W)_n), the limit formulas and the
    inverse-structure check read every product they need from the grid
    (a·Y1inv)·b, taken left to right as the formulas parse; a stacked matmul
    has the bits of its 2-d products.
    """
    return _channel_sum(m.F, m.W), np.concatenate([m.A[None], m.F]) @ Yi


def _inverse_structure_names(n: int) -> list[str]:
    """Residual names of :func:`check_inverse_structure` for n channels, in order."""
    r, c = range(n), [(i, j) for i in range(n) for j in range(n)]
    left = ["A"] + [f"(F†W)_{j}" for j in r]
    right = ["A", "B"] + [f"F_{i}" for i in r] + [f"G_{i}" for i in r]
    right += [f"W_{i}{j}" for i, j in c] + [f"(G†W)_{j}" for j in r]
    right += [f"F_{i}·Y1inv·F_{j}" for i, j in c] + [f"F_{i}·Y1inv·A" for i in r]
    right += [f"F_{i}·Y1inv·(F†W)_{j}" for i, j in c] + ["A·Y1inv·A"]
    right += [f"A·Y1inv·F_{i}" for i in r] + [f"A·Y1inv·(F†W)_{j}" for j in r]
    return (
        [f"left: Y·Y1inv·P1·{z}·P0" for z in left]
        + [f"right: P0·{x}·P1·Y1inv·Y" for x in right]
        + ["zero: P0·Y·P1", "zero: P0·A·P0"]
        + [f"zero: F_{i}·P0" for i in r]
        + [f"zero: P0·((δ+F·Y1inv·F†)W)_{i}{j}·P1" for i, j in c]
    )


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

    Each family is a few stacked products on a ground factor G, G† on the
    left and G on the right.  Up to RECORDED_ARITHMETIC_MAX_DIM, G = P0 and
    every residual keeps the association written above.  Above, G = V0, the
    basis of range(P0): ||P0·M|| = ||V0†·M|| and ||M·P0|| = ||M·V0||, so every
    residual is a norm of d0 rows or columns.  There the grid is
    (V0†·a·Y1inv)·b, and each of the left and right families is one factor,
    (Y·Y1inv - I)·P1 or P1·(Y1inv·Y - I), times the stack of its terms.
    """
    _require_tol(tol)
    P0m, P1m, Yi = dec.P0.matrix, dec.P1.matrix, dec.Y1inv
    Y, A, B, F, G, W = m.Y, m.A, m.B, m.F, m.G, m.W
    n, d = m.channels, m.dim
    fdw, aYi = _limit_products(m, Yi)
    b = np.concatenate([A[None], F, fdw])  # the stack b of _limit_products
    Z = np.concatenate([A[None], fdw])
    X = np.concatenate([A[None], B[None], F, G, W.reshape(n * n, d, d), _channel_sum(G, W)])

    if d <= RECORDED_ARITHMETIC_MAX_DIM:
        left = right = P0m
        full = aYi[:, None] @ b[None]
        blocks = P1m @ Z @ P0m
        left_res = frobenius_norms(Y @ Yi @ blocks - blocks)
        blocks = np.concatenate([P0m @ X, *(P0m @ full)]) @ P1m
        right_res = frobenius_norms(blocks @ Yi @ Y - blocks)
        scatter = P0m @ (W + full[1:, n + 1 :])
    else:
        right = dec.V0
        left = dagger(right)
        eye = np.eye(d)
        grid = (left @ aYi)[:, None] @ b[None]
        left_res = frobenius_norms((Y @ Yi - eye) @ P1m @ (Z @ right))
        rows = np.concatenate([left @ X, *grid])
        right_res = frobenius_norms(rows @ (P1m @ (Yi @ Y - eye)))
        scatter = left @ W + grid[1:, n + 1 :]

    # the right family's grid part, (n + 1) x (2n + 1), in the order of the names
    g = right_res[len(X) :].reshape(n + 1, 2 * n + 1)
    values = [
        left_res,
        right_res[: len(X)],
        g[1:, 1 : n + 1].ravel(),
        g[1:, 0],
        g[1:, n + 1 :].ravel(),
        g[0],
        frobenius_norms(left @ Y @ P1m)[None],
        frobenius_norms(left @ A @ right)[None],
        frobenius_norms(F @ right),
        frobenius_norms(scatter @ P1m).ravel(),
    ]
    scale = norm_scale(Y, A, B, F, G, W, Yi)
    return CheckReport.from_residuals(
        zip(_inverse_structure_names(n), np.concatenate(values)), tol * scale
    )


def check_ground_support(c: CoefficientSet, P1: Projector, tol: float = DEFAULT_TOL) -> CheckReport:
    """Limit coefficients must vanish on the fast sector: P1·L_i = P1·S_ij = 0."""
    _require_tol(tol)
    P1m = P1.matrix
    r, cells = range(c.channels), [(i, j) for i in range(c.channels) for j in range(c.channels)]
    names = [f"ground: P1·L_{i}" for i in r] + [f"ground: P1·S_{i}{j}" for i, j in cells]
    values = np.concatenate([frobenius_norms(P1m @ c.L), frobenius_norms(P1m @ c.S).ravel()])
    return CheckReport.from_residuals(zip(names, values), tol * c._scale)


# eliminate's last split, (Y's bytes, rank_tol, decomposition): one entry,
# replaced whole by one assignment, so concurrent callers see an old entry or
# a new one, never a torn one
_last_split: tuple[bytes, float, Decomposition] | None = None


def _split(m: ScaledModel, rank_tol: float) -> Decomposition:
    """``decompose(m, rank_tol)``, reused while Y's bytes and rank_tol repeat.

    The key is Y's own bytes, so -0.0 and 0.0 differ, and a caller that then
    writes into its Y meets a key that no longer matches.  A split that raises
    is never stored.  The stored arrays are read-only, so a write into one
    raises instead of reaching a later elimination.
    """
    global _last_split
    key, last = m.Y.tobytes(), _last_split
    if last is not None and last[0] == key and last[1] == rank_tol:
        return last[2]
    dec = decompose(m, rank_tol)
    for a in (dec.P0.matrix, dec.Y1inv, dec.V0):
        a.flags.writeable = False
    _last_split = (key, rank_tol, dec)
    return dec


def eliminate(
    m: ScaledModel,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = DEFAULT_TOL,
    y1inv_override: np.ndarray | None = None,
) -> EliminationResult:
    """Compute the strong-coupling limit coefficients; the check reports are
    computed on first read (see :class:`EliminationResult`).

    The limit carries P0, on which its unitarity report closes.  The split
    of the last call is reused when Y has the same bytes and rank_tol is the
    same, as for a displaced model; a ``y1inv_override`` always decomposes
    afresh.  Raises InvalidArgument for a tol that is not finite and positive,
    SingularRestriction when Y is singular on the excited sector, and
    NumericalFailure when a limit coefficient overflows float64.
    """
    _require_tol(tol)
    dec = _split(m, rank_tol) if y1inv_override is None else decompose(m, rank_tol, y1inv_override)
    P0m = dec.P0.matrix

    # finite coefficients can still overflow in these products; the check
    # below reports that, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        fdw, aYi = _limit_products(m, dec.Y1inv)
        # a·Y1inv·b for b in (A, (F†W)_j): [0, 0] is A·Y1inv·A, [1+i, 0] is
        # F_i·Y1inv·A and [1+i, 1+j] is F_i·Y1inv·(F†W)_j
        lim = aYi[:, None] @ np.concatenate([m.A[None], fdw])[None]
        K = P0m @ (m.B - lim[0, 0]) @ P0m
        L = (m.G - lim[1:, 0]) @ P0m
        S = (m.W + lim[1:, 1:]) @ P0m
    for name, X in (("K", K), ("L", L), ("S", S)):
        if not np.all(np.isfinite(X)):
            raise NumericalFailure(f"limit coefficient {name} overflowed to non-finite entries")

    limit = CoefficientSet(K=K, L=L, S=S, ground=dec.P0)
    return EliminationResult(decomposition=dec, limit=limit, _model=m, _tol=tol)


def _displaced(K, L, S, closure, a):
    """K' and L' of a Weyl displacement by a, the formula of :func:`displace_limit`."""
    quad = contract("i,ijab,j->ab", a.conj(), S, a) - np.vdot(a, a).real * closure
    lds_a = contract("i,iab->ab", a, _channel_sum(L, S))
    K2 = K + quad + contract("i,iab->ab", a.conj(), L) - lds_a
    L2 = L + contract("j,ijab->iab", a, S) - a[:, None, None] * closure
    return K2, L2


def displace_scaled(m: ScaledModel, alpha) -> ScaledModel:
    """Conjugate the scaled model by a Weyl displacement of amplitude alpha.

    Y, F and W are unchanged.  B' and G' are :func:`displace_limit`'s K' and
    L' for (K, L, S) = (B, G, W) with closure I; with sums over repeated
    channel indices,

        A' = A + F_i conj(a_i) - a_j F_i† W_ij

    The delta subtraction in G' is forced by unitarity: conjugating by a
    field-only displacement must leave a field-decoupled model (W = I, F = 0)
    untouched, and the order-by-order dissipativity identities must keep
    holding for every amplitude.  An amplitude of zeros returns m itself.
    """
    a = as_amplitude(alpha, m.channels)
    if not a.any():
        return m
    fdw_a = contract("i,iab->ab", a, _channel_sum(m.F, m.W))
    A2 = m.A + contract("i,iab->ab", a.conj(), m.F) - fdw_a
    B2, G2 = _displaced(m.B, m.G, m.W, np.eye(m.dim, dtype=complex), a)
    return ScaledModel(Y=m.Y, A=A2, B=B2, F=m.F, G=G2, W=m.W)


def displace_limit(c: CoefficientSet, alpha) -> CoefficientSet:
    """Conjugate a fixed-coefficient model by a Weyl displacement.

    S is unchanged; with sums over repeated channel indices,

        K' = K + conj(a_i)(S_ij - delta_ij D) a_j + conj(a_i) L_i - a_j L_i† S_ij
        L_i' = L_i + (S_ij - delta_ij D) a_j

    where D is ``c.closure``, P0 for limit models and I for instantiated ones.
    The delta subtraction in L' mirrors the one in K': it keeps
    K' + K'† = -sum L'† L' exact for every amplitude, and makes displacing a
    field-decoupled model a no-op.  An amplitude of zeros returns c itself.
    """
    a = as_amplitude(alpha, c.channels)
    if not a.any():
        return c
    K2, L2 = _displaced(c.K, c.L, c.S, c.closure, a)
    return CoefficientSet(K=K2, L=L2, S=c.S, ground=c.ground)
