"""Semigroup propagation and convergence certification.

For a scaled model m with elimination result e, the skew generator at
coupling k pairs the limit coefficients on the dagger side with the
instantiated ones on the right:

    Lk(X) = K† X + X K(k) + sum_i L_i† X L_i(k)

and the limit generator uses the limit coefficients on both sides.  The
semigroups exp(t Lk) encode vacuum matrix elements of products of the two
unitary propagators, so the vacuum strong-convergence distance reduces to a
quadratic form evaluated on propagated ground observables:

    ||(U(k)_t - U_t) v (x) vacuum||^2 = <v, (2 I - T_t(P0) - T_t(P0)†) v>.

Every generator here is one list of sandwich terms (left, right), the map
X -> sum left X right; the superoperator matrix and the operator action are
both derived from that list.

Coherent states enter through Weyl displacement: a piecewise-constant drive
gives one displaced generator per segment, composed with the earliest segment
outermost:  T(f)_t = T(a_1)_{t1-t0} o ... o T(a_m)_{t-t_{m-1}}.  One stepper
propagates every distance, and k_sweep is its one entry: the vacuum is the
drive of amplitude zero on [0, horizon], and within a segment the state is
stepped along the time grid by its differences.  What does not depend on k,
the displacement of each segment and the compression of its limit
coefficients, happens once per sweep; each coupling only instantiates and
assembles.  The earlier segments
act as one product matrix, one multiplication per segment.  build_generators
gives the dense d^2 x d^2 skew generator from the same terms; no distance goes
through it.

The state never leaves the ground rows.  Every left factor of the skew
generator, K† and L_i† of the limit (displaced or not), maps into range(P0),
because K = P0(...)P0 and L_i = (...)P0 by construction and displacement
keeps K'P1 = L'_iP1 = 0.  So T_t(P0) = P0 T_t(P0) exactly, and with V0 the
orthonormal d x d0 basis of range(P0) that the decomposition holds (from the
SVD of Y), the stepper carries Z = V0† X from Z0 = V0†: each left factor l
becomes V0† l V0 and T = V0 Z.  The generator then has (d0 d)^2 entries
instead of d^4.  Models of dimension at most RECORDED_ARITHMETIC_MAX_DIM keep
the full d x d state.  A generator over GENERATOR_BUDGET_BYTES is refused
with ResourceLimit before it is assembled, and so is a sweep whose time grid
and distance array together would exceed it.  A time step h so long that the
rounding of exp(h G), about eps h ||G||_1, leaves no digit of a mode that has
not decayed is refused with NumericalFailure.

The Kurtz corrector makes the generator convergence explicit: for a ground
observable X there are X1, X2 with Lk(X + X1/k + X2/k^2) -> L(X) at rate 1/k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ClampExceeded, InvalidArgument, NumericalFailure, ResourceLimit
from .eliminate import EliminationResult, displace_limit, displace_scaled
from .linalg import (
    RECORDED_ARITHMETIC_MAX_DIM,
    Projector,
    as_operator,
    dagger,
    expm,
    frobenius_norms,
    vec,
)
from .model import ScaledModel, _coefficients, instantiate

CLAMP_ABORT = 1e-6
GROUND_VECTOR_TOL = 1e-9
DEFAULT_STEPS = 101
# Largest generator matrix assembled: 32 MiB, a 1448 x 1448 complex matrix.
# expm needs at most 9 times its input (measured), so one expm peaks near 288 MiB.
GENERATOR_BUDGET_BYTES = 32 * 2**20


@dataclass
class StepDrive:
    """Piecewise-constant drive: amplitudes[j] on [breakpoints[j], breakpoints[j+1])."""

    breakpoints: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float).ravel()
        if bp.size < 2 or bp[0] != 0.0:
            raise InvalidArgument("breakpoints must start at 0 and contain at least one segment")
        if not np.all(bp[1:] > bp[:-1]):
            raise InvalidArgument("breakpoints must be strictly increasing")
        rows = self.amplitudes if isinstance(self.amplitudes, (list, tuple)) else []
        if len({np.size(row) for row in rows}) > 1:
            raise InvalidArgument("every amplitude row needs one amplitude per channel")
        amps = np.atleast_2d(np.asarray(self.amplitudes, dtype=complex))
        if amps.shape[-1] == 0:  # [] and [[]] alike: atleast_2d makes (0,) a (1, 0) row
            raise InvalidArgument("drive amplitudes need at least one channel")
        if amps.shape[0] != bp.size - 1:
            raise InvalidArgument(
                f"{amps.shape[0]} amplitude rows for {bp.size - 1} segments"
            )
        if not np.all(np.isfinite(amps)):
            raise InvalidArgument("drive amplitudes must be finite")
        self.breakpoints = bp
        self.amplitudes = amps

    @property
    def horizon(self) -> float:
        return float(self.breakpoints[-1])


@dataclass
class ConvergenceReport:
    """Distances on a (k, t) grid plus per-k suprema and the worst clamp seen."""

    ks: np.ndarray
    t_grid: np.ndarray
    distances: np.ndarray
    sup_distance: np.ndarray
    max_clamp: float = 0.0


Terms = list[tuple[np.ndarray | None, np.ndarray | None]]


def _sandwich_terms(K_left, L_left, K_right, L_right) -> Terms:
    """Terms (left, right) of X -> K_left† X + X K_right + sum_i L_left,i† X L_right,i.

    None stands for the identity factor; K_left None drops the K_left† term.
    The order K†, K, L_i is the order of summation everywhere.
    """
    terms: Terms = [] if K_left is None else [(dagger(K_left), None)]
    terms.append((None, K_right))
    terms += [(dagger(l), r) for l, r in zip(L_left, L_right)]
    return terms


def _superoperator(terms: Terms, d: int) -> np.ndarray:
    """Matrix of the terms acting on vec(X), X of shape rows x d, where rows is
    the size of the first left factor (d when that factor is None).

    Raises ResourceLimit, before anything is assembled, when the matrix would
    take more than GENERATOR_BUDGET_BYTES.
    """
    rows = d if terms[0][0] is None else len(terms[0][0])
    n = rows * d
    if 16 * n * n > GENERATOR_BUDGET_BYTES:
        raise ResourceLimit(
            f"a {n} x {n} generator needs {16 * n * n:,} bytes, "
            f"over the budget of {GENERATOR_BUDGET_BYTES:,} bytes"
        )
    eye_left, eye_right = np.eye(rows, dtype=complex), np.eye(d, dtype=complex)
    # X -> l X r has matrix kron(r.T, l) on vec(X)
    mats = (
        np.kron((eye_right if r is None else r).T, eye_left if l is None else l) for l, r in terms
    )
    return reduce(np.add, mats)


def _apply_terms(terms: Terms, X: np.ndarray) -> np.ndarray:
    """Operator action of the terms on X."""

    def sandwich(l, r):
        Z = X if l is None else l @ X
        return Z if r is None else Z @ r

    return reduce(np.add, (sandwich(l, r) for l, r in terms))


def build_generators(m: ScaledModel, e: EliminationResult, k: float) -> np.ndarray:
    """Skew generator at coupling k as a dense d^2 x d^2 matrix."""
    right = instantiate(m, float(k))
    return _superoperator(_sandwich_terms(e.limit.K, e.limit.L, right.K, right.L), m.dim)


def default_ground_vector(P0: Projector) -> np.ndarray:
    """Deterministic unit vector in the ground space.

    The normalized projection of the all-ones vector, or where that vanishes
    the last column of ``P0.basis()``.  Raises InvalidArgument when P0 = 0.
    """
    if P0.rank == 0:
        raise InvalidArgument("the ground space is empty (Y has a trivial kernel)")
    w = P0.matrix @ np.ones(P0.dim, dtype=complex)
    if np.linalg.norm(w) < 1e-8:
        w = P0.basis()[:, -1]
    return w / np.linalg.norm(w)


def _require_ground_vector(v, P1m: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != P1m.shape[0]:
        raise InvalidArgument(f"vector length {v.size} does not match dimension {P1m.shape[0]}")
    if abs(np.linalg.norm(v) - 1.0) > GROUND_VECTOR_TOL:
        raise InvalidArgument(f"vector norm {np.linalg.norm(v):.12g} is not 1")
    leak = float(np.linalg.norm(P1m @ v))
    if leak > GROUND_VECTOR_TOL:
        raise InvalidArgument(f"vector has excited-sector component of norm {leak:.3e}")
    return v


def _distance_from_transported(T: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Distance and clamp magnitude from T = T_t(P0) and a ground vector v."""
    d = T.shape[0]
    q = 2.0 * np.eye(d, dtype=complex) - T - dagger(T)
    val = float(np.real(np.vdot(v, q @ v)))
    if not math.isfinite(val):
        raise ClampExceeded(f"squared distance came out {val}; propagation overflowed")
    clamp = max(0.0, -val)
    if clamp > CLAMP_ABORT:
        raise ClampExceeded(
            f"squared distance came out {val:.3e}; propagation is numerically unreliable"
        )
    return float(np.sqrt(max(val, 0.0))), clamp


def _validate_couplings(ks, positive: bool) -> np.ndarray:
    ks = np.asarray(ks, dtype=float).ravel()
    bound = "positive" if positive else "non-negative"
    if ks.size == 0 or not np.all(np.isfinite(ks)) or np.any((ks <= 0) if positive else (ks < 0)):
        raise InvalidArgument(f"ks must be finite {bound} couplings, got {ks.tolist()}")
    return ks


def _segments(
    m: ScaledModel, e: EliminationResult, drive: StepDrive, V0: np.ndarray | None
) -> list[tuple[np.ndarray, np.ndarray, ScaledModel]]:
    """The coupling-free half of each drive segment's skew generator.

    One (K, L, scaled) per segment: the displaced limit coefficients, the
    left factors, and the displaced scaled model that k instantiates on the
    right.  The vacuum is one segment of amplitude zero, whose displacement
    changes no coefficient.  With a ground basis V0 the state is Z = V0† X,
    so K and L are compressed to V0† · V0.
    """
    pairs = [
        (displace_limit(e.limit, alpha), displace_scaled(m, alpha)) for alpha in drive.amplitudes
    ]
    if V0 is None:
        return [(limit.K, limit.L, scaled) for limit, scaled in pairs]
    Vh = dagger(V0)
    return [(Vh @ limit.K @ V0, Vh @ limit.L @ V0, scaled) for limit, scaled in pairs]


def _step_exponential(h: float, gen: np.ndarray, norm1: float, k: float, horizon: float):
    """exp(h·gen), refused with NumericalFailure where rounding decides the result.

    expm's backward error is about eps·h·‖gen‖₁.  From 1 on, it leaves no digit
    of the phase of a mode that has not decayed, so the step is taken only if
    every eigenvalue λ, shifted by that error, still decays below the smallest
    double: h·(max Re λ + eps·‖gen‖₁) < -745.  Then exp(h·gen) is 0 whatever
    the phases.  A step h·gen that is not finite, from an overflow, is refused
    with InvalidArgument naming the horizon.
    """
    eps = float(np.finfo(float).eps)
    if eps * h * norm1 >= 1.0 and math.isfinite(norm1):
        slowest = float(np.linalg.eigvals(gen).real.max())
        if not h * (slowest + eps * norm1) < -745.0:
            raise NumericalFailure(
                f"horizon {horizon:g} at coupling {k:g}: the rounding error of a time step, "
                f"eps·h·|G| = {eps * h * norm1:.3g}, leaves no digit of a mode with "
                f"Re λ = {slowest:.3g}"
            )
    step = h * gen
    if not np.isfinite(step).all():
        raise InvalidArgument(f"horizon {horizon:g} overflows float64 in a time step")
    return expm(step)


def _propagate(
    gens, breakpoints, Z0: np.ndarray, V0: np.ndarray | None, v: np.ndarray, t_grid, k: float
):
    """Distances along t_grid and the largest clamp, one skew generator per segment.

    The state is Z from Z0 (V0† when V0 is given, else P0), lifted back by
    T = V0 Z, or T = Z when V0 is None.  With breakpoints t_0 = 0 < t_1 < ...,
    segment j runs from t_{j-1} to t_j and carries gens[j - 1]; for t in it

        vec(Z_t) = H_{j-1} M_j(t - t_{j-1}) vec(Z0),  H_{j-1} = M_1(D_1) ... M_{j-1}(D_{j-1})

    with M_i(s) = exp(s * gen_i) and D_i the full segment durations, so the
    earliest segment acts outermost.  H, the earlier segments as one matrix,
    takes one product per segment.  Within a segment vec(Z0) is stepped from
    the segment start by the grid differences, one expm per distinct float
    step.  A time on a breakpoint belongs to the segment it ends; times past
    the last breakpoint are clamped to it.  Every exponential goes through
    _step_exponential, with ‖gen‖₁ taken once per generator; k names the
    coupling in its error.
    """
    w0 = vec(Z0).astype(complex)
    out = np.empty(t_grid.size, dtype=float)
    max_clamp = 0.0
    head = None  # H, None while no segment has ended
    idx = 0
    last = len(gens) - 1
    horizon = float(t_grid[-1])
    for j, gen in enumerate(gens):
        start, end = float(breakpoints[j]), float(breakpoints[j + 1])
        norm1 = float(np.linalg.norm(gen, 1))
        cache: dict[float, np.ndarray] = {}
        w, prev = w0, start
        while idx < t_grid.size and (j == last or t_grid[idx] <= end):
            t = min(float(t_grid[idx]), end)
            dt = t - prev
            if dt > 0:
                if dt not in cache:
                    cache[dt] = _step_exponential(dt, gen, norm1, k, horizon)
                w = cache[dt] @ w
            Z = (w if head is None else head @ w).reshape(Z0.shape, order="F")
            out[idx], clamp = _distance_from_transported(Z if V0 is None else V0 @ Z, v)
            max_clamp = max(max_clamp, clamp)
            prev = t
            idx += 1
        if idx == t_grid.size:
            break
        M = _step_exponential(end - start, gen, norm1, k, horizon)
        head = M if head is None else head @ M
    return out, max_clamp


def kurtz_corrector(e: EliminationResult, m: ScaledModel, X) -> tuple[np.ndarray, np.ndarray]:
    """First and second order correctors X1, X2 of a ground observable X.

    With L0(Z) = K† Z + Z B + sum_i L_i† Z G_i and L1(Z) = Z A + sum_i L_i† Z F_i
    (K, L_i the limit coefficients),

        X1 = -L1(X) Y1inv P1,   X2 = -(L0(X) + L1(X1)) Y1inv P1.
    """
    X = as_operator(X, "X")
    if X.shape[0] != m.dim:
        raise InvalidArgument("X dimension does not match the model")
    P0m = e.decomposition.P0.matrix
    scale = max(1.0, float(np.linalg.norm(X)))
    if np.linalg.norm(X - P0m @ X @ P0m) > 1e-9 * scale:
        raise InvalidArgument("X must be supported on the ground sector (X = P0 X P0)")

    K, L = e.limit.K, e.limit.L
    l0 = _sandwich_terms(K, L, m.B, m.G)
    l1 = _sandwich_terms(None, L, m.A, m.F)
    YP = e.decomposition.Y1inv @ e.decomposition.P1.matrix
    X1 = -_apply_terms(l1, X) @ YP
    X2 = -(_apply_terms(l0, X) + _apply_terms(l1, X1)) @ YP
    return X1, X2


@dataclass
class GeneratorResiduals:
    """Corrected and uncorrected generator residuals over a coupling sweep."""

    ks: np.ndarray
    corrected: np.ndarray
    uncorrected: np.ndarray

    def corrected_slope(self) -> float:
        """Log-log slope of the corrected residuals in k; NaN if any residual
        sits at the numerical floor, or if fewer than two distinct couplings
        were swept (nothing left to fit)."""
        if np.unique(self.ks).size < 2 or np.any(self.corrected <= 1e-300):
            return float("nan")
        return float(np.polyfit(np.log10(self.ks), np.log10(self.corrected), 1)[0])


def generator_convergence_check(
    m: ScaledModel, e: EliminationResult, X, ks
) -> GeneratorResiduals:
    """Residuals ||Lk(X + X1/k + X2/k^2) - L(X)|| and ||Lk(X) - L(X)|| per k.

    The corrected residual decays like 1/k when the structural identities
    hold; couplings must be positive.  A residual that overflows float64
    comes out infinite or NaN, without a numpy warning.  The couplings go
    through as one stack, split into batches only where their K(k) and L(k)
    would exceed GENERATOR_BUDGET_BYTES; every residual has the bits of the
    same sum at one scalar k.
    """
    ks = _validate_couplings(ks, positive=True)
    X = as_operator(X, "X")
    corrected = np.empty(ks.size)
    uncorrected = np.empty(ks.size)
    batch = max(1, GENERATOR_BUDGET_BYTES // (16 * (m.channels + 1) * m.dim**2))
    with np.errstate(over="ignore", invalid="ignore"):
        X1, X2 = kurtz_corrector(e, m, X)
        K, L = e.limit.K, e.limit.L
        LX = _apply_terms(_sandwich_terms(K, L, K, L), X)
        for lo in range(0, ks.size, batch):
            part = slice(lo, lo + batch)
            k = ks[part, None, None]
            Kk, Lk = _coefficients(m, k)
            skew = _sandwich_terms(K, L, Kk, Lk.swapaxes(0, 1))  # right factors stacked over k
            corrected[part] = frobenius_norms(_apply_terms(skew, X + X1 / k + X2 / (k * k)) - LX)
            uncorrected[part] = frobenius_norms(_apply_terms(skew, X) - LX)
    return GeneratorResiduals(ks=ks, corrected=corrected, uncorrected=uncorrected)


def k_sweep(
    m: ScaledModel,
    e: EliminationResult,
    v,
    ks,
    horizon: float = 1.0,
    steps: int = DEFAULT_STEPS,
    drive: StepDrive | None = None,
) -> ConvergenceReport:
    """Convergence distances over couplings ks and a uniform grid on [0, horizon].

    Each distance is sqrt(<v, (2I - T_t(P0) - T_t(P0)†) v>) for the ground vector v:
    vacuum by default; with a drive, coherent (the drive window must cover the horizon,
    short of it by at most 1e-12 of the horizon).  Tiny negative values of the quadratic
    form are clamped to zero; a clamp beyond CLAMP_ABORT or a non-finite value aborts
    with ClampExceeded, a time step whose rounding leaves no digit of a mode that has not
    decayed with NumericalFailure, a time step t·G that overflows float64 with
    InvalidArgument.
    Reports per-k suprema and the largest clamp applied anywhere in the sweep.  A grid
    over GENERATOR_BUDGET_BYTES raises ResourceLimit before it is allocated.
    """
    ks = _validate_couplings(ks, positive=False)
    horizon = float(horizon)
    steps = int(steps)
    if not (np.isfinite(horizon) and horizon > 0) or steps < 2:
        raise InvalidArgument(
            f"need a finite horizon > 0 and at least 2 grid points, got {horizon} and {steps}"
        )
    if drive is None:
        drive = StepDrive([0.0, horizon], np.zeros((1, m.channels)))
    if horizon - drive.horizon > 1e-12 * horizon:
        raise InvalidArgument(
            f"drive window ends at {drive.horizon}, before the horizon {horizon}"
        )
    grid_bytes = 8 * steps * (1 + ks.size)  # t_grid and distances, both float64
    if grid_bytes > GENERATOR_BUDGET_BYTES:
        raise ResourceLimit(
            f"a sweep of {ks.size} coupling(s) on {steps:,} grid points needs "
            f"{grid_bytes:,} bytes, over the budget of {GENERATOR_BUDGET_BYTES:,} bytes"
        )
    t_grid = np.linspace(0.0, horizon, steps)
    dec = e.decomposition
    v = _require_ground_vector(v, dec.P1.matrix)
    V0 = dec.V0 if m.dim > RECORDED_ARITHMETIC_MAX_DIM else None
    Z0 = dec.P0.matrix if V0 is None else dagger(V0)
    segments = _segments(m, e, drive, V0)

    distances = np.empty((ks.size, steps))
    max_clamp = 0.0
    for i, k in enumerate(ks):
        gens = []
        for K, L, scaled in segments:
            right = instantiate(scaled, k)
            gens.append(_superoperator(_sandwich_terms(K, L, right.K, right.L), m.dim))
        # an overflow in propagation is reported: a step's as InvalidArgument, else as ClampExceeded
        with np.errstate(over="ignore", invalid="ignore"):
            distances[i], clamp = _propagate(gens, drive.breakpoints, Z0, V0, v, t_grid, k)
        max_clamp = max(max_clamp, clamp)
    return ConvergenceReport(
        ks=ks,
        t_grid=t_grid,
        distances=distances,
        sup_distance=distances.max(axis=1),
        max_clamp=max_clamp,
    )
