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
propagates every distance: the vacuum is one undisplaced segment, and within
a segment vec(P0) is stepped along the time grid by its differences.

The Kurtz corrector makes the generator convergence explicit: for a ground
observable X there are X1, X2 with Lk(X + X1/k + X2/k^2) -> L(X) at rate 1/k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    ClampExceeded,
    DimensionMismatch,
    InvalidArgument,
    InvalidGroundVector,
)
from .eliminate import EliminationResult, displace_limit, displace_scaled
from .linalg import Projector, as_operator, assemble_superoperator, dagger, expm, unvec, vec
from .model import CoefficientSet, ScaledModel, instantiate

CLAMP_ABORT = 1e-6
GROUND_VECTOR_TOL = 1e-9
DEFAULT_STEPS = 101


@dataclass
class GeneratorPair:
    """Skew and limit generators as superoperator matrices at one coupling."""

    skew: np.ndarray
    limit: np.ndarray
    k: float

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.skew.shape[0])))


@dataclass
class StepDrive:
    """Piecewise-constant drive: amplitudes[j] on [breakpoints[j], breakpoints[j+1])."""

    breakpoints: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float).ravel()
        if bp.size < 2 or bp[0] != 0.0:
            raise InvalidArgument("breakpoints must start at 0 and contain at least one segment")
        if not np.all(np.diff(bp) > 0):
            raise InvalidArgument("breakpoints must be strictly increasing")
        amps = np.atleast_2d(np.asarray(self.amplitudes, dtype=complex))
        if amps.shape[0] != bp.size - 1:
            raise InvalidArgument(
                f"{amps.shape[0]} amplitude rows for {bp.size - 1} segments"
            )
        if not np.all(np.isfinite(amps)):
            raise InvalidArgument("drive amplitudes must be finite")
        self.breakpoints = bp
        self.amplitudes = amps

    @property
    def segments(self) -> int:
        return self.amplitudes.shape[0]

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
    """Matrix of the terms acting on vec(X)."""
    eye = np.eye(d, dtype=complex)
    mats = (assemble_superoperator(eye if l is None else l, eye if r is None else r) for l, r in terms)
    return reduce(np.add, mats)


def _apply_terms(terms: Terms, X: np.ndarray) -> np.ndarray:
    """Operator action of the terms on X."""

    def sandwich(l, r):
        Z = X if l is None else l @ X
        return Z if r is None else Z @ r

    return reduce(np.add, (sandwich(l, r) for l, r in terms))


def pair_generator(left: CoefficientSet, right: CoefficientSet) -> np.ndarray:
    """Superoperator matrix of X -> left.K† X + X right.K + sum_i left.L_i† X right.L_i."""
    if left.dim != right.dim or left.channels != right.channels:
        raise DimensionMismatch("coefficient sets must share dimension and channel count")
    return _superoperator(_sandwich_terms(left.K, left.L, right.K, right.L), left.dim)


def build_generators(m: ScaledModel, e: EliminationResult, k: float) -> GeneratorPair:
    """Skew generator at coupling k and the limit generator, as matrices."""
    k = float(k)
    if k < 0:
        raise ValueError(f"coupling must be non-negative, got {k}")
    limit = e.limit
    return GeneratorPair(
        skew=pair_generator(limit, instantiate(m, k)),
        limit=pair_generator(limit, limit),
        k=k,
    )


def evolve(generator: np.ndarray, X0, t: float) -> np.ndarray:
    """Apply exp(t * generator) to the operator X0."""
    generator = as_operator(generator, "generator")
    X0 = as_operator(X0, "X0")
    if X0.shape[0] ** 2 != generator.shape[0]:
        raise DimensionMismatch("generator dimension is not the square of the operator dimension")
    t = float(t)
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    if t == 0:
        return X0.copy()
    return unvec(expm(t * generator) @ vec(X0))


def default_ground_vector(P0: Projector) -> np.ndarray:
    """Deterministic unit vector in the ground space.

    The normalized projection of the all-ones vector, falling back to the
    leading eigenvector of P0 when that projection vanishes.
    """
    w = P0.matrix @ np.ones(P0.dim, dtype=complex)
    if np.linalg.norm(w) < 1e-8:
        evals, evecs = np.linalg.eigh(P0.matrix)
        w = evecs[:, -1]
    return w / np.linalg.norm(w)


def _require_ground_vector(v, P1m: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != P1m.shape[0]:
        raise DimensionMismatch(f"vector length {v.size} does not match dimension {P1m.shape[0]}")
    if abs(np.linalg.norm(v) - 1.0) > GROUND_VECTOR_TOL:
        raise InvalidGroundVector(f"vector norm {np.linalg.norm(v):.12g} is not 1")
    leak = float(np.linalg.norm(P1m @ v))
    if leak > GROUND_VECTOR_TOL:
        raise InvalidGroundVector(f"vector has excited-sector component of norm {leak:.3e}")
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


def _validate_t_grid(t_grid) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float).ravel()
    if t_grid.size == 0:
        raise InvalidArgument("t_grid must be non-empty")
    if not np.all(np.isfinite(t_grid)) or t_grid[0] < 0 or np.any(np.diff(t_grid) < 0):
        raise InvalidArgument("t_grid must be finite, non-negative and non-decreasing")
    return t_grid


def _validate_couplings(ks, positive: bool) -> np.ndarray:
    ks = np.asarray(ks, dtype=float).ravel()
    bound = "positive" if positive else "non-negative"
    if ks.size == 0 or not np.all(np.isfinite(ks)) or np.any((ks <= 0) if positive else (ks < 0)):
        raise InvalidArgument(f"ks must be finite {bound} couplings, got {ks.tolist()}")
    return ks


def _segment_generators(
    m: ScaledModel, e: EliminationResult, k: float, drive: StepDrive | None
) -> list[np.ndarray]:
    """Skew generator of each drive segment; the vacuum is one undisplaced segment."""
    if drive is None:
        return [pair_generator(e.limit, instantiate(m, k))]
    return [
        pair_generator(displace_limit(e.limit, alpha), instantiate(displace_scaled(m, alpha), k))
        for alpha in drive.amplitudes
    ]


def _propagate(gens, breakpoints, P0m: np.ndarray, v: np.ndarray, t_grid: np.ndarray):
    """Distances along t_grid and the largest clamp, one skew generator per segment.

    With breakpoints t_0 = 0 < t_1 < ..., segment j runs from t_{j-1} to t_j
    and carries gens[j - 1]; for t in it

        vec(T_t(P0)) = M_1(D_1) ... M_{j-1}(D_{j-1}) M_j(t - t_{j-1}) vec(P0)

    with M_i(s) = exp(s * gen_i) and D_i the full segment durations, so the
    earliest segment acts outermost.  Within a segment vec(P0) is stepped from
    the segment start by the grid differences, one expm per distinct float
    step.  A time on a breakpoint belongs to the segment it ends; times past
    the last breakpoint are clamped to it.
    """
    w0 = vec(P0m).astype(complex)
    out = np.empty(t_grid.size, dtype=float)
    max_clamp = 0.0
    outer: list[np.ndarray] = []
    idx = 0
    last = len(gens) - 1
    for j, gen in enumerate(gens):
        start, end = float(breakpoints[j]), float(breakpoints[j + 1])
        cache: dict[float, np.ndarray] = {}
        w, prev = w0, start
        while idx < t_grid.size and (j == last or t_grid[idx] <= end):
            t = min(float(t_grid[idx]), end)
            dt = t - prev
            if dt > 0:
                if dt not in cache:
                    cache[dt] = expm(dt * gen)
                w = cache[dt] @ w
            x = w
            for M in reversed(outer):
                x = M @ x
            out[idx], clamp = _distance_from_transported(unvec(x), v)
            max_clamp = max(max_clamp, clamp)
            prev = t
            idx += 1
        if idx == t_grid.size:
            break
        outer.append(expm((end - start) * gen))
    return out, max_clamp


def vacuum_distance(m: ScaledModel, e: EliminationResult, k: float, v, t_grid) -> np.ndarray:
    """Vacuum-field strong-convergence distance along t_grid.

    Returns sqrt(<v, (2I - T_t(P0) - T_t(P0)†) v>) per grid time, where T is
    the skew semigroup at coupling k; tiny negative values of the quadratic
    form are clamped to zero; a clamp beyond 1e-6 or a non-finite value aborts
    with ClampExceeded.
    """
    t_grid = _validate_t_grid(t_grid)
    v = _require_ground_vector(v, e.decomposition.P1.matrix)
    gens = _segment_generators(m, e, k, None)
    dist, _ = _propagate(gens, [0.0, t_grid[-1]], e.decomposition.P0.matrix, v, t_grid)
    return dist


def coherent_distance(
    m: ScaledModel, e: EliminationResult, k: float, v, drive: StepDrive, t: float
) -> float:
    """Strong-convergence distance against a coherent (step-driven) field state.

    Composes the per-segment displaced skew semigroups (earliest segment
    outermost) and evaluates the same quadratic form as the vacuum distance.
    Requires t within the drive window.
    """
    t = float(t)
    if not 0.0 <= t <= drive.horizon + 1e-12:
        raise InvalidArgument(f"t = {t} outside the drive window [0, {drive.horizon}]")
    v = _require_ground_vector(v, e.decomposition.P1.matrix)
    gens = _segment_generators(m, e, k, drive)
    dist, _ = _propagate(gens, drive.breakpoints, e.decomposition.P0.matrix, v, np.array([t]))
    return float(dist[0])


def kurtz_corrector(e: EliminationResult, m: ScaledModel, X) -> tuple[np.ndarray, np.ndarray]:
    """First and second order correctors X1, X2 of a ground observable X.

    With L0(Z) = K† Z + Z B + sum_i L_i† Z G_i and L1(Z) = Z A + sum_i L_i† Z F_i
    (K, L_i the limit coefficients),

        X1 = -L1(X) Y1inv P1,   X2 = -(L0(X) + L1(X1)) Y1inv P1.
    """
    X = as_operator(X, "X")
    if X.shape[0] != m.dim:
        raise DimensionMismatch("X dimension does not match the model")
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
        sits at the numerical floor (nothing left to fit)."""
        if np.any(self.corrected <= 1e-300):
            return float("nan")
        return float(np.polyfit(np.log10(self.ks), np.log10(self.corrected), 1)[0])


def generator_convergence_check(
    m: ScaledModel, e: EliminationResult, X, ks
) -> GeneratorResiduals:
    """Residuals ||Lk(X + X1/k + X2/k^2) - L(X)|| and ||Lk(X) - L(X)|| per k.

    The corrected residual decays like 1/k when the structural identities
    hold; couplings must be positive.
    """
    ks = _validate_couplings(ks, positive=True)
    X = as_operator(X, "X")
    X1, X2 = kurtz_corrector(e, m, X)
    K, L = e.limit.K, e.limit.L
    LX = _apply_terms(_sandwich_terms(K, L, K, L), X)
    corrected = np.empty(ks.size)
    uncorrected = np.empty(ks.size)
    for idx, k in enumerate(ks):
        inst = instantiate(m, k)
        skew = _sandwich_terms(K, L, inst.K, inst.L)
        corrected[idx] = np.linalg.norm(_apply_terms(skew, X + X1 / k + X2 / (k * k)) - LX)
        uncorrected[idx] = np.linalg.norm(_apply_terms(skew, X) - LX)
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

    Vacuum distances by default; with a drive, coherent distances (the drive
    window must cover the horizon).  Reports per-k suprema and the largest
    clamp applied anywhere in the sweep.
    """
    ks = _validate_couplings(ks, positive=False)
    horizon = float(horizon)
    steps = int(steps)
    if not (np.isfinite(horizon) and horizon > 0) or steps < 2:
        raise InvalidArgument(
            f"need a finite horizon > 0 and at least 2 grid points, got {horizon} and {steps}"
        )
    if drive is not None and drive.horizon < horizon - 1e-12:
        raise InvalidArgument(
            f"drive window ends at {drive.horizon}, before the horizon {horizon}"
        )
    t_grid = np.linspace(0.0, horizon, steps)
    v = _require_ground_vector(v, e.decomposition.P1.matrix)
    P0m = e.decomposition.P0.matrix
    breakpoints = [0.0, horizon] if drive is None else drive.breakpoints

    distances = np.empty((ks.size, steps))
    max_clamp = 0.0
    for i, k in enumerate(ks):
        gens = _segment_generators(m, e, k, drive)
        distances[i], clamp = _propagate(gens, breakpoints, P0m, v, t_grid)
        max_clamp = max(max_clamp, clamp)
    return ConvergenceReport(
        ks=ks,
        t_grid=t_grid,
        distances=distances,
        sup_distance=distances.max(axis=1),
        max_clamp=max_clamp,
    )
