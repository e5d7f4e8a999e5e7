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
yields the states of the time grid in blocks, within one segment each, and
k_sweep, its one caller, is the one readout: it lifts a block to T_t(P0) and
evaluates its forms as stacked products, with the bits of the same products one
grid time at a time.  The vacuum is the drive of amplitude zero, whose
displacement is the identity, on [0, horizon], a drive is cut at the horizon (its
segments that start before it, the last one ending at it), and within a
segment the state is stepped along the time grid by its differences: the
ground rows (below) by the grid's one step length, one exponential per
coupling and segment, plus one of a partial first step where the segment
starts off the grid; the full state by every distinct float difference, the
arithmetic of its recorded outputs.  What
does not depend on k, the displacement of each segment and the compression
of its limit coefficients, happens once per sweep.  The generator is
k²G₂ + kG₁ + G₀ (_generator_terms); per coupling the stepper forms it, on the
full state or the ground rows, from parts assembled once.  The earlier
segments act as one product matrix, one multiplication per segment.
build_generators gives the dense d^2 x d^2 skew generator; no distance goes through it.

The state never leaves the ground rows.  Every left factor of the skew
generator, K† and L_i† of the limit (displaced or not), maps into range(P0),
because K = P0(...)P0 and L_i = (...)P0 by construction and displacement
keeps K'P1 = L'_iP1 = 0.  So T_t(P0) = P0 T_t(P0) exactly, and with V0 the
orthonormal d x d0 basis of range(P0) that the decomposition holds (from the
SVD of Y), the stepper carries Z = V0† X from Z0 = V0†: each left factor l
becomes V0† l V0, and k_sweep lifts T = V0 Z.  The generator then has (d0 d)^2
entries instead of d^4.  For models of dimension at most
RECORDED_ARITHMETIC_MAX_DIM k_sweep keeps the full d x d state X = V0 Z.

A stiff step (-Re tr(h G)/n > STIFF_DECAY) is not a dense exponential of
h G.  In the limit the excited states decay at rate k^2, so such a step is
decided by the slow/fast split of the ground-row generator (_Parts.decouple):
the Chang decoupling of its slow and fast blocks, every matrix O(1), with the
fast term dropped once a bound on it is below eps, which one Cholesky
factorization per step length decides.  On the full state its exponential E
is lifted to kron(I, V0)·E·kron(I, V0†), folded into its outer factors.  The
split takes the structural zeros that eliminate certifies as exact, so it
gives the distance of the exactly structured model.  Its k-free parts are
built at a segment's first stiff step and kept for every coupling of the
sweep, its decoupled terms once per coupling; the basis they share does not
depend on the drive.  It and the parts of the undisplaced model are kept on
the elimination result for later sweeps.  Where the blocks it takes as zero
are, at that coupling, above the rounding that the dense step commits
anyway, where a fixed point does not converge (small k), or at k = 0, the
dense exponential stands.

A generator over GENERATOR_BUDGET_BYTES is refused with ResourceLimit before
it is assembled, and so is a sweep whose time grid and distance array
together would exceed it.  A time step h so long that the rounding of
exp(h G), about eps h ||G||_1, leaves no digit of a mode that has not decayed
is refused with NumericalFailure, before either kernel.

The Kurtz corrector makes the generator convergence explicit: for a ground
observable X there are X1, X2 with Lk(X + X1/k + X2/k^2) -> L(X) at rate 1/k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, partial, reduce

import numpy as np

from .errors import ClampExceeded, InvalidArgument, NumericalFailure, QsdeElimError, ResourceLimit
from .eliminate import EliminationResult, displace_limit, displace_scaled
from .linalg import (
    GENERATOR_BUDGET_BYTES,
    RECORDED_ARITHMETIC_MAX_DIM,
    Projector,
    as_operator,
    dagger,
    expm,
    frobenius_norms,
    vec,
)
from .model import CoefficientSet, ScaledModel, _coefficients, instantiate

CLAMP_ABORT = 1e-6
GROUND_VECTOR_TOL = 1e-9
DEFAULT_STEPS = 101
EPS = float(np.finfo(float).eps)
# a step h G is stiff, and goes to the slow/fast split, when its mean decay rate
# -Re tr(h G)/n (each term divided by n first, so the sum cannot overflow) is beyond
# -ln of the smallest normal double: some mode of exp(h G) must underflow
STIFF_DECAY = 708.0
# the slow/fast split: a fixed point is reached within SPLIT_MAX_ITER steps
# once its residual is at most FIXED_POINT_TOL of the size of its terms
SPLIT_MAX_ITER = 50
FIXED_POINT_TOL = 2.0**-46
# k_sweep reads the grid in blocks whose states and forms take about this many bytes
_READ_BYTES = 2**19


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


def _generator_terms(K, L, scaled: ScaledModel, right=lambda X: X) -> tuple[Terms, Terms, Terms]:
    """Terms of the k-free parts of K† X + X K(k) + Σ L_i† X L_i(k) = k²G₂ + kG₁ + G₀,
    each right factor of scaled mapped by right: X Y; X A + Σ L_i† X F_i; the rest."""
    Y, A, B, F, G = (right(a) for a in (scaled.Y, scaled.A, scaled.B, scaled.F, scaled.G))
    return [(None, Y)], _sandwich_terms(None, L, A, F), _sandwich_terms(K, L, B, G)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each marked read-only: a write into a kept part raises."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _require_budget(n: int) -> None:
    """Refuses an n x n generator over GENERATOR_BUDGET_BYTES with ResourceLimit."""
    if 16 * n * n > GENERATOR_BUDGET_BYTES:
        raise ResourceLimit(
            f"a {n} x {n} generator needs {16 * n * n:,} bytes, "
            f"over the budget of {GENERATOR_BUDGET_BYTES:,} bytes"
        )


def _superoperator(terms: Terms, d: int, rows: int) -> np.ndarray:
    """Matrix of the terms acting on vec(X), X of shape rows x d.

    Raises ResourceLimit, before anything is assembled, when the matrix would
    take more than GENERATOR_BUDGET_BYTES.
    """
    _require_budget(rows * d)
    eye_left, eye_right = np.eye(rows, dtype=complex), np.eye(d, dtype=complex)
    # X -> l X r has matrix kron(r.T, l) on vec(X)
    mats = (
        _kron((eye_right if r is None else r).T, eye_left if l is None else l) for l, r in terms
    )
    return reduce(np.add, mats)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices by its own broadcast product and reshape, so with
    its bits and its memory order, without its checks of general shapes."""
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


def _apply_terms(terms: Terms, X: np.ndarray) -> np.ndarray:
    """Operator action of the terms on X."""

    def sandwich(l, r):
        Z = X if l is None else l @ X
        return Z if r is None else Z @ r

    return reduce(np.add, (sandwich(l, r) for l, r in terms))


def build_generators(m: ScaledModel, e: EliminationResult, k: float) -> np.ndarray:
    """Skew generator at coupling k as a dense d^2 x d^2 matrix."""
    right = instantiate(m, float(k))
    return _superoperator(_sandwich_terms(e.limit.K, e.limit.L, right.K, right.L), m.dim, m.dim)


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
    if not np.all(np.isfinite(v)):
        raise InvalidArgument("vector entries must be finite")
    if abs(np.linalg.norm(v) - 1.0) > GROUND_VECTOR_TOL:
        raise InvalidArgument(f"vector norm {np.linalg.norm(v):.12g} is not 1")
    leak = float(np.linalg.norm(P1m @ v))
    if leak > GROUND_VECTOR_TOL:
        raise InvalidArgument(f"vector has excited-sector component of norm {leak:.3e}")
    return v


def _distances_from_states(
    Ws: np.ndarray, V0: np.ndarray | None, v: np.ndarray
) -> tuple[np.ndarray, float]:
    """Distances and the largest clamp of a block of stepped states and a ground vector v.

    Each row of Ws is vec(Z), Z the full d x d state (V0 None) or its ground rows,
    which V0 lifts to T = T_t(P0) = V0 Z.  The block is read in stacked products:
    the lift, q @ v and a (1 x d)·(d x 1) product of conj(v) with it, which have
    the bits of the same products and of np.vdot one grid time at a time.  Tiny
    negative forms are clamped to zero; the first grid time whose form is not
    finite, or is clamped by more than CLAMP_ABORT, raises ClampExceeded.
    """
    d = len(v)
    Ts = Ws.reshape(len(Ws), d, -1).swapaxes(1, 2)
    if V0 is not None:
        Ts = V0 @ Ts
    Q = 2.0 * np.eye(d, dtype=complex) - Ts - Ts.conj().swapaxes(-1, -2)
    vals = (v.conj() @ (Q @ v)[..., None])[..., 0].real
    clamps = np.where(-vals > 0.0, -vals, 0.0)
    bad = ~np.isfinite(vals) | (clamps > CLAMP_ABORT)
    if bad.any():
        val = float(vals[bad.argmax()])
        if not math.isfinite(val):
            raise ClampExceeded(f"squared distance came out {val}; propagation overflowed")
        raise ClampExceeded(
            f"squared distance came out {val:.3e}; propagation is numerically unreliable"
        )
    return np.sqrt(np.where(vals >= 0.0, vals, 0.0)), float(clamps.max())


def _require_same_model(m: ScaledModel, e: EliminationResult) -> None:
    """Refuses an elimination result whose limit has another dimension or channel count."""
    if (e.limit.dim, e.limit.channels) != (m.dim, m.channels):
        raise InvalidArgument(
            f"the elimination result has dimension {e.limit.dim} and {e.limit.channels} "
            f"channel(s), the model {m.dim} and {m.channels}"
        )


def _validate_couplings(ks, positive: bool) -> np.ndarray:
    ks = np.asarray(ks, dtype=float).ravel()
    bound = "positive" if positive else "non-negative"
    if ks.size == 0 or not np.all(np.isfinite(ks)) or np.any((ks <= 0) if positive else (ks < 0)):
        raise InvalidArgument(f"ks must be finite {bound} couplings, got {ks.tolist()}")
    return ks


class _Rotation:
    """The unitary V = [V1 V0] of the right index that the slow/fast split of
    every segment of a sweep takes: it does not depend on the drive.  vec(Z V)
    holds the d0·d1 fast entries first.  On the full state X = V0 Z (lift), the outer
    factors also take vec(X) to vec(Z) and back."""

    def __init__(self, V0: np.ndarray, lift: bool):
        d, d0 = V0.shape
        self.d, self.d0, self.nf = d, d0, d0 * (d - d0)
        # V1 completes the decomposition's V0, which stays the slow columns
        complete = np.linalg.qr(V0, mode="complete")[0]
        (self.V,) = _read_only(np.concatenate([complete[:, d0:], V0], axis=1))
        self.lift = V0 if lift else None

    def rotate(self, X: np.ndarray) -> np.ndarray:
        """V† X V, of an operator or of a stack."""
        return dagger(self.V) @ X @ self.V

    def rows(self, X: np.ndarray) -> np.ndarray:
        """Q†·X, with Q = kron(V^T, I) the rotation vec(Z) -> vec(Z V); lifted,
        kron(I, V0)·Q†·X."""
        Y = self.V.conj() @ X.reshape(self.d, -1)
        if self.lift is not None:
            Y = self.lift @ Y.reshape(self.d, self.d0, -1)
        return Y.reshape(-1, X.shape[1])

    def cols(self, X: np.ndarray) -> np.ndarray:
        """X·Q; lifted, X·Q·kron(I, V0†)."""
        Y = self.V @ X.reshape(len(X), self.d, self.d0)
        if self.lift is not None:
            Y = Y @ dagger(self.lift)
        return Y.reshape(len(X), -1)


class _Parts:
    """One sweep segment: its limit's K, L compressed to the ground rows, the stepper's
    left factors (those, or on the full state the limit's own), and the k-free parts
    of its generator k²G₂ + kG₁ + G₀: the stepper's, and the split's (right index
    rotated by rot).  Each set is built from the model given at its first use,
    read-only; nothing of a coupling is kept."""

    def __init__(
        self, limit: CoefficientSet, V0: np.ndarray, rot: _Rotation | None, full_state: bool
    ):
        self.K, self.L = _read_only(dagger(V0) @ limit.K @ V0, dagger(V0) @ limit.L @ V0)
        self.left = (limit.K, limit.L) if full_state else (self.K, self.L)
        self.rot, self._stepper, self._split = rot, None, None

    def generator(self, scaled: ScaledModel, k: float) -> np.ndarray:
        """The generator at coupling k on the stepper's rows, refused as its assembly is:
        K(k) or L(k), then the budget.  k·G₁ + G₀ from the parts built at the first
        coupling, with k²G₂, G₂ = kron(Yᵀ, I), added on its diagonal blocks, not kept."""
        _coefficients(scaled, k)
        d, rows = scaled.dim, len(self.left[0])
        _require_budget(rows * d)
        if self._stepper is None:
            terms = _generator_terms(*self.left, scaled)[1:]
            self._stepper = _read_only(*(_superoperator(g, d, rows) for g in terms))
        G1, G0 = self._stepper
        gen, kkY = k * G1 + G0, k * k * scaled.Y.T
        for a in range(rows):  # a view: gen is a new C-ordered array
            gen.reshape(d, rows, d, rows)[:, a, :, a] += kkY
        return gen

    def split(self, scaled: ScaledModel) -> tuple:
        """G₂'s fast-fast block, G₁, G₀, and the norms of the blocks taken as
        zero: G₂ off its fast-fast block, and G₁'s slow-slow block."""
        if self._split is None:
            rot, f, s = self.rot, slice(0, self.rot.nf), slice(self.rot.nf, None)
            terms = _generator_terms(self.K, self.L, scaled, rot.rotate)
            G2, G1, G0 = (_superoperator(g, rot.d, rot.d0) for g in terms)
            G2_off = math.hypot(float(np.linalg.norm(G2[f, s])), float(np.linalg.norm(G2[s])))
            G1_ss = float(np.linalg.norm(G1[s, s]))
            self._split = (*_read_only(G2[f, f].copy(), G1, G0), G2_off, G1_ss)
        return self._split

    def decouple(self, scaled: ScaledModel, k: float) -> _Decoupled | None:
        """The terms of exp(h·G), G the segment's ground-row generator at coupling k, by
        the Chang decoupling of its slow and fast blocks (Kokotović, Khalil & O'Reilly,
        *Singular Perturbation Methods in Control*, 1986, ch. 2), every matrix O(1).

        With the right index rotated by V, G = k²G₂ + kG₁ + G₀ has k-free parts
        (split), read at the segment's first stiff step.  The identities that
        eliminate certifies (Y·V0 = 0, P0·Y·P1 = 0, P0·A·P0 = 0, F_i·P0 = 0) leave
        G₂ only a fast-fast block and G₁ no slow-slow block.  The split takes
        those blocks as exact zeros, so it propagates the exactly structured
        model; it does so at coupling k only where k² times G₂'s other blocks plus
        k times G₁'s slow-slow block is within n·eps·‖G‖ (Frobenius, n the order
        of G), the rounding of one product by G that the dense step commits
        anyway.  With f and s the fast and slow blocks, per coupling

            M_f = G₂ff + G₁ff/k + G₀ff/k²,  N_fs = G₁fs + G₀fs/k,
            N_sf = G₁sf + G₀sf/k,  A_ss = G₀ss,

        the Riccati solution H = M_f⁻¹(-N_fs + (H·A_ss + H·N_sf·H)/k²) gives the
        slow generator A_s = A_ss + N_sf·H, the Sylvester solution
        P·(M_f - H·N_sf/k²) = N_sf + A_s·P/k² and the fast generator
        A_f = k²M_f - H·N_sf.  Both are fixed points, each step corrected by
        M_f⁻¹.  With L = H/k and M = P/k the exponential in the rotated basis is

            [L; I]·exp(hA_s)·[-M, I + M·L] + [L·M + I; M]·exp(hA_f)·[I, -L]

        (see :class:`_Decoupled`).  None, for the dense exponential instead, where
        the blocks taken as zero are above that rounding, a fixed point has not
        converged within SPLIT_MAX_ITER steps, there is no fast sector (rot None),
        or k = 0, where no fast block decays.
        """
        if k == 0 or self.rot is None:
            return None
        rot = self.rot
        G2ff, G1, G0, G2_off, G1_ss = self.split(scaled)
        f, s = slice(0, rot.nf), slice(rot.nf, None)
        kk = k * k
        E = G1[f, f] + G0[f, f] / k
        M_f = G2ff + E / k
        N_fs, N_sf, A_ss = G1[f, s] + G0[f, s] / k, G1[s, f] + G0[s, f] / k, G0[s, s]
        size = math.sqrt(
            sum(float(np.linalg.norm(X)) ** 2 for X in (kk * M_f, k * N_fs, k * N_sf, A_ss))
        )
        if kk * G2_off + k * G1_ss > len(G1) * EPS * size:
            return None
        try:
            Mi = np.linalg.inv(M_f)
        except np.linalg.LinAlgError:
            return None

        def riccati(H):
            MH = M_f @ H
            return H @ (A_ss + N_sf @ H) / kk - N_fs - MH, float(np.linalg.norm(MH))

        H = _fixed_point(riccati, lambda r: Mi @ r, -Mi @ N_fs)
        if H is None:
            return None
        A_s = A_ss + N_sf @ H

        def sylvester(P):
            PM = P @ M_f
            return N_sf + (A_s @ P + P @ H @ N_sf) / kk - PM, float(np.linalg.norm(PM))

        P = _fixed_point(sylvester, lambda r: r @ Mi, N_sf @ Mi)
        if P is None:
            return None
        return _Decoupled(rot, H / k, P / k, A_s, kk * G2ff + k * E - H @ N_sf)


class _Decoupled:
    """The split at one coupling, [L; I]·exp(hA_s)·[-M, I + M·L] +
    [L·M + I; M]·exp(hA_f)·[I, -L] in the rotated basis, with the rotation,
    and on the full state the lift, folded into the outer factors.

    The second term is dropped where a bound on it is below eps: the product
    of its outer factors' norms times exp(hμ), with μ the largest eigenvalue
    of S = (A_f + A_f†)/2, so that ‖exp(hA_f)‖ <= exp(hμ).  That bound is
    below eps exactly when μ < c = -log(norms/eps)/h, that is when c·I - S is
    positive definite, which one Cholesky factorization per step length
    decides without the eigenvalues.
    """

    def __init__(self, rot: _Rotation, L, M, A_s, A_f):
        self.rot, self.L, self.M, self.A_s, self.A_f = rot, L, M, A_s, A_f
        eye_s = np.eye(len(A_s))
        self.left = rot.rows(np.concatenate([L, eye_s]))
        self.right = rot.cols(np.concatenate([-M, eye_s + M @ L], axis=1))
        # Q is unitary, so the fast factors' norms are those of their blocks,
        # and ‖L·M + I‖ <= ‖L‖·‖M‖ + √n_f
        nL, nM, nf = float(np.linalg.norm(L)), float(np.linalg.norm(M)), len(A_f)
        norms2 = ((nL * nM + math.sqrt(nf)) ** 2 + nM**2) * (nf + nL**2)
        self.log_margin = 0.5 * math.log(norms2) - math.log(EPS)  # log(bound / eps) at h = 0
        self.S = 0.5 * (A_f + dagger(A_f))

    @cached_property
    def fast_factors(self) -> tuple[np.ndarray, np.ndarray]:
        L, M, eye_f = self.L, self.M, np.eye(self.rot.nf)
        left = self.rot.rows(np.concatenate([L @ M + eye_f, M]))
        return left, self.rot.cols(np.concatenate([eye_f, -L], axis=1))

    def exp(self, h: float) -> np.ndarray:
        E = self.left @ (expm(h * self.A_s) @ self.right)
        if not _spectrum_below(self.S, -self.log_margin / h):
            left_f, right_f = self.fast_factors
            E += left_f @ (expm(h * self.A_f) @ right_f)
        return E


def _spectrum_below(S: np.ndarray, c: float) -> bool:
    """Whether every eigenvalue of the Hermitian S is below c: whether c·I - S
    is positive definite, so has a Cholesky factor.  c is added to the
    diagonal only, so an infinite c leaves no NaN off it."""
    shifted = -S
    shifted[np.diag_indices_from(shifted)] += c
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _fixed_point(residual, correct, X: np.ndarray) -> np.ndarray | None:
    """X iterated by X <- X + correct(r) until the residual r, of residual(X)
    = (r, size), is at most FIXED_POINT_TOL·size; None where SPLIT_MAX_ITER
    steps do not get there."""
    for _ in range(SPLIT_MAX_ITER):
        r, size = residual(X)
        if float(np.linalg.norm(r)) <= FIXED_POINT_TOL * size:
            return X
        X = X + correct(r)
    return None


def _step_exponential(h: float, gen: np.ndarray, norm1: float, k: float, horizon: float, decoupled):
    """exp(h·gen), refused with NumericalFailure where rounding decides the result.

    expm's backward error is about eps·h·‖gen‖₁.  From 1 on, it leaves no digit
    of the phase of a mode that has not decayed, so the step is taken only if
    every eigenvalue λ, shifted by that error, still decays below the smallest
    double: h·(max Re λ + eps·‖gen‖₁) < -745.  Then exp(h·gen) is 0 whatever
    the phases, and the step returns that 0 without an expm, which on norms
    beyond about 1e30 can return entries of order 1 or NaN.  A step h·gen that is not
    finite, from an overflow, is refused with InvalidArgument naming the
    horizon.  A stiff step takes the segment's slow/fast split, the terms that
    decoupled() gives, where it holds (they are not None).
    """
    decayed = EPS * h * norm1 >= 1.0 and math.isfinite(norm1)
    if decayed:
        slowest = float(np.linalg.eigvals(gen).real.max())
        if not h * (slowest + EPS * norm1) < -745.0:
            raise NumericalFailure(
                f"horizon {horizon:g} at coupling {k:g}: the rounding error of a time step, "
                f"eps·h·|G| = {EPS * h * norm1:.3g}, leaves no digit of a mode"
            )
    step = h * gen
    if not np.isfinite(step).all():
        raise InvalidArgument(f"horizon {horizon:g} overflows float64 in a time step")
    if decayed:
        return np.zeros_like(step)
    if -float((step.diagonal().real / len(step)).sum()) > STIFF_DECAY:
        terms = decoupled()
        if terms is not None:
            return terms.exp(h)
    return expm(step)


def _propagate(
    gens, segments, breakpoints, w0: np.ndarray, t_grid, k: float, rows: int, h: float | None
):
    """Yield (grid index, Ws) for consecutive blocks of t_grid, Ws the vec states
    w0 stepped to the block's times, at most rows of them and all in one segment.

    With breakpoints t_0 = 0 < t_1 < ..., segment j runs from t_{j-1} to t_j
    and carries gens[j - 1], the generator of segments[j - 1] = (parts, scaled);
    for t in it

        w_t = H_{j-1} M_j(t - t_{j-1}) w0,  H_{j-1} = M_1(D_1) ... M_{j-1}(D_{j-1})

    with M_i(s) = exp(s * gen_i) and D_i the full segment durations, so the
    earliest segment acts outermost.  H, the earlier segments as one matrix,
    takes one product per segment and is applied to a block as a stack of
    matrix-vector products.  Within a segment w0 is stepped from the segment
    start by the grid differences, one exponential per distinct step, taken in
    the order of first appearance before a block is stepped.  Given the grid's
    step length h, a difference within 4·eps·horizon of h, which differs from
    it by the rounding of the grid times, is taken as h: a segment then takes
    one exponential of h, plus one of its partial first step where it starts
    off the grid.  With h None every distinct float difference is a step of
    its own (the arithmetic of the full state's recorded outputs).  A step that
    fails is raised after the block's earlier states are yielded, and the
    segment's full-duration matrix is formed after its last block, so a
    failure at an earlier grid time, in the stepper or the reader, comes
    first.  A time on a breakpoint belongs to the segment it ends; the last
    breakpoint is the last grid time, so every time falls in a segment and the
    last segment needs no full-duration matrix.  Every exponential goes
    through _step_exponential, with ‖gen‖₁ taken once per generator and, for its
    stiff steps, the segment's decoupled terms at k, formed at the first of them;
    k names the coupling in its error.
    """
    head = None  # H, None while no segment has ended
    idx = 0
    horizon = float(t_grid[-1])
    near = 4.0 * EPS * horizon
    for j, (gen, (parts, scaled)) in enumerate(zip(gens, segments)):
        start, end = float(breakpoints[j]), float(breakpoints[j + 1])
        stop = idx + int(np.searchsorted(t_grid[idx:], end, side="right"))
        norm1 = float(np.linalg.norm(gen, 1))
        decoupled = cache(partial(parts.decouple, scaled, k))
        steps: dict[float, np.ndarray] = {}
        w = w0
        for lo in range(idx, stop, rows):
            times = t_grid[lo : min(lo + rows, stop)]
            dts = np.diff(times, prepend=start if lo == idx else t_grid[lo - 1])
            if h is not None:
                dts = np.where(np.abs(dts - h) <= near, h, dts)
            dts = dts.tolist()
            failure = None  # a refused step, raised once the grid times before it are read
            try:
                for dt in dict.fromkeys(dts):
                    if dt > 0 and dt not in steps:
                        steps[dt] = _step_exponential(dt, gen, norm1, k, horizon, decoupled)
            except (QsdeElimError, np.linalg.LinAlgError) as exc:
                failure, dts = exc, dts[: dts.index(dt)]
            Ws = np.empty((len(dts), w0.size), dtype=complex)
            for i, dt in enumerate(dts):
                if dt > 0:
                    w = steps[dt] @ w
                Ws[i] = w
            if dts:
                yield lo, (Ws if head is None else (head @ Ws[..., None])[..., 0])
            if failure is not None:
                raise failure
        idx = stop
        if idx == t_grid.size:
            return
        M = _step_exponential(end - start, gen, norm1, k, horizon, decoupled)
        head = M if head is None else head @ M


def kurtz_corrector(e: EliminationResult, m: ScaledModel, X) -> tuple[np.ndarray, np.ndarray]:
    """First and second order correctors X1, X2 of a ground observable X.

    With L0(Z) = K† Z + Z B + sum_i L_i† Z G_i and L1(Z) = Z A + sum_i L_i† Z F_i
    (K, L_i the limit coefficients),

        X1 = -L1(X) Y1inv P1,   X2 = -(L0(X) + L1(X1)) Y1inv P1.

    An e whose limit is not of m's dimension and channel count is refused with
    InvalidArgument, here and in generator_convergence_check and k_sweep.
    """
    _require_same_model(m, e)
    X = as_operator(X, "X")
    if X.shape[0] != m.dim:
        raise InvalidArgument("X dimension does not match the model")
    P0m = e.decomposition.P0.matrix
    # in units of the largest real or imaginary part (at least 1): no norm overflows
    scale = max(1.0, float(np.abs(X.real).max()), float(np.abs(X.imag).max()))
    Xs = X / scale
    if np.linalg.norm(Xs - P0m @ Xs @ P0m) > 1e-9 * max(1.0 / scale, float(np.linalg.norm(Xs))):
        raise InvalidArgument("X must be supported on the ground sector (X = P0 X P0)")

    _, l1, l0 = _generator_terms(e.limit.K, e.limit.L, m)
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
    hold; couplings must be positive, and e must match m (see kurtz_corrector).
    A residual that overflows float64 comes out infinite or NaN, without a
    numpy warning.  The couplings go through as one stack, split into batches
    only where their K(k) and L(k) would exceed GENERATOR_BUDGET_BYTES; every
    residual has the bits of the same sum at one scalar k.
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
    vacuum by default; with a drive, coherent.  The drive window must cover the horizon,
    short of it by at most 1e-12 of the horizon.  The sweep takes the segments that start
    before the horizon, the last of them held to it, and displaces and compresses each
    once; per coupling it only forms K(k), L(k) and the generators.  The stepper yields
    the grid's states in blocks of bounded size, X or its ground rows Z = V0† X, and
    k_sweep alone reads them: it lifts Z to T_t(P0) = V0 Z and evaluates the forms as
    stacked products, with the bits of one grid time at a time; the first grid time that
    fails, in the stepper or the reader, raises.  Tiny negative values of the form are
    clamped to zero; a clamp beyond CLAMP_ABORT or a non-finite value aborts with
    ClampExceeded, a time step whose rounding leaves no digit of a mode that has not decayed
    with NumericalFailure, a time step t·G that overflows float64 with InvalidArgument.
    steps must be a whole number.  Reports per-k suprema and the largest clamp applied
    anywhere in the sweep.  A grid over GENERATOR_BUDGET_BYTES raises ResourceLimit
    before it is allocated.
    """
    ks = _validate_couplings(ks, positive=False)
    _require_same_model(m, e)
    horizon = float(horizon)
    if not (isinstance(steps, (int, np.integer)) or float(steps).is_integer()):
        raise InvalidArgument(f"steps must be a whole number of grid points, got {steps}")
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
    full_state = m.dim <= RECORDED_ARITHMETIC_MAX_DIM
    # the ground rows step by the grid's one step length; the full state keeps
    # one step per distinct float difference, the arithmetic of its recorded outputs
    h = None if full_state else horizon / (steps - 1)
    # the drive on [0, horizon]: the segments that start before it, the last ending at it
    reached = min(int(np.searchsorted(drive.breakpoints, horizon)), len(drive.amplitudes))
    breakpoints = np.append(drive.breakpoints[:reached], horizon)
    # stiff steps take the slow/fast split where there is a fast sector; the rotation and
    # the parts of m's own generator are kept on e while m's Y, A, B, F, G keep their
    # bytes (never an exception, nothing of a coupling), a displaced segment's are not
    key, kept = b"".join(a.tobytes() for a in (m.Y, m.A, m.B, m.F, m.G)), e._sweep_parts
    if kept is None or kept[0] != key:
        rot = _Rotation(dec.V0, lift=full_state) if dec.V0.shape[1] < m.dim else None
        kept = e._sweep_parts = (key, _Parts(e.limit, dec.V0, rot, full_state))
    own = kept[1]
    segments = []  # per segment: its parts and its scaled model
    for alpha in drive.amplitudes[:reached]:
        limit, scaled = displace_limit(e.limit, alpha), displace_scaled(m, alpha)
        parts = own if scaled is m else _Parts(limit, dec.V0, own.rot, full_state)
        segments.append((parts, scaled))
    Z0 = dec.P0.matrix if full_state else dagger(dec.V0)  # the full state X, or its rows V0† X
    lift = None if full_state else dec.V0
    w0 = vec(Z0).astype(complex)
    # a block holds about five d x d complex matrices and a few floats per grid time
    rows = max(1, _READ_BYTES // (80 * m.dim**2 + 256))

    distances = np.empty((ks.size, steps))
    max_clamp = 0.0
    for i, k in enumerate(ks):
        gens = [parts.generator(scaled, k) for parts, scaled in segments]
        # each next() steps a block; an overflow is InvalidArgument in a step, else ClampExceeded
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, Ws in _propagate(gens, segments, breakpoints, w0, t_grid, k, rows, h):
                distances[i, lo : lo + len(Ws)], clamp = _distances_from_states(Ws, lift, v)
                max_clamp = max(max_clamp, clamp)
    return ConvergenceReport(
        ks=ks,
        t_grid=t_grid,
        distances=distances,
        sup_distance=distances.max(axis=1),
        max_clamp=max_clamp,
    )
