"""Worked model catalog: four concrete scaled models with closed-form limits.

Each builder returns a :class:`~qsde_elim.model.ScaledModel`; the matching
``*_limit`` function returns the eliminated coefficients in closed form, used
as independent oracles by the test and acceptance suites.

Basis conventions (fixed):

* two-level atom: (|e>, |g>);
* lambda system: (|e>, |+>, |->), tensored with a Fock ladder |0..N-1>;
* oscillators: number basis |0..N-1>, b|n> = sqrt(n)|n-1>;
* tensor order: system (x) oscillator, channels of the alkali model are
  (x, y, z) in that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters
from .linalg import Projector, as_operator, dagger
from .model import CoefficientSet, ScaledModel


@dataclass(frozen=True)
class PauliOps:
    sigma_p: np.ndarray
    sigma_m: np.ndarray
    sigma_x: np.ndarray
    sigma_y: np.ndarray
    sigma_z: np.ndarray
    P_e: np.ndarray
    P_g: np.ndarray


@dataclass(frozen=True)
class LambdaOps:
    """Raising/lowering operators of a three-level lambda configuration."""

    sigma_p_plus: np.ndarray   # |e><+|
    sigma_m_plus: np.ndarray   # |+><e|
    sigma_p_minus: np.ndarray  # |e><-|
    sigma_m_minus: np.ndarray  # |-><e|
    P_plus: np.ndarray
    P_minus: np.ndarray
    P_e: np.ndarray


@dataclass(frozen=True)
class OscillatorOps:
    N: int
    b: np.ndarray
    bdag: np.ndarray
    number: np.ndarray


def pauli_ops() -> PauliOps:
    """Two-level operators in the (|e>, |g>) basis."""
    sp = np.array([[0, 1], [0, 0]], dtype=complex)
    sm = np.array([[0, 0], [1, 0]], dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return PauliOps(sp, sm, sx, sy, sz, P_e=sp @ sm, P_g=sm @ sp)


def lambda_ops() -> LambdaOps:
    """Three-level operators in the (|e>, |+>, |->) basis."""
    def ket_bra(i, j):
        m = np.zeros((3, 3), dtype=complex)
        m[i, j] = 1.0
        return m

    sp_plus = ket_bra(0, 1)
    sp_minus = ket_bra(0, 2)
    return LambdaOps(
        sigma_p_plus=sp_plus,
        sigma_m_plus=dagger(sp_plus),
        sigma_p_minus=sp_minus,
        sigma_m_minus=dagger(sp_minus),
        P_plus=ket_bra(1, 1),
        P_minus=ket_bra(2, 2),
        P_e=ket_bra(0, 0),
    )


def oscillator_ops(N: int) -> OscillatorOps:
    """Truncated oscillator on |0..N-1>; the top rung is annihilated by bdag."""
    N = int(N)
    if N < 2:
        raise InvalidParameters(f"oscillator truncation must be at least 2, got {N}")
    b = np.diag(np.sqrt(np.arange(1, N, dtype=float)), k=1).astype(complex)
    return OscillatorOps(N=N, b=b, bdag=dagger(b), number=dagger(b) @ b)


def _eye(d):
    return np.eye(d, dtype=complex)


def _identity_w(n, d):
    W = np.zeros((n, n, d, d), dtype=complex)
    for i in range(n):
        W[i, i] = _eye(d)
    return W


# ---------------------------------------------------------------------------
# driven two-level atom, one decay channel

def two_level_atom(delta: float, gamma: float, alpha: complex) -> ScaledModel:
    """Detuned two-level atom with coherent drive alpha and decay rate gamma.

    Y = (-i delta - gamma/2) |e><e|, A = -i alpha sigma_p - i conj(alpha) sigma_m,
    B = 0, F = sqrt(gamma) sigma_m, G = 0, W = I.
    """
    if gamma < 0:
        raise InvalidParameters(f"decay rate must be non-negative, got {gamma}")
    p = pauli_ops()
    alpha = complex(alpha)
    Y = (-1j * delta - gamma / 2.0) * p.P_e
    A = -1j * alpha * p.sigma_p - 1j * np.conj(alpha) * p.sigma_m
    B = np.zeros((2, 2), dtype=complex)
    F = [np.sqrt(gamma) * p.sigma_m]
    G = [np.zeros((2, 2), dtype=complex)]
    return ScaledModel(Y=Y, A=A, B=B, F=F, G=G, W=_identity_w(1, 2))


def two_level_limit(delta: float, gamma: float, alpha: complex) -> CoefficientSet:
    """Closed-form limit of :func:`two_level_atom` (requires Y != 0).

    All three coefficients are multiples of |g><g|:
    K = -|alpha|^2/(i delta + gamma/2), L = -i alpha sqrt(gamma)/(i delta + gamma/2),
    S = (i delta - gamma/2)/(i delta + gamma/2).
    """
    denom = 1j * delta + gamma / 2.0
    if denom == 0:
        raise InvalidParameters("limit undefined when delta = gamma = 0 (Y vanishes)")
    p = pauli_ops()
    alpha = complex(alpha)
    K = (-abs(alpha) ** 2 / denom) * p.P_g
    L = [(-1j * alpha * np.sqrt(gamma) / denom) * p.P_g]
    S = ((1j * delta - gamma / 2.0) / denom) * p.P_g
    return CoefficientSet(K=K, L=L, S=[[S]], ground=Projector(p.P_g, 1))


# ---------------------------------------------------------------------------
# alkali atom: two-level transition times spin-1/2, three field channels

def alkali_atom(delta: float, gamma: float, bx: float, by: float, bz: float) -> ScaledModel:
    """Spinful atom in a magnetic field, decaying through three channels.

    State space C^2 (e/g) tensor C^2 (spin).  Y = (-i delta - 3 gamma/2) P_e x I,
    B = -i I x (b . sigma), F_i = sqrt(gamma) sigma_m x sigma_i for i in (x, y, z),
    A = 0, G = 0, W = I.
    """
    if gamma < 0:
        raise InvalidParameters(f"decay rate must be non-negative, got {gamma}")
    p = pauli_ops()
    spin = [p.sigma_x, p.sigma_y, p.sigma_z]
    field = bx * p.sigma_x + by * p.sigma_y + bz * p.sigma_z
    d = 4
    Y = (-1j * delta - 1.5 * gamma) * np.kron(p.P_e, _eye(2))
    A = np.zeros((d, d), dtype=complex)
    B = -1j * np.kron(_eye(2), field)
    F = [np.sqrt(gamma) * np.kron(p.sigma_m, s) for s in spin]
    G = [np.zeros((d, d), dtype=complex) for _ in range(3)]
    return ScaledModel(Y=Y, A=A, B=B, F=F, G=G, W=_identity_w(3, d))


def alkali_limit(delta: float, gamma: float, bx: float, by: float, bz: float) -> CoefficientSet:
    """Closed-form limit of :func:`alkali_atom`: K = -i P_g x (b . sigma), L_i = 0,
    S_ij = P_g x (delta_ij I - gamma/(i delta + 3 gamma/2) sigma_i sigma_j)."""
    denom = 1j * delta + 1.5 * gamma
    if denom == 0:
        raise InvalidParameters("limit undefined when delta = gamma = 0 (Y vanishes)")
    p = pauli_ops()
    spin = [p.sigma_x, p.sigma_y, p.sigma_z]
    field = bx * p.sigma_x + by * p.sigma_y + bz * p.sigma_z
    d = 4
    K = -1j * np.kron(p.P_g, field)
    L = [np.zeros((d, d), dtype=complex) for _ in range(3)]
    c = gamma / denom
    S = np.empty((3, 3, d, d), dtype=complex)
    for i in range(3):
        for j in range(3):
            block = (1.0 if i == j else 0.0) * _eye(2) - c * spin[i] @ spin[j]
            S[i, j] = np.kron(p.P_g, block)
    ground = Projector(np.kron(p.P_g, _eye(2)), 2)
    return CoefficientSet(K=K, L=L, S=S, ground=ground)


# ---------------------------------------------------------------------------
# system coupled through a fast cavity mode

def cavity_system(
    gamma: float,
    e00: np.ndarray,
    e10: np.ndarray,
    e11: np.ndarray,
    n_trunc: int = 4,
) -> ScaledModel:
    """System coupled to a heavily damped cavity mode (truncated at n_trunc).

    The interaction blocks E_ij act on the system factor; e01 is taken as
    e10†.  Requires e00 and e11 Hermitian and ||e11|| < gamma/2 so that the
    cavity block of Y stays invertible.

    Y = (-i E11 - gamma/2) x b†b, A = -i (E10 x b† + E01 x b),
    B = -i E00 x I, F = sqrt(gamma) I x b, G = 0, W = I.
    """
    if gamma <= 0:
        raise InvalidParameters(f"cavity decay rate must be positive, got {gamma}")
    e00 = as_operator(e00, "e00")
    e10 = as_operator(e10, "e10")
    e11 = as_operator(e11, "e11")
    dh = e00.shape[0]
    if e10.shape[0] != dh or e11.shape[0] != dh:
        raise InvalidParameters("interaction blocks must act on one system dimension")
    # compared in units of the largest real or imaginary part (at least 1), so
    # that no Frobenius norm of finite entries overflows
    scale = max(1.0, *(np.max(np.abs(x), initial=0.0) for e in (e00, e11) for x in (e.real, e.imag)))
    h00, h11 = e00 / scale, e11 / scale
    herm_tol = 1e-12 * max(1.0 / scale, np.linalg.norm(h00), np.linalg.norm(h11))
    if np.linalg.norm(h00 - dagger(h00)) > herm_tol or np.linalg.norm(h11 - dagger(h11)) > herm_tol:
        raise InvalidParameters("e00 and e11 must be Hermitian")
    if np.linalg.norm(e11, 2) >= gamma / 2.0:
        raise InvalidParameters(
            f"need ||e11|| < gamma/2 for an invertible fast sector "
            f"(got {np.linalg.norm(e11, 2):.3g} >= {gamma / 2.0:.3g})"
        )
    e01 = dagger(e10)
    osc = oscillator_ops(n_trunc)
    d = dh * osc.N
    Y = np.kron(-1j * e11 - (gamma / 2.0) * _eye(dh), osc.number)
    A = -1j * (np.kron(e10, osc.bdag) + np.kron(e01, osc.b))
    B = -1j * np.kron(e00, _eye(osc.N))
    F = [np.sqrt(gamma) * np.kron(_eye(dh), osc.b)]
    G = [np.zeros((d, d), dtype=complex)]
    return ScaledModel(Y=Y, A=A, B=B, F=F, G=G, W=_identity_w(1, d))


def cavity_limit(gamma: float, e00, e10, e11, n_trunc: int = 4) -> CoefficientSet:
    """Closed-form limit of :func:`cavity_system`; M = (i E11 + gamma/2)^-1.

    K = (-i E00 - E01 M E10) x |0><0|, L = -i sqrt(gamma) M E10 x |0><0|,
    S = (i E11 - gamma/2) M x |0><0|.
    """
    e00 = as_operator(e00, "e00")
    e10 = as_operator(e10, "e10")
    e11 = as_operator(e11, "e11")
    e01 = dagger(e10)
    dh = e00.shape[0]
    N = int(n_trunc)
    M = np.linalg.inv(1j * e11 + (gamma / 2.0) * _eye(dh))
    vac = np.zeros((N, N), dtype=complex)
    vac[0, 0] = 1.0
    K = np.kron(-1j * e00 - e01 @ M @ e10, vac)
    L = [np.kron(-1j * np.sqrt(gamma) * M @ e10, vac)]
    S = np.kron((1j * e11 - (gamma / 2.0) * _eye(dh)) @ M, vac)
    ground = Projector(np.kron(_eye(dh), vac), dh)
    return CoefficientSet(K=K, L=L, S=[[S]], ground=ground)


def default_cavity_system(gamma: float = 1.0, n_trunc: int = 4) -> ScaledModel:
    """Reference cavity instance: dim_h = 2, E11 = 0.2 sigma_z, E10 = 0.3 sigma_m,
    E00 = 0.1 sigma_x."""
    e00, e10, e11 = default_cavity_blocks()
    return cavity_system(gamma, e00, e10, e11, n_trunc)


def default_cavity_blocks():
    p = pauli_ops()
    return 0.1 * p.sigma_x, 0.3 * p.sigma_m, 0.2 * p.sigma_z


# ---------------------------------------------------------------------------
# lambda system: three-level atom in a leaky cavity, one drive

def lambda_system(gamma: float, g: float, alpha: complex, n_trunc: int = 4) -> ScaledModel:
    """Lambda atom (e, +, -) in a cavity of decay gamma and coupling g.

    Y = -(gamma/2) I x b†b + g (|e><+| x b - |+><e| x b†),
    A = (alpha |e><-| - conj(alpha) |-><e|) x I, B = 0,
    F = sqrt(gamma) I x b, G = 0, W = I.
    """
    if gamma <= 0:
        raise InvalidParameters(f"cavity decay rate must be positive, got {gamma}")
    if g == 0:
        raise InvalidParameters("coupling g must be non-zero")
    lam = lambda_ops()
    osc = oscillator_ops(n_trunc)
    N = osc.N
    d = 3 * N
    alpha = complex(alpha)
    Y = -(gamma / 2.0) * np.kron(_eye(3), osc.number) + g * (
        np.kron(lam.sigma_p_plus, osc.b) - np.kron(lam.sigma_m_plus, osc.bdag)
    )
    A = np.kron(alpha * lam.sigma_p_minus - np.conj(alpha) * lam.sigma_m_minus, _eye(N))
    B = np.zeros((d, d), dtype=complex)
    F = [np.sqrt(gamma) * np.kron(_eye(3), osc.b)]
    G = [np.zeros((d, d), dtype=complex)]
    return ScaledModel(Y=Y, A=A, B=B, F=F, G=G, W=_identity_w(1, d))


def lambda_limit(gamma: float, g: float, alpha: complex, n_trunc: int = 4) -> CoefficientSet:
    """Closed-form limit of :func:`lambda_system`.

    With P0 = (P_+ + P_-) x |0><0|:
    K = -(|alpha|^2 gamma / (2 g^2)) P_- x |0><0|,
    L = -(sqrt(gamma) alpha / g) |+><-| x |0><0|,
    S = P0 - 2 P_- x |0><0|.
    """
    if gamma <= 0 or g == 0:
        raise InvalidParameters("require gamma > 0 and g != 0")
    lam = lambda_ops()
    N = int(n_trunc)
    alpha = complex(alpha)
    vac = np.zeros((N, N), dtype=complex)
    vac[0, 0] = 1.0
    p_minus_vac = np.kron(lam.P_minus, vac)
    P0m = np.kron(lam.P_plus + lam.P_minus, vac)
    K = -(abs(alpha) ** 2 * gamma / (2.0 * g * g)) * p_minus_vac
    L = [-(np.sqrt(gamma) * alpha / g) * np.kron(lam.sigma_m_plus @ lam.sigma_p_minus, vac)]
    S = P0m - 2.0 * p_minus_vac
    return CoefficientSet(K=K, L=L, S=[[S]], ground=Projector(P0m, 2))
