"""Random scaled models that satisfy every structural identity by construction.

Working in a basis where the first d0 coordinates span the slow sector and
the remaining d1 the fast sector:

* F_i is supported on the fast block only, so the fast-sector dissipativity
  identity can be solved exactly by taking the fast block of Y to be
  -(1/2) sum_i F_i†F_i plus an arbitrary skew part.
* W is a unitary channel-block matrix that never mixes the two sectors
  (assembled from two independent Haar unitaries), which makes the
  sector-crossing zero products hold exactly.
* The fast->slow block of G_i is tied to A's slow->fast block through the
  inverse of Y's fast block, which is precisely what forces the limit
  couplings onto the slow sector.
* A's remaining blocks and B are then solved from the order-by-order
  dissipativity identities, with free Hermitian parts.

A final Haar conjugation hides the block structure so the kernel projector
and restricted inverse are exercised on a non-axis-aligned model.

The closed-form oracles at the end (the lambda system's restricted inverse and
the undamped two-level ground amplitude) serve the tests only: no package code
computes them.
"""

from __future__ import annotations

import numpy as np

from qsde_elim.errors import InvalidParameters
from qsde_elim.linalg import expm, unblocks
from qsde_elim.model import ScaledModel


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (z + z.conj().T) / 2.0


def _block_unitary_family(rng: np.random.Generator, n: int, d0: int, d1: int) -> np.ndarray:
    """n*n grid of d*d blocks W_ij, jointly unitary, never mixing the sectors."""
    W = np.zeros((n, n, d0 + d1, d0 + d1), dtype=complex)
    for sector, size in ((slice(None, d0), d0), (slice(d0, None), d1)):
        if size:  # the ground unitary first, then the excited one
            W[:, :, sector, sector] = unblocks(haar_unitary(rng, n * size), size)
    return W


def random_valid_model(
    rng: np.random.Generator,
    d0: int = 2,
    d1: int = 3,
    channels: int = 2,
    rotate: bool = True,
) -> ScaledModel:
    d = d0 + d1
    n = channels

    # fast-sector couplings and an invertible fast drift block
    while True:
        Fe = [rng.normal(size=(d1, d1)) + 1j * rng.normal(size=(d1, d1)) for _ in range(n)]
        Y11 = -0.5 * sum(f.conj().T @ f for f in Fe) + 1j * random_hermitian(rng, d1)
        if np.linalg.svd(Y11, compute_uv=False)[-1] > 1e-3:
            break

    Y = np.zeros((d, d), dtype=complex)
    Y[d0:, d0:] = Y11
    Y11_inv = np.linalg.inv(Y11)

    F = []
    for i in range(n):
        Fi = np.zeros((d, d), dtype=complex)
        Fi[d0:, d0:] = Fe[i]
        F.append(Fi)

    # slow->fast drive block of A, with G's fast->slow block tied to it so the
    # limit couplings stay on the slow sector
    A10 = rng.normal(size=(d1, d0)) + 1j * rng.normal(size=(d1, d0))
    G = []
    for i in range(n):
        Gi = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        Gi[d0:, :d0] = Fe[i] @ Y11_inv @ A10
        G.append(Gi)

    M = sum(F[i].conj().T @ G[i] + G[i].conj().T @ F[i] for i in range(n))
    A = np.zeros((d, d), dtype=complex)
    A[d0:, :d0] = A10
    A[:d0, d0:] = -M[:d0, d0:] - A10.conj().T
    A[d0:, d0:] = -0.5 * M[d0:, d0:] + 1j * random_hermitian(rng, d1)

    B = -0.5 * sum(g.conj().T @ g for g in G) + 1j * random_hermitian(rng, d)
    W = _block_unitary_family(rng, n, d0, d1)

    if rotate:
        V = haar_unitary(rng, d)
        Vh = V.conj().T
        Y = V @ Y @ Vh
        A = V @ A @ Vh
        B = V @ B @ Vh
        F = [V @ f @ Vh for f in F]
        G = [V @ g @ Vh for g in G]
        W = V @ W @ Vh  # one d x d product pair per block W_ij

    return ScaledModel(Y=Y, A=A, B=B, F=F, G=G, W=W)


def coefficient_gap(a, b) -> float:
    """Largest Frobenius gap between two coefficient sets (K, L, S)."""
    return max(
        float(np.linalg.norm(a.K - b.K)),
        float(np.linalg.norm(np.asarray(a.L) - np.asarray(b.L))),
        float(np.linalg.norm(np.asarray(a.S) - np.asarray(b.S))),
    )


def model_gap(a: ScaledModel, b: ScaledModel) -> float:
    """Largest Frobenius gap between two scaled models (Y, A, B, F, G, W)."""
    return max(
        float(np.linalg.norm(a.Y - b.Y)),
        float(np.linalg.norm(a.A - b.A)),
        float(np.linalg.norm(a.B - b.B)),
        float(np.linalg.norm(a.F - b.F)),
        float(np.linalg.norm(a.G - b.G)),
        float(np.linalg.norm(a.W - b.W)),
    )


def lambda_y1inv_block(gamma: float, g: float, n: int) -> np.ndarray:
    """Closed-form inverse of the fast block of the lambda Y on the n-quantum
    subspace span{|+,n>, |-,n>, |e,n-1>}, 1 <= n <= N-1:

        -(1/det) [[gamma (n-1)/2, 0, -g sqrt(n)],
                  [0, 2 det/(gamma n), 0],
                  [g sqrt(n), 0, gamma n/2]],   det = gamma^2 n (n-1)/4 + g^2 n.
    """
    n = int(n)
    if n < 1:
        raise InvalidParameters("block index must be at least 1")
    det = gamma * gamma * n * (n - 1) / 4.0 + g * g * n
    rt = np.sqrt(float(n))
    block = np.array(
        [
            [gamma * (n - 1) / 2.0, 0.0, -g * rt],
            [0.0, 2.0 * det / (gamma * n), 0.0],
            [g * rt, 0.0, gamma * n / 2.0],
        ],
        dtype=complex,
    )
    return -block / det


def lambda_y1inv(gamma: float, g: float, n_trunc: int = 4) -> np.ndarray:
    """Assemble the full closed-form restricted inverse of the lambda Y.

    Index convention: atom (e, +, -) tensor Fock, so |a, n> sits at a*N + n.
    The top block span{|e, N-1>} inverts to -2/(gamma (N-1)).
    """
    N = int(n_trunc)
    d = 3 * N
    out = np.zeros((d, d), dtype=complex)

    def idx(atom: int, fock: int) -> int:
        return atom * N + fock

    for n in range(1, N):
        rows = [idx(1, n), idx(2, n), idx(0, n - 1)]
        block = lambda_y1inv_block(gamma, g, n)
        for r, ri in enumerate(rows):
            for c, ci in enumerate(rows):
                out[ri, ci] = block[r, c]
    out[idx(0, N - 1), idx(0, N - 1)] = -2.0 / (gamma * (N - 1))
    return out


def decoupled_ground_amplitude(delta: float, alpha: complex, k: float, t: float) -> complex:
    """Ground-to-ground amplitude of exp(-i H t) for the undamped atom at
    coupling k, with H = k alpha sigma_p + k conj(alpha) sigma_m + k^2 delta P_e.

    Computed directly from the 2x2 exponential; as k grows it approaches
    exp(i |alpha|^2 t / delta).
    """
    alpha = complex(alpha)
    k = float(k)
    H = np.array(
        [[k * k * delta, k * alpha], [k * np.conj(alpha), 0.0]],
        dtype=complex,
    )
    U = expm(-1j * t * H)
    return complex(U[1, 1])
