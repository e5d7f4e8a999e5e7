"""Independent high-precision oracle for the two-level vacuum sup distance.

Builds the 4x4 skew generator of the two-level atom (delta = gamma = 1,
alpha = 0.5) from its closed-form operators in mpmath, independently of the
package's float64 path, and evaluates

    sup_t sqrt(<v, (2 I - T_t(P0) - T_t(P0)^dagger) v>),  T_t = exp(t L_k),

on the vacuum-ladder time grid for each coupling k.  Writes
``stiff_oracle.json`` next to this file:

    python3 bench/data/stiff_oracle.py

The values are computed at 60 and at 90 significant digits and must agree to
1e-45 relative before they are written with 50 digits.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

DELTA, GAMMA, ALPHA = 1, 1, mp.mpf("0.5")
KS = ["5", "100", "10000"]
HORIZON, STEPS = 1, 6
OUT = Path(__file__).with_name("stiff_oracle.json")


def sup_distance(k: mp.mpf) -> mp.mpf:
    """Two-level vacuum sup distance at coupling k, at the current precision."""
    i = mp.mpc(0, 1)
    delta, gamma, alpha = mp.mpf(DELTA), mp.mpf(GAMMA), mp.mpf(ALPHA)
    # basis (|e>, |g>); sigma_m = |g><e|, sigma_p = |e><g|
    P_e = mp.matrix([[1, 0], [0, 0]])
    P_g = mp.matrix([[0, 0], [0, 1]])
    sp = mp.matrix([[0, 1], [0, 0]])
    sm = mp.matrix([[0, 0], [1, 0]])
    Y = (-i * delta - gamma / 2) * P_e
    A = -i * alpha * sp - i * mp.conj(alpha) * sm
    F = mp.sqrt(gamma) * sm
    denom = i * delta + gamma / 2
    K0 = (-abs(alpha) ** 2 / denom) * P_g
    L0 = (-i * alpha * mp.sqrt(gamma) / denom) * P_g
    Kk = k * k * Y + k * A
    Lk = k * F

    def skew(X):
        return K0.H * X + X * Kk + L0.H * X * Lk

    # column-stacking superoperator: column (a + 2 b) is vec(skew(E_ab))
    gen = mp.matrix(4, 4)
    for b in range(2):
        for a in range(2):
            E = mp.matrix(2, 2)
            E[a, b] = 1
            image = skew(E)
            for col in range(2):
                for row in range(2):
                    gen[row + 2 * col, a + 2 * b] = image[row, col]
    w0 = mp.matrix([P_g[0, 0], P_g[1, 0], P_g[0, 1], P_g[1, 1]])
    best = mp.mpf(0)
    for j in range(STEPS):
        t = mp.mpf(HORIZON) * j / (STEPS - 1)
        w = mp.expm(t * gen) * w0
        T_gg = w[3]  # (g, g) entry; v = |g> is the default ground vector
        best = max(best, mp.sqrt(max(mp.mpf(0), 2 - 2 * mp.re(T_gg))))
    return best


def main() -> None:
    values = {}
    for k in KS:
        with mp.workdps(60):
            low = sup_distance(mp.mpf(k))
        with mp.workdps(90):
            high = sup_distance(mp.mpf(k))
        with mp.workdps(90):
            if abs(low - high) > mp.mpf("1e-45") * abs(high):
                raise SystemExit(f"k={k}: 60- and 90-digit values disagree")
        values[k] = mp.nstr(high, 50)
    doc = {
        "model": {"name": "two_level", "delta": DELTA, "gamma": GAMMA, "alpha": str(ALPHA)},
        "horizon": HORIZON,
        "steps": STEPS,
        "digits": 50,
        "sup_distance": values,
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
