"""Fixtures, grids, references and timed helpers shared by the numeric workloads.

Importing this module imports numpy and the package, so ``run.py`` imports it
inside the timed set-up.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath
import numpy as np
from factories import coefficient_gap

from qsde_elim import (
    CLAMP_ABORT,
    catalog,
    check_inverse_structure,
    decompose,
    default_ground_vector,
    eliminate,
    k_sweep,
    kernel_projector,
    restricted_inverse,
)

DATA = Path(__file__).resolve().parent / "data"

HORIZON = 1.0
ATOL = 1e-8              # the frozen sweep values hold to this (tests/test_semigroup.py)
CLOSED_FORM_TOL = 1e-9   # coefficient gap to the catalog closed forms

STIFF_ORACLE = json.loads((DATA / "stiff_oracle.json").read_text())
# The vacuum grid is the oracle's grid: t = 0, 0.2, ..., 1.  linspace gives
# it three distinct float step lengths, so a vacuum sweep computes three
# exponentials per coupling, and the float64 two-level distance at k = 1e4 is
# off by the same 35 % as on the 21-point grid (see bench/README.md).
VACUUM_STEPS = int(STIFF_ORACLE["steps"])
STIFF_K = 1e4


def load_reference() -> dict:
    """Values recorded from the parent commit by data/record_reference.py."""
    return json.loads((DATA / "reference.json").read_text())


def catalog_fixtures(n_trunc: int = 4) -> dict:
    """name -> (model, closed-form limit builder) at the acceptance parameters."""
    blocks = catalog.default_cavity_blocks()
    return {
        "two_level": (
            catalog.two_level_atom(1.0, 1.0, 0.5),
            lambda: catalog.two_level_limit(1.0, 1.0, 0.5),
        ),
        "alkali": (
            catalog.alkali_atom(1.0, 1.0, 0.2, 0.0, 0.4),
            lambda: catalog.alkali_limit(1.0, 1.0, 0.2, 0.0, 0.4),
        ),
        "cavity": (
            catalog.default_cavity_system(n_trunc=n_trunc),
            lambda: catalog.cavity_limit(1.0, *blocks, n_trunc=n_trunc),
        ),
        "lambda": (
            catalog.lambda_system(1.0, 2.0, 0.4, n_trunc),
            lambda: catalog.lambda_limit(1.0, 2.0, 0.4, n_trunc),
        ),
    }


def timed_eliminate(tracer, m):
    """eliminate(m) as one span; when tracing, re-time its public constituents
    on the same input right after it returns."""
    with tracer.span("eliminate.eliminate"):
        e = eliminate(m)
    if tracer.enabled:
        with tracer.span("linalg.kernel_projector"):
            kernel_projector(m.Y)
        with tracer.span("linalg.restricted_inverse"):
            restricted_inverse(m.Y, e.decomposition.P1)
        with tracer.span("eliminate.decompose"):
            dec = decompose(m)
        with tracer.span("eliminate.check_inverse_structure"):
            check_inverse_structure(m, dec)
    return e


def prepare_sweep(tracer, m):
    """Elimination result and default ground vector of a sweep fixture."""
    e = timed_eliminate(tracer, m)
    return e, default_ground_vector(e.decomposition.P0)


def sweep_problems(sup, max_clamp, expected) -> list[str]:
    """Reference check of a sweep's per-k suprema and its largest clamp."""
    problems = []
    if not max_clamp <= CLAMP_ABORT:
        problems.append(f"max_clamp {max_clamp:.3e} above CLAMP_ABORT")
    if expected is not None:
        gap = np.max(np.abs(np.asarray(sup) - np.asarray(expected, dtype=float)))
        if not gap <= ATOL:
            problems.append(f"sup distance {list(sup)} off reference {list(expected)} by {gap:.3e}")
    return problems


def closed_form_problems(limit, closed_form) -> list[str]:
    gap = coefficient_gap(limit, closed_form())
    return [] if gap <= CLOSED_FORM_TOL else [f"limit off the closed form by {gap:.3e}"]


def oracle_sup(k: float) -> mpmath.mpf:
    return mpmath.mpf(STIFF_ORACLE["sup_distance"][f"{k:g}"])


def stiff_rel_err(sup: float) -> float:
    """Relative error of a float64 two-level sup distance at k = 1e4 against
    the 50-digit oracle; the difference is taken in mpmath, so it is never 0."""
    with mpmath.workdps(60):
        truth = oracle_sup(STIFF_K)
        return float(abs(mpmath.mpf(sup) - truth) / truth)


def two_level_vacuum_sup(k: float) -> float:
    m = catalog.two_level_atom(1.0, 1.0, 0.5)
    e = eliminate(m)
    v = default_ground_vector(e.decomposition.P0)
    return float(k_sweep(m, e, v, [k], HORIZON, VACUUM_STEPS).sup_distance[0])
