"""vacuum-ladder: vacuum sweeps over a dimension ladder and three couplings.

One item is one (model, k) vacuum sweep over the 6-point grid on [0, 1]:
three matrix exponentials of a dense d^2 x d^2 superoperator.  The ladder
runs from the two-level atom (d = 2) through the cavity at n_trunc 4, 8 and
16 (d = 8, 16, 32) to a seeded random valid model at d = 16.

Dense expm costs about d^6 log ||hG||_1, so a full ladder does not fit one
run: the d = 32 cavity at k = 1e4 alone takes about 17 s.  Kept: two_level
at every k (it carries stiff_rel_err), the d = 32 cavity at k = 1e4, and the
d = 8 and d = 16 models at every k that is safe.  Left out: the d = 32 cavity
at k = 5 and 100, and the d = 32 random model, which would double the pass.
The random model is left out at k = 1e4: there float64 propagation is
unreliable (ROADMAP item 3) and its clamp reaches a third of CLAMP_ABORT, so
some seeds would abort the sweep.  It runs at k = 20 instead.
"""

from __future__ import annotations

import numpy as np

from common import (
    HORIZON,
    STIFF_K,
    VACUUM_STEPS,
    catalog_fixtures,
    closed_form_problems,
    load_reference,
    oracle_sup,
    prepare_sweep,
    sweep_problems,
)
from factories import random_valid_model
from qsde_elim import build_generators, k_sweep

LADDER = [
    ("two_level", (5.0, 100.0, STIFF_K)),
    ("cavity-d8", (5.0, 100.0, STIFF_K)),
    ("cavity-d16", (5.0, 100.0, STIFF_K)),
    ("random-d16", (5.0, 20.0, 100.0)),
    ("cavity-d32", (STIFF_K,)),
]
# (ground dimension, fast dimension, channels) of the random models
RANDOM_SHAPES = {"random-d16": (4, 12, 2)}
# a random model must decay between k = 5 and k = 100 at a log-log slope this close to -1
SLOPE_TOL = 0.25


def item_id(model: str, k: float) -> str:
    return f"{model}@k={k:g}"


class Workload:
    def __init__(self, seed: int, tracer):
        rng = np.random.default_rng(seed)
        two_level = catalog_fixtures()["two_level"]
        models = {"two_level": two_level}
        for n_trunc in (4, 8, 16):
            models[f"cavity-d{2 * n_trunc}"] = catalog_fixtures(n_trunc)["cavity"]
        for name, (d0, d1, channels) in RANDOM_SHAPES.items():
            with tracer.span("factories.random_valid_model"):
                models[name] = (random_valid_model(rng, d0, d1, channels), None)
        self.models = {}
        for name, (m, closed_form) in models.items():
            e, v = prepare_sweep(tracer, m)
            self.models[name] = (m, e, v, closed_form)
        self.ladder = {item_id(name, k): (name, k) for name, ks in LADDER for k in ks}
        self.items = list(self.ladder)
        self.reference = None

    def run(self, item: str, tracer) -> dict:
        name, k = self.ladder[item]
        m, e, v, _ = self.models[name]
        with tracer.span("semigroup.k_sweep"):
            rep = k_sweep(m, e, v, [k], HORIZON, VACUUM_STEPS)
        if tracer.enabled:
            with tracer.span("semigroup.build_generators"):
                build_generators(m, e, k)
        return {
            "sup": [float(rep.sup_distance[0])],
            "max_clamp": float(rep.max_clamp),
            "distances": [float(x) for x in rep.distances[0]],
        }

    def expected(self, name: str, k: float):
        """Reference sup distance, or None where the float64 value is not
        trusted (k = 1e4) or the model depends on the seed."""
        if k >= STIFF_K or name.startswith("random"):
            return None
        if name == "two_level":
            return [float(oracle_sup(k))]
        if self.reference is None:
            self.reference = load_reference()["vacuum-ladder"]
        return [self.reference[item_id(name, k)]]

    def problems(self, item: str, result: dict, pass_results: dict) -> list[str]:
        name, k = self.ladder[item]
        m, e, _, closed_form = self.models[name]
        found = sweep_problems(result["sup"], result["max_clamp"], self.expected(name, k))
        dist = np.asarray(result["distances"])
        if not (np.all(np.isfinite(dist)) and np.all(dist <= 2.0) and dist[0] <= 1e-7):
            found.append(f"distances out of range: {list(dist)}")
        if closed_form is not None:
            found += closed_form_problems(e.limit, closed_form)
        if name.startswith("random"):
            if not (e.assumptions_pass and e.limit_unitarity.passed):
                found.append("structural checks failed")
            low = pass_results.get(item_id(name, 5.0))
            if k == 100.0 and low is not None:
                slope = np.log(result["sup"][0] / low["sup"][0]) / np.log(100.0 / 5.0)
                if not abs(slope + 1.0) <= SLOPE_TOL:
                    found.append(f"decay slope {slope:.3f} between k = 5 and 100")
        return found

    def perturbations(self, pass_results: dict):
        key = item_id("two_level", 5.0)
        bad = dict(pass_results[key])
        bad["sup"] = [bad["sup"][0] + 1e-6]
        yield "one distance perturbed by 1e-6", key, bad

    def stiff_sup(self, pass_results: dict):
        return pass_results[item_id("two_level", STIFF_K)]["sup"][0]
