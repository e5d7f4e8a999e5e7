"""certify-batch: structural certification of about five hundred models.

One item certifies one model: unitarity at k = 1 and scaling consistency,
elimination, the Kurtz generator-convergence check at ks = [10, 30, 100, 300],
and elimination of the displaced model against the displaced limit.  The
models are 504 seeded ``random_valid_model`` instances, 42 for each pair of
d in {4, 8, 16, 32} and channels in {1, 2, 3}, plus the four catalog
fixtures: 508 items.  Generating them is the set-up, which runs three times
a run, so this size keeps a run within its time budget on a slow host.
No item computes a matrix exponential, so this workload bypasses the
propagation path and stresses the SVD, restricted inverse, identity checks
and Kurtz residuals.
"""

from __future__ import annotations

import numpy as np

from common import catalog_fixtures, closed_form_problems, coefficient_gap, timed_eliminate
from factories import random_valid_model
from qsde_elim import (
    check_hp_unitarity,
    check_scaling_consistency,
    displace_limit,
    displace_scaled,
    eliminate,
    generator_convergence_check,
    instantiate,
    norm_scale,
)

N_RANDOM = 504  # 42 of each of the 12 (d, channels) pairs
DIMS = (4, 8, 16, 32)
CHANNELS = (1, 2, 3)
KURTZ_KS = [10.0, 30.0, 100.0, 300.0]
SLOPE_TOL = 0.15         # acceptance criterion 7
RESIDUAL_FLOOR = 1e-12   # corrected residuals this small leave no slope to fit (alkali)
DISPLACE_TOL = 1e-9      # relative to the largest limit coefficient


class Workload:
    def __init__(self, seed: int, tracer):
        rng = np.random.default_rng(seed)
        # every (d, channels) pair equally often, in seeded order, so the
        # cost of a pass does not depend on the seed's draw of sizes
        shapes = [(d, n) for d in DIMS for n in CHANNELS] * (N_RANDOM // (len(DIMS) * len(CHANNELS)))
        self.models = {}
        for d, n in rng.permutation(shapes).tolist():
            d0 = int(rng.integers(1, d // 2 + 1))
            with tracer.span("factories.random_valid_model"):
                m = random_valid_model(rng, d0, d - d0, n)
            self.models[f"random-{len(self.models)}-d{d}-n{n}"] = (m, self._amplitude(rng, n), None)
        for name, (m, closed_form) in catalog_fixtures().items():
            self.models[name] = (m, self._amplitude(rng, m.channels), closed_form)
        self.items = list(self.models)

    @staticmethod
    def _amplitude(rng, channels: int) -> np.ndarray:
        return 0.5 * (rng.normal(size=channels) + 1j * rng.normal(size=channels))

    def run(self, item: str, tracer) -> dict:
        m, alpha, closed_form = self.models[item]
        with tracer.span("model.instantiate"):
            c = instantiate(m, 1.0)
        with tracer.span("model.check_hp_unitarity"):
            hp = check_hp_unitarity(c)
        with tracer.span("model.check_scaling_consistency"):
            scaling = check_scaling_consistency(m)
        e = timed_eliminate(tracer, m)
        with tracer.span("semigroup.generator_convergence_check"):
            res = generator_convergence_check(m, e, e.decomposition.P0.matrix, KURTZ_KS)
        with tracer.span("eliminate.displace"):
            md = displace_scaled(m, alpha)
            cd = displace_limit(e.limit, alpha)
        with tracer.span("eliminate.eliminate"):
            ed = eliminate(md)
        return {
            "checks": {
                "unitarity": hp.passed,
                "scaling": scaling.passed,
                "inverse_structure": e.inverse_structure.passed,
                "ground_support": e.ground_support.passed,
                "limit_unitarity": e.limit_unitarity.passed,
            },
            "slope": res.corrected_slope(),
            "max_corrected": float(np.max(res.corrected)),
            "displace_gap": coefficient_gap(ed.limit, cd),
            "displace_scale": norm_scale(cd.K, cd.L, cd.S),
            "limit": e.limit if closed_form is not None else None,
        }

    def problems(self, item: str, result: dict, pass_results: dict) -> list[str]:
        found = [f"{name} check failed" for name, ok in result["checks"].items() if not ok]
        slope = result["slope"]
        at_floor = np.isnan(slope) and result["max_corrected"] <= RESIDUAL_FLOOR
        if not (abs(slope + 1.0) <= SLOPE_TOL or at_floor):
            found.append(f"Kurtz slope {slope:.4g}, max corrected residual {result['max_corrected']:.3e}")
        if not result["displace_gap"] <= DISPLACE_TOL * result["displace_scale"]:
            found.append(f"elimination does not commute with displacement (gap {result['displace_gap']:.3e})")
        closed_form = self.models[item][2]
        if closed_form is not None:
            found += closed_form_problems(result["limit"], closed_form)
        return found

    def perturbations(self, pass_results: dict):
        return ()

    def stiff_sup(self, pass_results: dict):
        return None
