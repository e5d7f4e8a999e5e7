"""driven-catalog: driven k sweeps of the four catalog fixtures.

One item is one fixture's coherent sweep at ks = [5, 100] over 101 grid
points on [0, 1], under a two-segment step drive on channel 0.  Each sweep
computes 200 matrix exponentials of small superoperators (d <= 12), so this
workload is the propagation path at small d with many short exponentials.
The fixtures do not depend on the seed.
"""

from __future__ import annotations

import numpy as np

from common import (
    HORIZON,
    catalog_fixtures,
    closed_form_problems,
    load_reference,
    prepare_sweep,
    sweep_problems,
)
from qsde_elim import StepDrive, displace_limit, displace_scaled, instantiate, k_sweep

KS = [5.0, 100.0]
STEPS = 101
BREAKPOINTS = [0.0, 0.5, 1.0]
CHANNEL0_AMPLITUDES = [0.3, -0.2]
# tests/test_semigroup.py::test_driven_sweep_frozen_values
TWO_LEVEL_FROZEN = [0.176480436, 0.008762663]


def drive_for(channels: int) -> StepDrive:
    amps = np.zeros((len(CHANNEL0_AMPLITUDES), channels), dtype=complex)
    amps[:, 0] = CHANNEL0_AMPLITUDES
    return StepDrive(breakpoints=BREAKPOINTS, amplitudes=amps)


class Workload:
    def __init__(self, seed: int, tracer):
        self.fixtures = {}
        for name, (m, closed_form) in catalog_fixtures().items():
            e, v = prepare_sweep(tracer, m)
            self.fixtures[name] = (m, e, v, drive_for(m.channels), closed_form)
        self.items = list(self.fixtures)
        self.reference = None

    def run(self, item: str, tracer) -> dict:
        m, e, v, drive, _ = self.fixtures[item]
        with tracer.span("semigroup.k_sweep"):
            rep = k_sweep(m, e, v, KS, HORIZON, STEPS, drive)
        if tracer.enabled:
            for k in KS:
                for alpha in drive.amplitudes:
                    with tracer.span("eliminate.displace"):
                        md = displace_scaled(m, alpha)
                        displace_limit(e.limit, alpha)
                    with tracer.span("model.instantiate"):
                        instantiate(md, k)
        return {"sup": [float(x) for x in rep.sup_distance], "max_clamp": float(rep.max_clamp)}

    def expected(self, item: str):
        if item == "two_level":
            return TWO_LEVEL_FROZEN
        if self.reference is None:
            self.reference = load_reference()["driven-catalog"]
        return self.reference[item]

    def problems(self, item: str, result: dict, pass_results: dict) -> list[str]:
        _, e, _, _, closed_form = self.fixtures[item]
        return sweep_problems(result["sup"], result["max_clamp"], self.expected(item)) + (
            closed_form_problems(e.limit, closed_form)
        )

    def perturbations(self, pass_results: dict):
        bad = dict(pass_results["two_level"])
        bad["sup"] = [bad["sup"][0] + 1e-6] + bad["sup"][1:]
        yield "one distance perturbed by 1e-6", "two_level", bad

    def stiff_sup(self, pass_results: dict):
        return None
