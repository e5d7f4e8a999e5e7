"""In-memory spans for the traced benchmark run.

A span records a layer boundary as seen from outside the package: its name,
start and end (perf_counter seconds), the span that was open when it began,
and the item it belongs to.  Spans stay in memory and are written out once,
at the end of the run.

``Tracer.disabled()`` hands the untraced runs a tracer whose ``span`` is a
shared no-op context manager, so the end-to-end timings pay one attribute
lookup and one call per boundary.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: str


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.item = "setup"
        self._stack: list[int] = []
        # counters kept beside the spans, at the same boundaries
        self.expm_max_norm1 = 0.0
        self.expm_max_dim = 0
        self.superop_bytes = 0

    @classmethod
    def disabled(cls) -> "Tracer":
        return cls(enabled=False)

    @contextlib.contextmanager
    def _span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.item))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name)

    @contextlib.contextmanager
    def observe_kernels(self):
        """Wrap ``scipy.linalg.expm`` and ``numpy.kron`` while the block runs.

        ``qsde_elim.linalg`` calls both through their modules at call time,
        so the wrappers see every matrix exponential and every superoperator
        block the package assembles without touching a package attribute.
        The expm norm is taken after the call, outside its span.
        """
        import numpy
        import scipy.linalg

        real_expm, real_kron = scipy.linalg.expm, numpy.kron

        def expm(A, *args, **kwargs):
            with self.span("linalg.expm"):
                out = real_expm(A, *args, **kwargs)
            self.expm_max_norm1 = max(self.expm_max_norm1, float(numpy.linalg.norm(A, 1)))
            self.expm_max_dim = max(self.expm_max_dim, int(A.shape[0]))
            return out

        def kron(a, b):
            out = real_kron(a, b)
            if out.ndim == 2 and out.shape[0] == out.shape[1]:
                # a d^2 x d^2 complex superoperator block: 16 d^4 bytes
                self.superop_bytes += 16 * out.shape[0] ** 2
            return out

        scipy.linalg.expm, numpy.kron = expm, kron
        try:
            yield
        finally:
            scipy.linalg.expm, numpy.kron = real_expm, real_kron

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy time, and self time (busy minus the
        part of the interval covered by direct child spans)."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        rows: dict[str, dict[str, float]] = {}
        for idx, s in enumerate(self.spans):
            row = rows.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - child_time[idx]
        return rows

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "item": s.item}
                for s in self.spans
            ],
            "table": self.table(),
        }
