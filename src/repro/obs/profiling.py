"""Lightweight profiling primitives feeding per-phase histograms.

``profile_block("offline_train.probe")`` times a block and observes the
wall-clock seconds into the histogram of that name in the global (or a
supplied) :class:`~repro.obs.metrics.MetricsRegistry`.  It also
accumulates into an optional dict — the per-phase
``Telemetry.phase_seconds`` the result classes carry — so a single timing
feeds the metrics exposition and the result object without being taken
twice.
"""

from __future__ import annotations

import time
from typing import MutableMapping

from .metrics import MetricsRegistry, get_metrics

__all__ = ["profile_block"]


class profile_block:
    """Context manager timing one phase.

    Parameters
    ----------
    name:
        Histogram name (by convention ``"<component>.<phase>"``).
    registry:
        Metrics registry; defaults to the global one.
    phases:
        Optional mapping accumulating ``{phase_key: seconds}`` — the
        ``Telemetry.phase_seconds`` of a result under construction.
    phase_key:
        Key used in ``phases``; defaults to the last dotted component of
        ``name``.
    """

    __slots__ = ("name", "registry", "phases", "phase_key", "_start",
                 "elapsed")

    def __init__(self, name: str, registry: MetricsRegistry | None = None,
                 phases: MutableMapping[str, float] | None = None,
                 phase_key: str | None = None) -> None:
        self.name = name
        self.registry = registry
        self.phases = phases
        self.phase_key = (phase_key if phase_key is not None
                          else name.rsplit(".", 1)[-1])
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "profile_block":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.elapsed = time.perf_counter() - self._start
        registry = self.registry if self.registry is not None else get_metrics()
        registry.histogram(self.name).observe(self.elapsed)
        if self.phases is not None:
            self.phases[self.phase_key] = (
                self.phases.get(self.phase_key, 0.0) + self.elapsed)
        return False

