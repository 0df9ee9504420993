"""Observability: tracing, metrics, profiling and logging for the system.

The paper's Figure 2 control loop — controller ↔ agent ↔ CDB instance —
is only tunable in production if every hop is visible.  This package is
the single seam the rest of the repo instruments through:

* :mod:`repro.obs.tracing` — hierarchical spans (trace id, span id,
  parent, tags, wall/CPU time) with a zero-overhead no-op default and a
  thread-safe JSONL :class:`SpanExporter`;
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms with a Prometheus text exposition and a JSON snapshot;
* :mod:`repro.obs.profiling` — ``profile_block`` feeding per-phase
  histograms (and the ``Telemetry`` blocks results carry);
* :mod:`repro.obs.logging` — the ``repro`` logger hierarchy and the
  console wiring the CLIs use instead of ``print()``;
* :mod:`repro.obs.report` — the ``obs-report`` renderer (span tree +
  metrics summary from a JSONL capture).

Typical capture::

    from repro import obs

    exporter = obs.SpanExporter("trace.jsonl")
    obs.set_tracer(obs.Tracer(exporter))
    ...  # run a tuning session
    exporter.export(obs.get_metrics().snapshot())
    exporter.close()
    print(obs.obs_report("trace.jsonl"))
"""

from .logging import ROOT_LOGGER, configure_console, get_logger
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)
from .profiling import profile_block
from .report import load_jsonl, obs_report, render_metrics, render_trace
from .tracing import (
    NULL_SPAN,
    NullTracer,
    Span,
    SpanExporter,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "ROOT_LOGGER",
    "configure_console",
    "get_logger",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "profile_block",
    "load_jsonl",
    "obs_report",
    "render_metrics",
    "render_trace",
    "NULL_SPAN",
    "NullTracer",
    "Span",
    "SpanExporter",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]
