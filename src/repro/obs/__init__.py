"""Unified observability layer: span tracing, metrics, exporters, the perf trajectory.

The pieces, one import point:

* :mod:`repro.obs.trace` — cross-process span tracing of the
  sweep → pair → search-generation → store-op path, enabled by
  ``MAS_TRACE=<path>`` (JSONL output);
* :mod:`repro.obs.metrics` — counters, gauges and latency histograms with
  p50/p95/p99; the per-process registry counts store retries;
* :mod:`repro.obs.prom` / :mod:`repro.obs.export` — Prometheus text
  exposition and Chrome trace-event conversion;
* :mod:`repro.obs.bench` — the perf-trajectory history and regression
  gate behind ``mas-attention obs bench record|compare|check``.

``mas-attention obs summarize|convert|validate|bench`` is the CLI surface;
``docs/observability.md`` is the guide.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    MetricFamily,
    MetricsRegistry,
    global_registry,
)
from repro.obs.trace import (
    Span,
    TraceContext,
    Tracer,
    attach_context,
    configure,
    current_context,
    flush,
    get_tracer,
    reset,
    span,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "MetricFamily",
    "MetricsRegistry",
    "Span",
    "TraceContext",
    "Tracer",
    "attach_context",
    "configure",
    "current_context",
    "flush",
    "get_tracer",
    "global_registry",
    "reset",
    "span",
]
