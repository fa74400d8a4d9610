"""Unified observability: metrics registry, tracing, slow-query log.

The stack's six layers (session caches, MVCC store, query service, wire
server, WAL durability, engines) each kept ad-hoc counters with no common
surface.  This package is that surface:

* :class:`MetricsRegistry` — thread-safe labelled counters / gauges /
  fixed-bucket histograms, snapshotable to JSON and to the Prometheus text
  exposition format.  The legacy stats objects (``CacheStats``,
  ``ServiceStats``, ``StoreStats``, ``WalDurability``) keep their public
  accessors and *mirror* into a shared per-tenant registry.
* :class:`TraceContext` / :class:`Span` / :class:`SpanRecorder` /
  :func:`assemble_trace` — the one span model (see
  :mod:`repro.obs.context`).  A trace id follows a write from the routing
  client through the primary's fold, journal and publish into every
  replica's apply, and a read from the client through the server's
  ``query`` op span to the service's per-query stage spans (queue-wait →
  pin → plan → index-build → first-match → stream-drain → wire-encode);
  :func:`trace_document` renders one query's stages into
  ``report.extra["trace"]``.  Trace ids ride back on error payloads too.
* :class:`SlowQueryLog` — a JSON-lines record (bounded ring + optional
  file) of every query over a configurable threshold, span breakdown
  included.
* :class:`Telemetry` — the per-tenant bundle of registry, slow log, span
  ring and query sampling rate, threaded through ``GraphDB`` → store →
  service → WAL as one context object.
* :func:`percentile` / :class:`Reservoir` — the single shared quantile
  implementation (nearest-rank) and its bounded-memory sampling companion.

Across nodes:

* :mod:`repro.obs.health` — the shared ``ready`` / ``degraded`` /
  ``unhealthy`` / ``unreachable`` vocabulary behind the ``health`` wire
  op and the router's probing.
* :class:`EventLog` — each server's bounded ring of lifecycle events,
  queryable over the ``events`` wire op.
* :class:`ClusterMonitor` — federated scraping: every node's per-tenant
  registries merged into one cluster snapshot with ``node`` / ``role`` /
  ``tenant`` labels plus derived fleet gauges, as JSON or Prometheus
  text (see :mod:`repro.obs.federation`); ``python -m repro.obs.console``
  renders it as a live dashboard.
"""

from repro.obs.context import (
    Span,
    SpanRecorder,
    TraceContext,
    assemble_trace,
    new_span_id,
    new_trace_id,
    trace_document,
    trace_span,
)
from repro.obs.events import EventLog
from repro.obs.health import (
    DEGRADED,
    READY,
    UNHEALTHY,
    UNREACHABLE,
    classify_tenant,
    is_servable,
    worst,
)
from repro.obs.federation import ClusterMonitor
from repro.obs.log import TenantLoggerAdapter, configure as configure_logging, get_logger
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    CounterFamily,
    GaugeFamily,
    HistogramFamily,
    MetricsRegistry,
)
from repro.obs.quantiles import Reservoir, percentile
from repro.obs.slowlog import SlowQueryLog
from repro.obs.telemetry import Telemetry

__all__ = [
    "DEFAULT_BUCKETS",
    "DEGRADED",
    "READY",
    "UNHEALTHY",
    "UNREACHABLE",
    "ClusterMonitor",
    "CounterFamily",
    "EventLog",
    "GaugeFamily",
    "HistogramFamily",
    "MetricsRegistry",
    "Reservoir",
    "SlowQueryLog",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "TenantLoggerAdapter",
    "TraceContext",
    "assemble_trace",
    "classify_tenant",
    "configure_logging",
    "get_logger",
    "is_servable",
    "new_span_id",
    "new_trace_id",
    "percentile",
    "trace_document",
    "trace_span",
    "worst",
]
