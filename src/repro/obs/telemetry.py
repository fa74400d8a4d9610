"""Telemetry: the one context object threaded through every serving layer.

A :class:`Telemetry` bundles the observability surfaces —
:class:`~repro.obs.metrics.MetricsRegistry`,
:class:`~repro.obs.slowlog.SlowQueryLog`, the tenant's
:class:`~repro.obs.context.SpanRecorder` and the query sampling rate — so
the stack passes a single handle down instead of four.  One instance per
tenant: a :class:`~repro.api.GraphDB` creates its own by default and hands
it to its store (which binds the WAL and every published session epoch) and
its query service; the wire server then merely *reads* the tenant's bundle
for the ``metrics``, ``slow_queries`` and ``spans`` ops.

Passing ``telemetry=None`` to ``GraphDB.open`` switches the whole subsystem
off — no registry mirroring, no sampling decision, no slow-log check — which
is the "disabled" arm of ``benchmarks/bench_obs.py``'s overhead comparison.
"""

from __future__ import annotations

import random
from typing import Optional, Union

from repro.obs.context import SpanRecorder, TraceContext
from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import SlowQueryLog


class Telemetry:
    """Per-tenant observability bundle: registry + slow log + spans + sampling.

    Parameters
    ----------
    registry / slow_log / spans:
        Pre-built components to adopt; anything omitted is constructed from
        the scalar knobs below.
    sample_rate:
        Probability that a query without a caller-supplied trace is traced
        (default ``0.0``: only explicitly requested traces are recorded).
    slow_query_seconds:
        Slow-log threshold; ``None`` (default) disables the log, ``0.0``
        records every query.
    slow_log_path:
        Optional JSON-lines file the slow log also appends to.
    span_capacity:
        Size of the span ring (see
        :class:`~repro.obs.context.SpanRecorder`): how many finished spans
        this tenant retains for the ``spans`` wire op and cross-node trace
        assembly.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        slow_log: Optional[SlowQueryLog] = None,
        spans: Optional[SpanRecorder] = None,
        sample_rate: float = 0.0,
        slow_query_seconds: Optional[float] = None,
        slow_log_path: Optional[str] = None,
        slow_log_capacity: int = 128,
        span_capacity: int = 512,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.slow_log = (
            slow_log
            if slow_log is not None
            else SlowQueryLog(
                threshold_seconds=slow_query_seconds,
                path=slow_log_path,
                capacity=slow_log_capacity,
            )
        )
        self.spans = spans if spans is not None else SpanRecorder(span_capacity)
        self.sample_rate = max(0.0, min(1.0, float(sample_rate)))

    def trace_context(
        self, trace: Optional[Union[str, TraceContext]] = None
    ) -> Optional[TraceContext]:
        """Decide, once per query, the context it is traced under.

        A caller-supplied ``trace`` (a trace id or a sampled
        :class:`~repro.obs.context.TraceContext`) always wins, whatever the
        rate; otherwise the query is sampled with probability
        ``sample_rate`` into a fresh root context.  ``None`` means untraced.
        """
        if trace is not None:
            if not isinstance(trace, TraceContext):
                return TraceContext(str(trace))
            return trace if trace.sampled else None
        rate = self.sample_rate
        if rate > 0.0 and (rate >= 1.0 or random.random() < rate):
            return TraceContext.new()
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Telemetry(registry={self.registry!r}, sample_rate={self.sample_rate}, "
            f"slow_log={self.slow_log!r}, spans={self.spans!r})"
        )
