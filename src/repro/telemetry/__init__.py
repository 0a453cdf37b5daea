"""Campaign-scoped telemetry: spans, metrics, exporters.

Quick start::

    from repro import telemetry

    with telemetry.session() as tel:
        with tel.span("campaign", label="fig8"):
            run_campaign()
    print(telemetry.summary(tel))

Library code never starts sessions; it asks for the ambient one::

    tel = telemetry.current()          # NULL_TELEMETRY when inactive
    with tel.span("solve", tau=task.tau):
        ...
    if tel.active:
        tel.metrics.counter("cache.hit").inc(label="model")

See :mod:`repro.telemetry.schema` for the declared names (checked by
repro-lint RL003), :mod:`repro.telemetry.core` for the tracer and the
worker merge protocol, and :mod:`repro.telemetry.export` for the JSONL
/ Chrome-trace / summary exporters.
"""

from repro.telemetry.clock import Clock, VirtualClock, WallClock
from repro.telemetry.core import (Counter, Gauge, Metrics,
                                  NULL_TELEMETRY, NullTelemetry, Span,
                                  SpanHandle, Telemetry, current,
                                  session, start, stop)
from repro.telemetry.export import (TelemetryJsonlWriter,
                                    export_chrome_trace,
                                    read_telemetry_jsonl, summary,
                                    validate_telemetry_jsonl)
from repro.telemetry.schema import TELEMETRY_SCHEMA

__all__ = [
    "Clock", "VirtualClock", "WallClock",
    "Counter", "Gauge", "Metrics",
    "NULL_TELEMETRY", "NullTelemetry", "Span", "SpanHandle",
    "Telemetry", "current", "session", "start", "stop",
    "TelemetryJsonlWriter", "export_chrome_trace",
    "read_telemetry_jsonl", "summary", "validate_telemetry_jsonl",
    "TELEMETRY_SCHEMA",
]
