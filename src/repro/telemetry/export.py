"""Telemetry exporters: JSONL event log, Chrome trace, summary table.

The JSONL log is *streamed*: :class:`TelemetryJsonlWriter` registers
as a span listener and writes one flat line per span as it closes
(children before parents, with ``id``/``parent`` links), flushing
after every line — so a run aborted by an exception or a SIGKILL
leaves a valid, replayable prefix.  Metrics are appended on close.
Use it as a context manager; ``__exit__`` closes (and flushes) even
when the block raises.

The Chrome trace is the ``trace_event`` JSON format: open the file in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  Spans
become complete (``"ph": "X"``) events; overlapping sibling spans —
replications merged from a worker pool — are fanned out over virtual
thread ids so parallelism is visible as stacked lanes.
"""

from __future__ import annotations

import json
from types import TracebackType
from typing import (Any, Dict, IO, List, Mapping, Optional, Tuple,
                    Type, Union)

from repro.obs.health import LogHistogram
from repro.obs.sinks import iter_jsonl
from repro.telemetry.core import Span, Telemetry
from repro.telemetry.schema import TELEMETRY_SCHEMA

JSONL_SCHEMA_VERSION = 1


def _span_line(span: Span) -> Dict[str, Any]:
    return {
        "type": "span", "id": span.span_id, "parent": span.parent_id,
        "name": span.name, "label": span.label, "status": span.status,
        "t0": span.t0, "t1": span.t1,
        "attrs": dict(span.attrs), "timing": dict(span.timing),
    }


class TelemetryJsonlWriter:
    """Streams a session's spans (and final metrics) to JSONL."""

    def __init__(self, tel: Telemetry,
                 target: Union[str, IO[str]]) -> None:
        self._tel = tel
        self._owns_handle = isinstance(target, str)
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "w", encoding="utf-8")
        else:
            self._handle = target
        self._closed = False
        self._spans_written = 0
        self._emit({"type": "meta", "schema": JSONL_SCHEMA_VERSION,
                    "source": "repro.telemetry"})
        tel.add_listener(self._on_span)

    def _emit(self, record: Mapping[str, Any]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def _on_span(self, span: Span) -> None:
        self._emit(_span_line(span))
        self._spans_written += 1

    def close(self) -> None:
        """Detach, append metrics + end marker, flush; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._tel.remove_listener(self._on_span)
        snapshot = self._tel.metrics.snapshot()
        for name, values in snapshot["counters"].items():
            self._emit({"type": "counter", "name": name,
                        "values": values})
        for name, value in snapshot["gauges"].items():
            self._emit({"type": "gauge", "name": name, "value": value})
        for name, agg in snapshot["histograms"].items():
            self._emit(dict({"type": "histogram", "name": name}, **agg))
        self._emit({"type": "end", "spans": self._spans_written})
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "TelemetryJsonlWriter":
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        self.close()
        return None


def _read_span(record: Mapping[str, Any]) -> Span:
    """A span line as a :class:`Span`, ids included; ``ValueError``
    when its ids or timestamps are malformed."""
    if not (type(record.get("id")) is int and record["id"] >= 1
            and type(record.get("parent")) is int):
        raise ValueError("bad span id/parent")
    t0, t1 = record.get("t0"), record.get("t1")
    if not (type(t0) in (int, float) and type(t1) in (int, float)
            and t1 >= t0):
        raise ValueError("bad span timestamps")
    span = Span.from_dict(record)
    span.span_id, span.parent_id = record["id"], record["parent"]
    return span


def _read_metric(kind: str, record: Mapping[str, Any]) -> Any:
    """The snapshot value of a counter, gauge or histogram line (as
    :meth:`Metrics.snapshot` holds it); ``ValueError`` when malformed.
    Histograms go through the strict :meth:`LogHistogram.from_dict`."""
    if kind == "counter":
        values = record.get("values")
        if not (isinstance(values, dict)
                and all(type(n) is int for n in values.values())):
            raise ValueError("counter values must map labels to ints")
        return dict(values)
    if kind == "gauge":
        if type(record.get("value")) not in (int, float):
            raise ValueError("gauge value must be a number")
        return record["value"]
    return LogHistogram.from_dict(record).to_dict()


def read_telemetry_jsonl(path: str) \
        -> Tuple[List[Span], Dict[str, Any]]:
    """Rebuild (root spans, metrics snapshot) from a JSONL log.

    Tolerates aborted logs: any well-formed prefix reconstructs the
    spans that had closed by the time the run died.
    """
    by_id: Dict[int, Span] = {}
    order: List[Tuple[int, int]] = []  # (span_id, parent_id) file order
    metrics: Dict[str, Any] = {"counters": {}, "gauges": {},
                               "histograms": {}}
    for _, record in iter_jsonl(path):
        kind = record.get("type")
        if kind == "span":
            span = _read_span(record)
            by_id[span.span_id] = span
            order.append((span.span_id, span.parent_id))
        elif kind in ("counter", "gauge", "histogram"):
            metrics[kind + "s"][record["name"]] = \
                _read_metric(kind, record)
    roots: List[Span] = []
    for span_id, parent_id in order:  # children precede parents
        parent = by_id.get(parent_id)
        if parent is not None:
            parent.children.append(by_id[span_id])
        else:
            roots.append(by_id[span_id])
    return roots, metrics


def validate_telemetry_jsonl(path: str) -> int:
    """Validate a telemetry JSONL log; returns the record count.

    Raises ValueError (with a line number) on malformed JSON, unknown
    record types, undeclared or mis-kinded telemetry names, and span
    or metric lines :func:`read_telemetry_jsonl` cannot read back
    (bad ids, non-monotone timestamps, malformed payloads).  A missing
    ``end`` marker is fine — aborted runs stop mid-stream by design —
    but when present its span count must match.
    """
    records = 0
    spans_seen = 0
    for lineno, record in iter_jsonl(path):
        kind = record.get("type")
        try:
            if records == 0 and kind != "meta":
                raise ValueError(
                    f"first record must be 'meta', got {kind!r}")
            if kind == "meta":
                if record.get("schema") != JSONL_SCHEMA_VERSION:
                    raise ValueError(f"unsupported schema "
                                     f"{record.get('schema')!r}")
            elif kind in ("span", "counter", "gauge", "histogram"):
                name = record.get("name")
                if TELEMETRY_SCHEMA.get(str(name)) != kind:
                    raise ValueError(f"undeclared {kind} {name!r}")
                if kind == "span":
                    _read_span(record)
                    spans_seen += 1
                else:
                    _read_metric(kind, record)
            elif kind == "end":
                if record.get("spans") != spans_seen:
                    raise ValueError(
                        f"end marker says {record.get('spans')} "
                        f"spans, saw {spans_seen}")
            else:
                raise ValueError(f"unknown record type {kind!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        records += 1
    if records == 0:
        raise ValueError(f"{path}: empty telemetry log")
    return records


# ---------------------------------------------------------------------
# Chrome trace_event export
# ---------------------------------------------------------------------
def export_chrome_trace(tel: Telemetry, path: str) -> int:
    """Write the span tree as Chrome ``trace_event`` JSON.

    Returns the number of duration events written.  Sibling spans that
    overlap in time (parallel workers) are assigned distinct virtual
    ``tid`` lanes with a greedy first-fit, so the trace shows real
    concurrency; serial campaigns collapse onto one lane.
    """
    base = min((span.t0 for root in tel.roots
                for span in root.walk()), default=0.0)
    events: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": 0,
         "args": {"name": "repro campaign"}},
    ]

    next_tid = [1]

    def walk(span: Span, tid: int) -> None:
        title = f"{span.name} {span.label}".strip()
        args: Dict[str, Any] = dict(span.attrs)
        args.update(span.timing)
        args["status"] = span.status
        events.append({
            "name": title, "cat": span.name, "ph": "X",
            "ts": (span.t0 - base) * 1e6,
            "dur": span.duration_s * 1e6,
            "pid": 0, "tid": tid, "args": args,
        })
        # Greedy lane assignment: lane 0 is the parent's tid, new
        # lanes get fresh tids only when children genuinely overlap.
        lane_tids = [tid]
        lane_ends = [float("-inf")]
        for child in sorted(span.children,
                            key=lambda s: (s.t0, s.span_id)):
            for lane, end in enumerate(lane_ends):
                if end <= child.t0 + 1e-9:
                    break
            else:
                lane = len(lane_ends)
                lane_ends.append(float("-inf"))
                lane_tids.append(next_tid[0])
                next_tid[0] += 1
            lane_ends[lane] = child.t1
            walk(child, lane_tids[lane])

    for root in tel.roots:
        walk(root, 0)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return sum(1 for event in events if event["ph"] == "X")


# ---------------------------------------------------------------------
# Terminal summary
# ---------------------------------------------------------------------
def summary(tel: Telemetry) -> str:
    """End-of-campaign text table: span aggregates, counters, derived
    rates (cache hit rate, worker utilization)."""
    agg: Dict[str, List[float]] = {}  # name -> [count, total_s]
    for root in tel.roots:
        for span in root.walk():
            entry = agg.setdefault(span.name, [0, 0.0])
            entry[0] += 1
            entry[1] += span.duration_s
    lines = ["telemetry summary"]
    if agg:
        width = max(len(name) for name in agg)
        lines.append(f"  {'span':<{width}}  {'count':>7}  "
                     f"{'total s':>10}  {'mean s':>10}")
        for name, (count, total) in agg.items():
            lines.append(
                f"  {name:<{width}}  {int(count):>7}  {total:>10.3f}"
                f"  {total / count if count else 0.0:>10.4f}")
    counters = tel.metrics.counters()
    if counters:
        lines.append("  counters:")
        for counter in counters:
            labels = ", ".join(
                f"{label or '-'}={n}"
                for label, n in sorted(counter.values.items()))
            lines.append(f"    {counter.name} = {counter.total}"
                         + (f"  ({labels})" if labels else ""))
    hits = sum(c.total for c in counters if c.name == "cache.hit")
    misses = sum(c.total for c in counters if c.name == "cache.miss")
    if hits or misses:
        rate = 100.0 * hits / (hits + misses)
        lines.append(f"  cache hit rate: {rate:.1f}%"
                     f"  ({hits} hits / {misses} misses)")
    for gauge in tel.metrics.gauges():
        if gauge.value is None:
            continue
        if gauge.name == "executor.utilization":
            lines.append(
                f"  worker utilization: {100.0 * gauge.value:.1f}%")
        else:
            lines.append(f"  {gauge.name} = {gauge.value:.4g}")
    histograms = {name: hist for name, hist
                  in tel.metrics.histograms().items() if hist.count}
    if histograms:
        lines.append("  histograms:")
        for name, hist in histograms.items():
            lines.append(
                f"    {name}: n={hist.count}"
                f" mean={hist.mean():.4f}s"
                f" min={hist.min:.4f}s max={hist.max:.4f}s")
    return "\n".join(lines)
