"""Shared pieces of the three workloads: outcomes, checks, digests."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Union

#: Op id -> failure reason; ``None`` means the operation passed.
Ops = Dict[str, Optional[str]]


@dataclass
class Outcome:
    """What one pass of a workload's measured body produced."""

    #: Units of work for ``work_per_cpu_s``; ``None`` when the count
    #: comes from the counting pass (delivered packets).
    work: Optional[int]
    #: CPU seconds of the call that did that work (the cold call).
    work_cpu_s: float
    #: Wall seconds of the repeat call against the warm cache, or
    #: ``None`` for a workload without one.
    warm_rerun_s: Optional[float]
    #: Digest of the outputs; equal passes of one seed must agree.
    digest: str
    ops: Ops
    #: Exact counts the workload reads from its own objects.
    counts: Dict[str, float] = field(default_factory=dict)
    #: The digested outputs, for the counting pass's deeper checks.
    outputs: Dict[str, Any] = field(default_factory=dict)


def digest(payload: Any) -> str:
    """sha256 of a JSON rendering; floats keep every digit."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fail(ops: Ops, op: str, reason: str) -> None:
    """Record the first failure of ``op``."""
    if ops.get(op) is None:
        ops[op] = reason


def check_fraction(ops: Ops, op: str, value: float) -> None:
    if not (0.0 <= value <= 1.0) or math.isnan(value):
        fail(ops, op, f"late fraction {value!r} outside [0, 1]")


def check_non_increasing(ops: Ops, op: Union[str, Sequence[str]],
                         taus: Sequence[float],
                         values: Sequence[float],
                         slack: Optional[Sequence[float]] = None) \
        -> None:
    """``values`` (one per tau, ascending taus) must not increase, up
    to ``slack[i]`` between points ``i - 1`` and ``i``.  ``op`` is one
    op for the whole curve or one op per point (a rise fails the op of
    the later point)."""
    for i in range(1, len(values)):
        allowed = slack[i] if slack is not None else 0.0
        if values[i] > values[i - 1] + allowed:
            fail(ops, op if isinstance(op, str) else op[i],
                 f"late fraction rises from {values[i - 1]!r} at "
                 f"tau={taus[i - 1]:g} to {values[i]!r} at "
                 f"tau={taus[i]:g}")


def check_conservation(ops: Ops, op: str, assembly: Any) -> None:
    """Packet conservation for one DMP session's endpoint stack.

    Every generated packet entered the server queue; every queued
    packet is still queued or was fetched by a sender; every fetched
    packet the client received came through exactly one connection's
    in-order delivery, and the rest still sit in a send buffer.
    """
    source, queue, client = \
        assembly.source, assembly.queue, assembly.client
    delivered = sum(c.receiver.delivered for c in assembly.connections)
    buffered = sum(c.sender.buffered for c in assembly.connections)
    problems = []
    if source.generated != source.total_packets:
        problems.append(f"generated {source.generated} of "
                        f"{source.total_packets}")
    if queue is not None:
        if queue.enqueued != source.generated:
            problems.append(f"queued {queue.enqueued} != generated "
                            f"{source.generated}")
        if queue.fetched + len(queue) != queue.enqueued:
            problems.append(f"fetched {queue.fetched} + left "
                            f"{len(queue)} != queued {queue.enqueued}")
        if not delivered <= queue.fetched <= delivered + buffered:
            problems.append(f"fetched {queue.fetched} outside "
                            f"[{delivered}, {delivered + buffered}]")
    if client.received + client.duplicates != delivered:
        problems.append(f"client received {client.received} + "
                        f"{client.duplicates} duplicates != in-order "
                        f"deliveries {delivered}")
    if client.received > source.total_packets:
        problems.append(f"received {client.received} > total "
                        f"{source.total_packets}")
    if problems:
        fail(ops, op, "conservation: " + "; ".join(problems))


def same(a: float, b: float) -> bool:
    """Equality for values recomputed from identical inputs."""
    return a == b or (math.isnan(a) and math.isnan(b))
