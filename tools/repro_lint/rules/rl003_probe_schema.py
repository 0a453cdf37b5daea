"""RL003 — literal names must match their declared registries.

Three registries declare the instrumentation's names, each read at
runtime by the one module that owns it: probe topics
(``repro.obs.bus.SCHEMA``, opened with ``bus.probe("topic")``),
campaign spans and metrics (``repro.telemetry.schema.TELEMETRY_SCHEMA``,
``.span`` / ``.counter`` / ``.gauge`` / ``.histogram("name")``) and
exposition series (``repro.obs.export.PROMETHEUS_METRICS``,
``sample_line`` for gauges and counters, ``histogram_lines``).  They
stay separate dicts — merged, ``.gauge("repro_campaign_sessions")``
would pass — but share this one check, driven by :data:`REGISTRIES`:
one row per registry giving its file and variable, how an entry's
kind is read, which kinds each accessor or helper accepts, and the
message wording.  Across the whole tree (which no per-file linter can
see), for every row whose registry file is part of the run:

* an accessor call under ``src/`` with a literal first argument must
  name a declared entry (the runtime refuses undeclared names too, but
  only on the paths a given run executes), of a kind the accessor
  accepts (``.counter("executor.utilization")`` on a gauge entry is a
  bug);
* every entry needs at least one literal call site under ``src/``; a
  dead entry fires on its own line, so it gets removed or the
  instrumentation restored.

Probe topics carry one more contract: every ``<probe>.emit(t, ...)``
carries one timestamp plus exactly ``len(SCHEMA[topic])`` values — an
arity drift silently mis-labels JSONL fields.  Emit sites are resolved
by tracking, per class, ``self._p_x = <...>.probe("topic")`` bindings
(conditional forms included), plain-variable equivalents and local
aliases (``p = self._p_x``).  Attributes bound in a base class
(possibly in another file) resolve through a project-wide map; a name
bound to two different topics anywhere is ambiguous and skipped.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, List, Mapping,
                    Optional, Set, Tuple)

from tools.repro_lint.engine import Finding, Project, SourceFile

RULE = "RL003"
SUMMARY = ("probe/telemetry names inconsistent with their declared "
           "schema registries")

EMITTER_SCOPE = ("src",)

_AMBIGUOUS = object()


def _str_value(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _tuple_arity(node: ast.expr) -> Optional[int]:
    return len(node.elts) if isinstance(node, ast.Tuple) else None


def _tuple_head(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Tuple) and node.elts:
        return _str_value(node.elts[0])
    return None


@dataclass(frozen=True)
class Registry:
    """One declared-name registry and how its call sites look."""

    file: str
    variable: str
    #: An entry's kind from its value node; None skips the entry.
    kind_of: Callable[[ast.expr], Any]
    #: Accessor/helper name -> kinds it accepts (None: any kind).
    calls: Mapping[str, Optional[FrozenSet[str]]]
    #: Message templates, formatted with ``name``, ``kind``, ``call``.
    unknown: str
    mismatch: str
    dead: str


PROBES = Registry(
    "src/repro/obs/bus.py", "SCHEMA", _tuple_arity, {"probe": None},
    unknown="probe topic {name!r} is not declared in "
            "repro.obs.bus.SCHEMA",
    mismatch="",
    dead="dead schema entry {name!r}: no emitter under src/ declares "
         "this probe — remove the entry or restore the probe")

REGISTRIES: Tuple[Registry, ...] = (
    PROBES,
    Registry(
        "src/repro/telemetry/schema.py", "TELEMETRY_SCHEMA", _str_value,
        {kind: frozenset({kind})
         for kind in ("span", "counter", "gauge", "histogram")},
        unknown="telemetry name {name!r} is not declared in "
                "repro.telemetry.schema.TELEMETRY_SCHEMA",
        mismatch="telemetry name {name!r} is declared as a {kind} but "
                 "used via .{call}()",
        dead="dead telemetry schema entry {name!r} ({kind}): no literal "
             "call site under src/ uses this name — remove the entry "
             "or restore the instrumentation"),
    Registry(
        "src/repro/obs/export.py", "PROMETHEUS_METRICS", _tuple_head,
        {"sample_line": frozenset({"gauge", "counter"}),
         "histogram_lines": frozenset({"histogram"})},
        unknown="Prometheus metric {name!r} is not registered in "
                "repro.obs.export.PROMETHEUS_METRICS",
        mismatch="Prometheus metric {name!r} is registered as a {kind} "
                 "but emitted via {call}()",
        dead="dead Prometheus registry entry {name!r} ({kind}): no "
             "literal sample_line()/histogram_lines() site under src/ "
             "emits this metric — remove the entry or restore the "
             "emission"),
)


@dataclass
class _Parsed:
    """A registry row with its parsed entries and the names used."""

    registry: Registry
    source: SourceFile
    #: name -> (kind, line number of the entry)
    entries: Dict[str, Tuple[Any, int]]
    used: Set[str] = field(default_factory=set)


def _parse_registry(source: SourceFile, registry: Registry) \
        -> Optional[Dict[str, Tuple[Any, int]]]:
    """The registry's dict literal as name -> (kind, entry line);
    None when the variable is absent or not a dict literal."""
    assert source.tree is not None
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == registry.variable
                   for t in targets):
            continue
        if not isinstance(value, ast.Dict):
            return None
        entries: Dict[str, Tuple[Any, int]] = {}
        for key, val in zip(value.keys, value.values):
            name = _str_value(key)
            kind = registry.kind_of(val)
            if key is not None and name is not None and kind is not None:
                entries[name] = (kind, key.lineno)
        return entries
    return None


def _literal_call(node: ast.AST) -> Optional[Tuple[str, str]]:
    """(called name, literal first argument) of ``f("lit", ...)`` or
    ``<...>.f("lit", ...)``; None for any other node."""
    if not (isinstance(node, ast.Call) and node.args):
        return None
    literal = _str_value(node.args[0])
    if isinstance(node.func, ast.Name):
        called = node.func.id
    elif isinstance(node.func, ast.Attribute):
        called = node.func.attr
    else:
        return None
    return None if literal is None else (called, literal)


def _check_calls(rows: List[_Parsed], project: Project) -> List[Finding]:
    """Undeclared names and kind mismatches at literal call sites;
    marks the names each row sees used."""
    by_call = {call: row for row in rows for call in row.registry.calls}
    findings: List[Finding] = []
    for source in project.iter_package(*EMITTER_SCOPE):
        if source.tree is None:
            continue
        for node in ast.walk(source.tree):
            hit = _literal_call(node)
            row = by_call.get(hit[0]) if hit is not None else None
            if hit is None or row is None:
                continue
            call, name = hit
            registry = row.registry
            at = (source.path, node.lineno, node.col_offset + 1, RULE)
            entry = row.entries.get(name)
            if entry is None:
                findings.append(Finding(
                    *at, registry.unknown.format(name=name)))
                continue
            row.used.add(name)
            accepted = registry.calls[call]
            if accepted is not None and entry[0] not in accepted:
                findings.append(Finding(*at, registry.mismatch.format(
                    name=name, kind=entry[0], call=call)))
    return findings


def _dead_entries(row: _Parsed) -> List[Finding]:
    """Entries no literal call site under ``src/`` uses, reported on
    the entry's own line."""
    return [Finding(row.source.path, lineno, 1, RULE,
                    row.registry.dead.format(name=name, kind=kind))
            for name, (kind, lineno) in sorted(row.entries.items())
            if name not in row.used]


def _bind(bindings: Dict[Any, object], key: Any, topic: object) -> None:
    """Record ``key -> topic``; a key bound to two topics is ambiguous."""
    known = bindings.get(key)
    ambiguous = known is not None and known != topic
    bindings[key] = _AMBIGUOUS if ambiguous else topic


def _self_attr(node: ast.expr) -> Optional[str]:
    """``X`` for a ``self.X`` expression, else None."""
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def _probe_topic(node: ast.AST) -> Optional[str]:
    """The topic of the ``probe("lit")`` call inside ``node``, if any."""
    for sub in ast.walk(node):
        hit = _literal_call(sub)
        if hit is not None and hit[0] == "probe":
            return hit[1]
    return None


class _FileScan(ast.NodeVisitor):
    """Collect probe bindings and emit calls, per class context."""

    def __init__(self):
        self.class_stack: List[str] = ["<module>"]
        # (class, kind, name) -> topic or _AMBIGUOUS; kind is "attr"
        # for ``self.X`` and "var" for plain names.
        self.bindings: Dict[Tuple[str, str, str], object] = {}
        # (class, var) -> self-attribute it aliases (``p = self._p_x``)
        self.var_aliases: Dict[Tuple[str, str], str] = {}
        self.emit_calls: List[Tuple[str, ast.Call]] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        topic = _probe_topic(node.value)
        aliased = _self_attr(node.value)
        here = self.class_stack[-1]
        if topic is not None:
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    _bind(self.bindings, (here, "attr", attr), topic)
                elif isinstance(target, ast.Name):
                    _bind(self.bindings, (here, "var", target.id), topic)
        elif aliased is not None and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            self.var_aliases[(here, node.targets[0].id)] = aliased
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "emit":
            self.emit_calls.append((self.class_stack[-1], node))
        self.generic_visit(node)


def _check_emit_arity(project: Project, probes: _Parsed) -> List[Finding]:
    """Emit calls whose payload does not match the topic's fields."""
    schema = probes.entries
    scans = []
    for source in project.iter_package(*EMITTER_SCOPE):
        if source.tree is None or source.rel == PROBES.file:
            continue
        scan = _FileScan()
        scan.visit(source.tree)
        scans.append((source, scan))

    # Project-wide attribute map: resolves emits on probe attributes
    # bound in a base class, possibly in another file.
    global_attrs: Dict[Any, object] = {}
    for _, scan in scans:
        for (_, kind, name), topic in scan.bindings.items():
            if kind == "attr":
                _bind(global_attrs, name, topic)

    findings: List[Finding] = []
    for source, scan in scans:
        for class_name, call in scan.emit_calls:
            func = call.func
            assert isinstance(func, ast.Attribute)
            attr = _self_attr(func.value)
            topic: object = None
            if attr is not None:
                topic = scan.bindings.get((class_name, "attr", attr))
            elif isinstance(func.value, ast.Name):
                var = func.value.id
                topic = scan.bindings.get((class_name, "var", var))
                if topic is None:
                    attr = scan.var_aliases.get((class_name, var))
                    if attr is not None:
                        topic = scan.bindings.get(
                            (class_name, "attr", attr))
            else:
                continue
            if topic is None and attr is not None:
                topic = global_attrs.get(attr)
            if not isinstance(topic, str) or topic not in schema:
                continue
            if any(isinstance(arg, ast.Starred) for arg in call.args) \
                    or call.keywords:
                continue  # dynamic payload; runtime validation only
            fields = schema[topic][0]
            expected = 1 + fields
            if len(call.args) != expected:
                findings.append(Finding(
                    source.path, call.lineno, call.col_offset + 1,
                    RULE,
                    f"emit on probe {topic!r} carries "
                    f"{len(call.args)} argument(s); SCHEMA declares "
                    f"{fields} payload field(s) (expected time + "
                    f"{fields} = {expected})"))
    return findings


def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    rows: List[_Parsed] = []
    for registry in REGISTRIES:
        source = project.get(registry.file)
        if source is None or source.tree is None:
            continue  # registry module not part of this run; inert
        entries = _parse_registry(source, registry)
        if entries is None:
            findings.append(Finding(
                source.path, 1, 1, RULE,
                f"could not parse the {registry.variable} dict literal"))
        else:
            rows.append(_Parsed(registry, source, entries))
    findings.extend(_check_calls(rows, project))
    for row in rows:
        findings.extend(_dead_entries(row))
        if row.registry is PROBES:
            findings.extend(_check_emit_arity(project, row))
    return findings
