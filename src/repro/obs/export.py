"""Trace exporters: JSON document, Chrome trace-event format, text tree.

The JSON document format is versioned and validated by the checked-in
schema (``trace_schema.json``) — CI round-trips a Q1/Q6 trace through
:func:`validate_trace` on every push. The Chrome format loads directly
into ``chrome://tracing`` / https://ui.perfetto.dev as complete ("X")
events, one timeline row per thread, with span point-events as instant
("i") markers.

The schema validator is deliberately minimal (type / required /
properties / items / enum / ``$ref`` into ``$defs``) so the repo needs
no jsonschema dependency.
"""

from __future__ import annotations

import json
from pathlib import Path

from .trace import Span, iter_spans

__all__ = [
    "chrome_trace_events",
    "load_trace_schema",
    "render_tree",
    "span_to_dict",
    "trace_to_dict",
    "validate_trace",
    "write_chrome_trace",
    "write_json_trace",
]

TRACE_FORMAT_VERSION = 1

_SCHEMA_PATH = Path(__file__).with_name("trace_schema.json")


def _jsonable(value):
    """Coerce attr values to plain JSON scalars (numpy scalars included)."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


def span_to_dict(span: Span) -> dict:
    return {
        "kind": span.kind,
        "name": span.name,
        "start_s": float(span.start_s),
        "end_s": float(span.end_s if span.end_s is not None else span.start_s),
        "thread": int(span.thread),
        "attrs": {str(k): _jsonable(v) for k, v in span.attrs.items()},
        "events": [
            {
                "name": e["name"],
                "t_s": float(e["t_s"]),
                "attrs": {str(k): _jsonable(v) for k, v in e["attrs"].items()},
            }
            for e in span.events
        ],
        "children": [span_to_dict(child) for child in span.children],
    }


def trace_to_dict(tracer, meta: dict | None = None) -> dict:
    """The versioned JSON trace document for a tracer's recorded roots."""
    return {
        "version": TRACE_FORMAT_VERSION,
        "generator": "repro.obs",
        "meta": {str(k): _jsonable(v) for k, v in (meta or {}).items()},
        "spans": [span_to_dict(root) for root in tracer.roots],
    }


def write_json_trace(path, tracer, meta: dict | None = None) -> None:
    Path(path).write_text(json.dumps(trace_to_dict(tracer, meta), indent=2) + "\n")


# -- Chrome trace-event format ------------------------------------------


def chrome_trace_events(tracer) -> list[dict]:
    """Spans as Chrome trace events (ts/dur in microseconds, rebased so
    the earliest span starts at 0; thread ids remapped to small ints in
    first-seen order so the timeline rows are stable)."""
    spans = [s for root in tracer.roots for s in iter_spans(root)]
    if not spans:
        return []
    t0 = min(s.start_s for s in spans)
    tids: dict[int, int] = {}
    events: list[dict] = []
    for span in spans:
        tid = tids.setdefault(span.thread, len(tids))
        end_s = span.end_s if span.end_s is not None else span.start_s
        events.append({
            "ph": "X",
            "name": f"{span.kind}:{span.name}" if span.kind != "operator" else span.name,
            "cat": span.kind,
            "ts": (span.start_s - t0) * 1e6,
            "dur": max(0.0, (end_s - span.start_s) * 1e6),
            "pid": 0,
            "tid": tid,
            "args": {str(k): _jsonable(v) for k, v in span.attrs.items()},
        })
        for e in span.events:
            events.append({
                "ph": "i",
                "name": e["name"],
                "cat": span.kind,
                "ts": (e["t_s"] - t0) * 1e6,
                "pid": 0,
                "tid": tid,
                "s": "t",
                "args": {str(k): _jsonable(v) for k, v in e["attrs"].items()},
            })
    return events


def write_chrome_trace(path, tracer) -> None:
    doc = {"traceEvents": chrome_trace_events(tracer), "displayTimeUnit": "ms"}
    Path(path).write_text(json.dumps(doc) + "\n")


# -- Schema validation --------------------------------------------------


def load_trace_schema() -> dict:
    return json.loads(_SCHEMA_PATH.read_text())


def _validate(value, schema: dict, root: dict, path: str) -> None:
    ref = schema.get("$ref")
    if ref is not None:
        if not ref.startswith("#/"):
            raise ValueError(f"unsupported $ref {ref!r}")
        target = root
        for part in ref[2:].split("/"):
            target = target[part]
        _validate(value, target, root, path)
        return

    expected = schema.get("type")
    if expected is not None:
        checks = {
            "object": lambda v: isinstance(v, dict),
            "array": lambda v: isinstance(v, list),
            "string": lambda v: isinstance(v, str),
            "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
            "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
            "boolean": lambda v: isinstance(v, bool),
        }
        if expected not in checks:
            raise ValueError(f"unsupported schema type {expected!r}")
        if not checks[expected](value):
            raise ValueError(
                f"{path}: expected {expected}, got {type(value).__name__}"
            )

    enum = schema.get("enum")
    if enum is not None and value not in enum:
        raise ValueError(f"{path}: {value!r} not one of {enum}")

    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ValueError(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        for key, sub in properties.items():
            if key in value:
                _validate(value[key], sub, root, f"{path}.{key}")

    if isinstance(value, list):
        items = schema.get("items")
        if items is not None:
            for i, element in enumerate(value):
                _validate(element, items, root, f"{path}[{i}]")


def validate_trace(doc: dict, schema: dict | None = None) -> None:
    """Raise ``ValueError`` if ``doc`` does not match the trace schema."""
    schema = schema if schema is not None else load_trace_schema()
    _validate(doc, schema, schema, "$")


# -- Text rendering -----------------------------------------------------

_TREE_ATTRS = ("tuples_in", "tuples_out", "seq_bytes", "skipped_bytes",
               "gather_bytes", "saved_bytes", "cached", "coverage", "kernel")


def render_tree(tracer, max_children: int = 12) -> str:
    """Human-readable span tree for the CLI (durations + key attrs)."""
    lines: list[str] = []

    def walk(span: Span, depth: int) -> None:
        extras = []
        for key in _TREE_ATTRS:
            if key in span.attrs:
                value = span.attrs[key]
                extras.append(
                    f"{key}={value:.0f}" if isinstance(value, float) else f"{key}={value}"
                )
        if span.events:
            extras.append(f"events={len(span.events)}")
        suffix = f"  [{', '.join(extras)}]" if extras else ""
        lines.append(
            f"{'  ' * depth}{span.kind}:{span.name}  "
            f"{span.duration_s * 1e3:.3f} ms{suffix}"
        )
        shown = span.children[:max_children]
        for child in shown:
            walk(child, depth + 1)
        hidden = len(span.children) - len(shown)
        if hidden > 0:
            lines.append(f"{'  ' * (depth + 1)}... {hidden} more spans")

    for root in tracer.roots:
        walk(root, 0)
    return "\n".join(lines)
