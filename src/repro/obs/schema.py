"""JSON-schema validation of emitted traces (no third-party dependency).

CI runs a traced sweep and gates on ``mas-attention obs validate``, which
checks every line of the JSONL file against :data:`TRACE_SPAN_SCHEMA` plus
two referential invariants a per-record schema cannot express:

* every non-null ``parent_id`` resolves to a span present in the file
  (spans must be flushed across process boundaries, not lost);
* a child's ``trace_id`` matches its parent's (propagation never forks a
  new trace mid-tree).

The validator implements the small JSON-Schema subset the trace schema
needs (``type``/``const``/``pattern``/``required``/``properties``/
``additionalProperties``/``minimum``/``minLength``), because the container
deliberately has no ``jsonschema`` package.
"""

from __future__ import annotations

import os
import re
from typing import Any

from repro.obs.export import read_trace

__all__ = ["TRACE_SPAN_SCHEMA", "validate_span", "validate_trace_file"]

#: Schema of one JSONL trace line, as emitted by :class:`repro.obs.trace.Tracer`.
TRACE_SPAN_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": [
        "type", "name", "layer", "trace_id", "span_id", "parent_id",
        "ts_us", "dur_us", "pid", "tid", "attrs",
    ],
    "additionalProperties": False,
    "properties": {
        "type": {"const": "span"},
        "name": {"type": "string", "minLength": 1},
        "layer": {"type": "string", "minLength": 1},
        "trace_id": {"type": "string", "pattern": "^[0-9a-f]{16}$"},
        "span_id": {"type": "string", "pattern": "^[0-9a-f]{8}$"},
        "parent_id": {"type": ["string", "null"], "pattern": "^[0-9a-f]{8}$"},
        "ts_us": {"type": "integer", "minimum": 0},
        "dur_us": {"type": "integer", "minimum": 0},
        "pid": {"type": "integer", "minimum": 1},
        "tid": {"type": "integer", "minimum": 0},
        "attrs": {"type": "object"},
    },
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _check(value: Any, schema: dict[str, Any], where: str, errors: list[str]) -> None:
    types = schema.get("type")
    if types is not None:
        names = [types] if isinstance(types, str) else list(types)
        if not any(_TYPE_CHECKS[name](value) for name in names):
            errors.append(f"{where}: expected {' or '.join(names)}, got {type(value).__name__}")
            return
    if "const" in schema and value != schema["const"]:
        errors.append(f"{where}: expected {schema['const']!r}, got {value!r}")
    if "pattern" in schema and isinstance(value, str):
        if re.search(schema["pattern"], value) is None:
            errors.append(f"{where}: {value!r} does not match {schema['pattern']!r}")
    if "minLength" in schema and isinstance(value, str) and len(value) < schema["minLength"]:
        errors.append(f"{where}: shorter than {schema['minLength']} characters")
    if "minimum" in schema and isinstance(value, (int, float)) and not isinstance(value, bool):
        if value < schema["minimum"]:
            errors.append(f"{where}: {value!r} below minimum {schema['minimum']!r}")
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for name in schema.get("required", []):
            if name not in value:
                errors.append(f"{where}: missing required field {name!r}")
        if schema.get("additionalProperties") is False:
            for name in value:
                if name not in properties:
                    errors.append(f"{where}: unexpected field {name!r}")
        for name, sub in properties.items():
            if name in value:
                _check(value[name], sub, f"{where}.{name}", errors)


def validate_span(record: Any, where: str = "span") -> list[str]:
    """Schema errors for one parsed trace record; empty list when valid."""
    errors: list[str] = []
    _check(record, TRACE_SPAN_SCHEMA, where, errors)
    return errors


def validate_trace_file(path: str | os.PathLike[str]) -> list[str]:
    """Schema + referential errors for a whole JSONL trace file."""
    spans = read_trace(path)
    errors: list[str] = []
    for index, record in enumerate(spans, start=1):
        errors.extend(validate_span(record, where=f"line {index}"))
    if errors:
        return errors  # referential checks assume well-formed records
    by_id = {record["span_id"]: record for record in spans}
    for index, record in enumerate(spans, start=1):
        parent_id = record["parent_id"]
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            errors.append(
                f"line {index}: parent_id {parent_id!r} not found in trace "
                f"(a parent span was never flushed?)"
            )
        elif parent["trace_id"] != record["trace_id"]:
            errors.append(
                f"line {index}: trace_id {record['trace_id']!r} differs from "
                f"parent's {parent['trace_id']!r}"
            )
    if not spans:
        errors.append("trace file contains no spans")
    return errors
