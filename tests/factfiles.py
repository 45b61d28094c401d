"""Fact files for the tests: the shipped fact base as a document, and a
writer that lays a document out as the shipped file is, one entry a line,
so that lint messages can name the line of the entry at fault."""

import json

from coincalc.tables import FactBase


def shipped_factbase() -> dict:
    with open(FactBase.bundled_path(), encoding="utf-8") as handle:
        return json.load(handle)


def factbase_text(doc: dict) -> str:
    """``doc`` as JSON text, its keys in order, each entry of a list on a
    line of its own; the shipped document comes out as the shipped file."""
    parts = []
    for key, value in doc.items():
        if isinstance(value, list):
            body = ",\n".join(f"    {json.dumps(e)}" for e in value)
            parts.append(f"  {json.dumps(key)}: [\n{body}\n  ]")
        else:
            parts.append(f"  {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"
