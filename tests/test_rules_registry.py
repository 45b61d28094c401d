import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from coincalc.rules import REGISTRY

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "docs" / "rules.md"


def test_every_rule_is_documented():
    text = DOCS.read_text()
    missing = [rid for rid in REGISTRY if f"`{rid}`" not in text]
    assert missing == []


def test_documented_rules_are_registered():
    # the published vocabulary is closed: nothing in the docs table that
    # the registry does not know
    documented = set(re.findall(r"^\| `([^`]+)` \|", DOCS.read_text(),
                                flags=re.MULTILINE))
    assert documented == set(REGISTRY)


def test_documented_sentences_are_the_registry_sentences():
    # each table row states its rule in the words REGISTRY gives it
    rows = re.findall(r"^\| `([^`]+)` \| (.*) \|$", DOCS.read_text(),
                      flags=re.MULTILINE)
    assert len(rows) == len(REGISTRY)
    assert [rid for rid, sentence in rows
            if REGISTRY.get(rid) != sentence] == []


def _written_id_patterns() -> list[re.Pattern]:
    """One pattern per string literal in the package outside rules.py; an
    f-string's fields stand for integers, as in f"Table4.7-row{row}"."""
    patterns = []
    for path in (ROOT / "src" / "coincalc").glob("*.py"):
        if path.name == "rules.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                patterns.append(re.compile(re.escape(node.value)))
            elif isinstance(node, ast.JoinedStr):
                patterns.append(re.compile("".join(
                    re.escape(part.value) if isinstance(part, ast.Constant)
                    else r"\d+" for part in node.values)))
    return patterns


def test_every_rule_is_written_by_the_package():
    # an id that no module writes can never reach an answer or a fact
    patterns = _written_id_patterns()
    unwritten = [rid for rid in REGISTRY
                 if not any(p.fullmatch(rid) for p in patterns)]
    assert unwritten == []


def test_registry_descriptions_nonempty():
    for rid, description in REGISTRY.items():
        assert description.strip(), rid


# ids of facts and verdicts that each module builds once, at import; some
# sit on branches that only library functions reach (HHR-open in
# kervaire_case, Prop1.14 in del_vanishes_by_dimension, Thm1.33d in
# nsharp_restrictions) or that no generated query reaches (R8)
HOISTED = [
    ("coincalc.tables", "SO-order-open"),
    ("coincalc.torus", "needs:det_kills_top"),
    ("coincalc.sphere", "Ex3.9-derived"),
    ("coincalc.spaceform", "HHR-open"),
    ("coincalc.projective", "Thm4.5"),
    ("coincalc.projective", "Prop1.14"),
    ("coincalc.stiefel", "Cor1.5"),
    ("coincalc.wecken", "R8"),
    ("coincalc.wecken", "Thm1.33d"),
]


@pytest.mark.parametrize("module, rule_id", HOISTED)
def test_unregistered_constant_fails_at_import(module, rule_id):
    # the registry check on a module's constants runs once, when it is
    # imported: an id missing from REGISTRY stops the import
    code = textwrap.dedent(f"""
        from coincalc import rules
        del rules.REGISTRY[{rule_id!r}]
        try:
            import {module}
        except KeyError as exc:
            print(exc.args[0])
        else:
            print("imported")
    """)
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() \
        == f"unregistered rule identifier: {rule_id!r}"
