import json
import os
from importlib import resources

import pytest

from coincalc import (
    DescriptorError,
    FactBase,
    FactBaseError,
    KervaireStatus,
    Truth,
    kervaire_status,
    pinpoint,
    two_chi_so_vanishes,
)
from coincalc.tables import TWO_CHI_FACTS, lint_text


def test_two_chi_examples():
    assert two_chi_so_vanishes(2, 3).is_yes()
    assert two_chi_so_vanishes(3, 6).is_yes()
    assert two_chi_so_vanishes(3, 3).is_no()
    assert two_chi_so_vanishes(11, 5).is_unknown()


def test_two_chi_closed_form_rules():
    assert two_chi_so_vanishes(1, 0).is_yes()
    assert two_chi_so_vanishes(1, 7).is_no()   # infinite order in stem 0
    assert two_chi_so_vanishes(7, 5).is_yes()  # nullbordant
    assert two_chi_so_vanishes(9, 1).is_yes()
    assert two_chi_so_vanishes(5, 3).is_yes()  # order 3
    assert two_chi_so_vanishes(5, 4).is_no()
    assert two_chi_so_vanishes(13, 24).is_yes()  # 24[SO(k)] = 0
    assert two_chi_so_vanishes(13, 5).is_unknown()
    with pytest.raises(DescriptorError):
        two_chi_so_vanishes(0, 1)


def test_two_chi_answers_are_the_listed_facts():
    # stiefel's answer table is keyed by these facts
    for k in range(1, 16):
        for chi in range(30):
            fact = two_chi_so_vanishes(k, chi)
            assert any(fact is listed for listed in TWO_CHI_FACTS), (k, chi)


def test_kervaire_examples():
    assert kervaire_status(16) is KervaireStatus.EXISTS_ORDER_TWO_KERVAIRE_ONE
    assert kervaire_status(12) is KervaireStatus.NONE_EXISTS
    assert kervaire_status(128) is KervaireStatus.OPEN
    assert kervaire_status(2) is KervaireStatus.KERNEL_E_ZERO
    with pytest.raises(DescriptorError):
        kervaire_status(7)
    with pytest.raises(DescriptorError):
        kervaire_status(0)


def test_kervaire_total_closed_form():
    for n in range(2, 1025, 2):
        status = kervaire_status(n)
        if n in (2, 4, 8):
            assert status is KervaireStatus.KERNEL_E_ZERO
        elif n in (16, 32, 64):
            assert status is KervaireStatus.EXISTS_ORDER_TWO_KERVAIRE_ONE
        elif n == 128:
            assert status is KervaireStatus.OPEN
        else:
            assert status is KervaireStatus.NONE_EXISTS


def test_pinpoint_examples():
    assert pinpoint("pi_10_S^6").is_trivial is True
    entry = pinpoint("pi_10_S^5")
    assert entry.is_trivial is False
    assert entry.order == 2
    assert pinpoint("pi_99_S^50") is None
    assert pinpoint("pi_10_V_{7,2}").is_trivial is True


def test_every_entry_has_citation():
    raw = open(FactBase.bundled_path(), encoding="utf-8").read()
    doc = json.loads(raw)
    for section in ("framed_so", "pinpoints"):
        for entry in doc[section]:
            assert entry["citation"].strip()


def test_bundled_path_is_the_packaged_file():
    path = FactBase.bundled_path()
    packaged = resources.files("coincalc").joinpath("data/factbase.json")
    assert os.path.samefile(path, str(packaged))
    assert (FactBase.load(path).version
            == json.loads(packaged.read_text(encoding="utf-8"))["version"])


def test_two_chi_closed_form_matches_framed_so():
    # the cited framed_so orders are the oracle of the closed form
    doc = json.loads(open(FactBase.bundled_path(), encoding="utf-8").read())
    assert sorted(e["k"] for e in doc["framed_so"]) == list(range(1, 13))
    for e in doc["framed_so"]:
        k, order = e["k"], e["order_of_class"]
        for chi in range(200):
            truth = two_chi_so_vanishes(k, chi).truth
            if order == "unknown":
                assert truth is not Truth.NO, (k, chi)
            elif order == "infinite":
                assert (truth is Truth.YES) == (chi == 0), (k, chi)
            else:
                assert truth is (Truth.YES if 2 * chi % order == 0
                                 else Truth.NO), (k, chi)


def test_shipped_file_lints_clean():
    raw = open(FactBase.bundled_path(), encoding="utf-8").read()
    assert lint_text(raw) == []


def _mutate(transform):
    raw = open(FactBase.bundled_path(), encoding="utf-8").read()
    doc = json.loads(raw)
    transform(doc)
    # keep the one-entry-per-line layout so the linter can point at lines
    lines = ['{', f'  "version": {json.dumps(doc["version"])},']
    for section in ("framed_so", "pinpoints"):
        lines.append(f'  "{section}": [')
        entries = [f"    {json.dumps(e)}" for e in doc[section]]
        lines.append(",\n".join(entries))
        lines.append("  ]," if section != "pinpoints" else "  ]")
    lines.append("}")
    return "\n".join(lines)


def test_linter_catches_24_divisibility():
    def break_so3(doc):
        for e in doc["framed_so"]:
            if e["k"] == 3:
                e["order_of_class"] = 5  # 5 does not divide 24
    raw = _mutate(break_so3)
    problems = lint_text(raw)
    assert len(problems) == 1
    line, message = problems[0]
    assert "does not divide 24" in message
    assert line is not None
    assert '"k": 3' in raw.splitlines()[line - 1]
    with pytest.raises(FactBaseError):
        FactBase.from_text(raw)


def test_linter_catches_even_frame_divisibility():
    def break_so4(doc):
        for e in doc["framed_so"]:
            if e["k"] == 4:
                e["order_of_class"] = 3  # even k: must divide 2
    problems = lint_text(_mutate(break_so4))
    assert any("divide" in message for _, message in problems)


def test_linter_catches_missing_citation():
    def drop_citation(doc):
        doc["pinpoints"][0]["citation"] = ""
    problems = lint_text(_mutate(drop_citation))
    assert any("citation" in message for _, message in problems)


def test_linter_reports_broken_json():
    problems = lint_text("{not json")
    assert problems and "not valid JSON" in problems[0][1]


def test_load_parses_the_file_once(monkeypatch):
    raw = open(FactBase.bundled_path(), encoding="utf-8").read()
    parsed = []
    loads = json.loads

    def counting_loads(s, *args, **kwargs):
        parsed.append(s)
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    fb = FactBase.from_text(raw)
    assert parsed == [raw]
    assert fb.version == loads(raw)["version"]
    assert fb.pinpoint("pi_10_S^6").is_trivial is True


@pytest.mark.parametrize("raw", ["{not json", "[]", '{"version": ""}'])
def test_load_raises_what_the_linter_reports(raw):
    with pytest.raises(FactBaseError) as info:
        FactBase.from_text(raw)
    assert info.value.locations == lint_text(raw) != []
