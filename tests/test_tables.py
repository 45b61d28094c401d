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
from coincalc import tables
from coincalc.tables import TWO_CHI_FACTS, lint_text
from factfiles import factbase_text, shipped_factbase
from oracles import FRAMED_SO_ORDERS


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
    for entry in shipped_factbase()["pinpoints"]:
        assert entry["citation"].strip()
    for _, citation in FRAMED_SO_ORDERS.values():
        assert citation.strip()


def test_shipped_file_holds_only_pinpoints():
    raw = open(FactBase.bundled_path(), encoding="utf-8").read()
    doc = json.loads(raw)
    assert list(doc) == ["version", "pinpoints"]
    assert doc["version"] == "1.0.0"
    assert factbase_text(doc) == raw  # the layout the tests write


def test_bundled_path_is_the_packaged_file():
    path = FactBase.bundled_path()
    packaged = resources.files("coincalc").joinpath("data/factbase.json")
    assert os.path.samefile(path, str(packaged))
    assert (FactBase.load(path).version
            == json.loads(packaged.read_text(encoding="utf-8"))["version"])


def test_two_chi_closed_form_matches_framed_so():
    # the cited orders of the framed [SO(k)] are the oracle of the closed form
    assert sorted(FRAMED_SO_ORDERS) == list(range(1, 13))
    for k, (order, _) in FRAMED_SO_ORDERS.items():
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
    doc = shipped_factbase()
    transform(doc)
    return factbase_text(doc)


def test_linter_names_the_line_of_a_bad_pinpoint():
    def break_z2(doc):
        doc["pinpoints"][1]["is_trivial"] = "yes"  # pi_10(S^5) has order 2
    raw = _mutate(break_z2)
    problems = lint_text(raw)
    assert len(problems) == 1
    line, message = problems[0]
    assert message == "pinpoints[1]: a trivial group has order 1"
    assert line is not None
    assert '"key": "pi_10_S^5"' in raw.splitlines()[line - 1]
    with pytest.raises(FactBaseError):
        FactBase.from_text(raw)


def test_linter_catches_missing_citation():
    def drop_citation(doc):
        doc["pinpoints"][0]["citation"] = ""
    problems = lint_text(_mutate(drop_citation))
    assert any("citation" in message for _, message in problems)


def test_linter_finds_the_entry_lines_once(monkeypatch):
    # each fault names its entry's line, but the file is scanned for those
    # lines once, not once a fault
    doc = {"version": "1.0.0", "pinpoints": [
        {"key": f"k{i}", "is_trivial": "no", "order": 2, "citation": ""}
        for i in range(1000)]}
    scans = []
    find = tables._entry_line_numbers

    def counting_find(raw):
        scans.append(raw)
        return find(raw)

    monkeypatch.setattr(tables, "_entry_line_numbers", counting_find)
    raw = factbase_text(doc)
    assert lint_text(raw) == [
        (i + 4, f"pinpoints[{i}]: missing citation") for i in range(1000)]
    assert scans == [raw]


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
