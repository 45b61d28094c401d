import json
import os
from importlib import resources

import pytest

from coincalc import (
    DescriptorError,
    FactBase,
    FactBaseError,
    INFINITE,
    KervaireStatus,
    Truth,
    kervaire_status,
    pinpoint,
    stable_stem,
    two_chi_so_vanishes,
)
from coincalc.tables import TWO_CHI_FACTS, lint_text

# Remark 1.31: stems k <= 19 whose stable group has an element of order > 2
REMARK_131_STEMS = frozenset({3, 7, 10, 11, 13, 15, 18, 19})


def test_stable_stem_examples():
    assert stable_stem(3).order == 24
    assert stable_stem(10).order == 6
    assert stable_stem(4).order == 1
    assert stable_stem(5).order == 1
    assert stable_stem(0).order is INFINITE


def test_stable_stem_out_of_range():
    assert stable_stem(20) is None
    assert stable_stem(99) is None
    with pytest.raises(DescriptorError):
        stable_stem(-1)


def test_exponent_flags_match_remark_list():
    # stems <= 19 with an element of order > 2 (plus the infinite stem 0)
    for k in range(20):
        entry = stable_stem(k)
        expected_no = k in REMARK_131_STEMS or k == 0
        assert entry.exponent_divides_two.is_no() == expected_no, k


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
    assert kervaire_status(16).status \
        is KervaireStatus.EXISTS_ORDER_TWO_KERVAIRE_ONE
    assert kervaire_status(12).status is KervaireStatus.NONE_EXISTS
    assert kervaire_status(128).status is KervaireStatus.OPEN
    assert kervaire_status(2).status is KervaireStatus.KERNEL_E_ZERO
    with pytest.raises(DescriptorError):
        kervaire_status(7)
    with pytest.raises(DescriptorError):
        kervaire_status(0)


def test_kervaire_total_closed_form():
    for n in range(2, 1025, 2):
        status = kervaire_status(n).status
        if n in (2, 4, 8):
            assert status is KervaireStatus.KERNEL_E_ZERO
        elif n in (16, 32, 64):
            assert status is KervaireStatus.EXISTS_ORDER_TWO_KERVAIRE_ONE
        elif n == 128:
            assert status is KervaireStatus.OPEN
        else:
            assert status is KervaireStatus.NONE_EXISTS


def test_pinpoint_examples():
    assert pinpoint("pi_10_S^6").is_trivial.is_yes()
    entry = pinpoint("pi_10_S^5")
    assert entry.is_trivial.is_no()
    assert entry.order == 2
    assert pinpoint("pi_99_S^50") is None
    assert pinpoint("pi_10_V_{7,2}").is_trivial.is_yes()


def test_every_entry_has_citation():
    raw = open(FactBase.bundled_path(), encoding="utf-8").read()
    doc = json.loads(raw)
    for section in ("stable_stems", "framed_so", "pinpoints"):
        for entry in doc[section]:
            assert entry["citation"].strip()


def test_bundled_path_is_the_packaged_file():
    path = FactBase.bundled_path()
    packaged = resources.files("coincalc").joinpath("data/factbase.json")
    assert os.path.samefile(path, str(packaged))
    assert (FactBase.load(path).version
            == json.loads(packaged.read_text(encoding="utf-8"))["version"])


def test_framed_so_divisibility():
    fb = FactBase.load()
    for k in range(1, 13):
        entry = fb.framed_so(k)
        assert entry is not None
        order = entry.order_of_class
        if isinstance(order, int) and k >= 2:
            assert 24 % order == 0
            if k % 2 == 0:
                assert 2 % order == 0


def test_shipped_file_lints_clean():
    raw = open(FactBase.bundled_path(), encoding="utf-8").read()
    assert lint_text(raw) == []


def _mutate(transform):
    raw = open(FactBase.bundled_path(), encoding="utf-8").read()
    doc = json.loads(raw)
    transform(doc)
    # keep the one-entry-per-line layout so the linter can point at lines
    lines = ['{', f'  "version": {json.dumps(doc["version"])},']
    for section in ("stable_stems", "framed_so", "pinpoints"):
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


def test_linter_catches_bad_stem_order():
    def break_stem(doc):
        for e in doc["stable_stems"]:
            if e["k"] == 3:
                e["order"] = "infinite"
    problems = lint_text(_mutate(break_stem))
    assert any("infinite" in message for _, message in problems)


def test_linter_requires_full_stem_range():
    def drop_stem(doc):
        doc["stable_stems"] = [e for e in doc["stable_stems"]
                               if e["k"] != 17]
    problems = lint_text(_mutate(drop_stem))
    assert any("missing" in message for _, message in problems)


def test_linter_reports_broken_json():
    problems = lint_text("{not json")
    assert problems and "not valid JSON" in problems[0][1]
