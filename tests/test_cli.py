import ast
import json
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coincalc import IntMatrix, get_factbase
from coincalc.cli import (
    QueryError,
    _build_parser,
    _dump,
    main,
    run_batch,
    run_query,
)
from factfiles import factbase_text, shipped_factbase
from oracles import maximal_minor_gcd

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_python(*args, env_extra=None):
    import os
    env = os.environ.copy()
    # the child imports coincalc from this checkout, as pytest does
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
    )


def run_cli(*args, env_extra=None):
    return run_python("-m", "coincalc.cli", *args, env_extra=env_extra)


def write_query(tmp_path, query):
    path = tmp_path / "query.json"
    path.write_text(json.dumps(query))
    return str(path)


def test_query_stiefel(tmp_path):
    path = write_query(tmp_path, {
        "id": "q1", "family": "stiefel", "payload": {"r": 5, "k": 2}})
    result = run_cli("query", path)
    assert result.returncode == 0
    answer = json.loads(result.stdout)
    assert answer["id"] == "q1"
    for name in ("mc", "mcc", "n_sharp", "n_tilde", "n"):
        assert answer["invariants"][name]["value"] == 0
    assert "Cor1.3" in answer["invariants"]["mcc"]["trace"]
    assert answer["factbase_version"]


def test_query_torus(tmp_path):
    path = write_query(tmp_path, {
        "id": "t", "family": "torus",
        "payload": {"m": 2, "n": 2, "h1": [[2, 0], [0, 3]],
                    "source_is_torus": True}})
    result = run_cli("query", path)
    assert result.returncode == 0
    answer = json.loads(result.stdout)
    assert answer["invariants"]["mcc"]["value"] == 6


def test_wecken_flags():
    result = run_cli("wecken", "-m", "11", "-n", "6")
    assert result.returncode == 0
    answer = json.loads(result.stdout)
    entry = answer["invariants"]["wecken_condition"]
    assert entry["value"] == "no"
    assert "R4" in entry["trace"]


def test_stiefel_flags():
    result = run_cli("stiefel", "-r", "7", "-k", "3")
    assert result.returncode == 0
    answer = json.loads(result.stdout)
    assert answer["invariants"]["n"]["value"] == 1


def test_batch_empty(tmp_path):
    path = tmp_path / "batch.json"
    path.write_text("[]")
    result = run_cli("batch", str(path))
    assert result.returncode == 0
    assert json.loads(result.stdout) == []


def test_batch_tolerates_bad_query(tmp_path):
    queries = [
        {"id": "good", "family": "stiefel", "payload": {"r": 5, "k": 2}},
        {"id": "bad", "family": "stiefel", "payload": {"r": 5}},
    ]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(queries))
    result = run_cli("batch", str(path))
    assert result.returncode == 0
    answers = json.loads(result.stdout)
    assert len(answers) == 2
    assert "error" not in answers[0]
    assert "error" in answers[1]
    assert "'r'" not in answers[1]["error"]  # message names the field...
    assert "k" in answers[1]["error"]


# each fact a setting forces, each pair of facts that must agree, and the
# sphere class that must vanish, with the error answer run_batch writes
CONTRADICTIONS = [
    ("spaceform", {"m": 7, "n": 3, "group_order": 2, "del_zero": "no"},
     "odd n: the target has zero Euler characteristic, so the boundary "
     "class vanishes; del_zero cannot be no"),
    ("spaceform", {"m": 1, "n": 4, "group_order": 2, "del_zero": "no"},
     "m = 1 or m < n: the boundary class is forced to vanish; del_zero "
     "cannot be no"),
    ("spaceform", {"m": 9, "n": 4, "group_order": 2, "del_zero": "yes",
                   "e_del_zero": "no"},
     "del_zero = yes forces e_del_zero = yes (suspension of 0)"),
    ("spaceform", {"m": 2, "n": 4, "group_order": 2, "homotopic": "no"},
     "2 <= m < n: every map is nullhomotopic, so the pair is homotopic; "
     "homotopic cannot be no"),
    ("spaceform", {"m": 9, "n": 4, "group_order": 2, "homotopic": "yes",
                   "in_psE_image": "no"},
     "homotopic maps have vanishing class difference, which lies in every "
     "subgroup: in_psE_image cannot be no"),
    ("sphere", {"m": 5, "n": 3, "f1_homotopic_a_f2": "no",
                "stable_suspension_nonzero": "yes",
                "some_stable_hopf_james_nonzero": "no"},
     "stable_suspension_nonzero = yes forces some_stable_hopf_james_nonzero "
     "= yes (the stabilized suspension is the first Hopf-James invariant)"),
    ("projective", {"field": "C", "n_prime": 2, "m": 5,
                    "lift2_in_ker_del": "yes", "lift2_in_ker_Edel": "no"},
     "lift2_in_ker_del = yes forces lift2_in_ker_Edel = yes (the kernel of "
     "the boundary sits inside the kernel of its suspension)"),
    ("projective", {"field": "R", "n_prime": 2, "m": 3,
                    "lift2_antipodal_selfhomotopic": "yes",
                    "lift2_in_ker_Edel": "no"},
     "lift2_antipodal_selfhomotopic and lift2_in_ker_Edel must agree"),
    ("projective", {"field": "H", "n_prime": 2, "m": 3,
                    "lifts_equal": "yes", "fprime_homotopic": "no"},
     "lifts_equal and fprime_homotopic must agree"),
    ("sphere", {"m": 2, "n": 3},
     "for m < n (and for n = 1 < m) the difference class is forced to "
     "vanish: f1_homotopic_a_f2 must be yes"),
]


def test_batch_writes_each_contradiction_message():
    queries = [{"id": i, "family": family, "payload": payload}
               for i, (family, payload, _) in enumerate(CONTRADICTIONS)]
    version = get_factbase().version
    assert run_batch(queries) == [
        {"id": i, "factbase_version": version, "invariants": {},
         "warnings": [], "error": message}
        for i, (_, _, message) in enumerate(CONTRADICTIONS)]


@pytest.mark.parametrize("command", ["query", "batch"])
def test_null_hopf_mod4_is_input_error(tmp_path, command):
    query = {"id": "h", "family": "spaceform", "payload": {
        "m": 11, "n": 6, "group_order": 2, "hopf_mod4": None}}
    message = "spaceform payload: field 'hopf_mod4' must be an integer"
    path = tmp_path / "query.json"
    path.write_text(json.dumps(query if command == "query" else [query]))
    result = run_cli(command, str(path))
    if command == "query":
        assert result.returncode == 2
        assert result.stderr == f"input error: {message}\n"
    else:  # the batch answers the query with an error answer
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)[0]["error"] == message


def test_schema_errors_name_the_field(tmp_path):
    path = write_query(tmp_path, {
        "id": "x", "family": "torus",
        "payload": {"m": 2, "n": 2, "source_is_torus": True}})
    result = run_cli("query", path)
    assert result.returncode == 2
    assert "h1" in result.stderr
    path = write_query(tmp_path, {"id": "x", "family": "nope", "payload": {}})
    result = run_cli("query", path)
    assert result.returncode == 2
    assert "family" in result.stderr


def _payload_fields_read() -> dict[str, set[str]]:
    """For each family, the payload fields its reader in cli.py reads: the
    field of each _need/_fact/_matrix call, of payload.get and payload[...],
    and of each `field in payload` test."""
    tree = ast.parse((SRC / "coincalc" / "cli.py").read_text())
    read = {}
    for func in tree.body:
        if not (isinstance(func, ast.FunctionDef)
                and func.name.startswith("_run_")):
            continue
        family = func.name.removeprefix("_run_").removesuffix("_fact")
        fields = read[family] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                callee = node.func
                if (isinstance(callee, ast.Name)
                        and callee.id in ("_need", "_fact", "_matrix")):
                    fields.add(node.args[1].value)
                elif (isinstance(callee, ast.Attribute)
                      and callee.attr == "get"
                      and getattr(callee.value, "id", None) == "payload"):
                    fields.add(node.args[0].value)
            elif (isinstance(node, ast.Subscript)
                  and getattr(node.value, "id", None) == "payload"):
                fields.add(node.slice.value)
            elif (isinstance(node, ast.Compare)
                  and isinstance(node.ops[0], ast.In)
                  and getattr(node.comparators[0], "id", None) == "payload"):
                fields.add(node.left.value)
    return read


def _payload_fields_documented() -> dict[str, set[str]]:
    """For each family section of docs/schemas.md, the backquoted names in
    the first column of its field table."""
    text = (ROOT / "docs" / "schemas.md").read_text()
    documented = {}
    for section in re.split(r"^### ", text, flags=re.MULTILINE)[1:]:
        family, _, body = section.partition("\n")
        body = body.split("\n## ")[0]  # up to the next top-level section
        rows = re.findall(r"^\| ([^|]+) \|", body, flags=re.MULTILINE)
        documented[family.strip()] = {
            name for row in rows for name in re.findall(r"`([^`]+)`", row)}
    return documented


def test_payload_fields_match_the_schema_doc():
    from coincalc.cli import FAMILIES
    read = _payload_fields_read()
    assert sorted(read) == sorted(FAMILIES)
    assert read == _payload_fields_documented()


def test_unreadable_file_is_input_error():
    result = run_cli("query", "/no/such/file.json")
    assert result.returncode == 2
    result = run_cli("batch", "/no/such/file.json")
    assert result.returncode == 2


def test_invalid_json_is_input_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    result = run_cli("query", str(path))
    assert result.returncode == 2


@pytest.mark.parametrize("content", [
    # past CPython's int-from-str digit limit
    ('{"id": "h", "family": "stiefel", "payload": {"r": ' + "7" * 5000
     + ', "k": 2}}').encode(),
    b"[" * 100_000,  # past the parser's recursion limit
    b"\xff\xfe",  # not UTF-8
], ids=["huge-integer", "deep-nesting", "not-utf8"])
def test_unparseable_file_is_input_error(tmp_path, content):
    path = tmp_path / "query.json"
    path.write_bytes(content)
    result = run_cli("query", str(path))
    assert result.returncode == 2
    assert result.stderr.startswith("input error: ")
    assert "Traceback" not in result.stderr


def test_long_exact_answer_is_written(tmp_path):
    big = 10 ** 1500
    path = write_query(tmp_path, {
        "id": "long", "family": "torus",
        "payload": {"m": 3, "n": 3, "source_is_torus": True,
                    "h1": [[big, 0, 0], [0, big, 0], [0, 0, big]]}})
    result = run_cli("query", path)
    assert result.returncode == 0
    # keep the integers as text: 10^4500 is past the int-from-str limit
    answer = json.loads(result.stdout, parse_int=str)
    assert answer["invariants"]["mcc"]["value"] == "1" + "0" * 4500


@pytest.mark.parametrize("command", ["query", "batch"])
def test_general_source_note_writes_a_det_past_the_digit_limit(tmp_path,
                                                               command):
    # |det| = 10**8000 is past CPython's 4,300-digit int-to-str limit
    big = 10 ** 4000
    query = {"id": "long-det", "family": "torus", "payload": {
        "m": 2, "n": 2, "h1": [[big, 0], [0, big]],
        "source_is_torus": False}}
    small = {"id": "small", "family": "torus", "payload": {
        "m": 2, "n": 2, "h1": [[2, 0], [0, 3]], "source_is_torus": False}}
    notes = [f"Thm3.7 bounds: Reidemeister ≥ |det| = {det} ≥ MCC (needs "
             "n ≠ 2) ≥ N# ≥ Ñ ≥ N ≥ N^Z" for det in ("1" + "0" * 8000, 6)]
    if command == "query":
        path = write_query(tmp_path, query)
    else:  # the batch goes on past the long note
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([query, small]))
    result = run_cli(command, str(path))
    assert result.returncode == 0, result.stderr
    answers = json.loads(result.stdout, parse_int=str)
    if command == "query":
        assert answers["warnings"] == notes[:1]
    else:
        assert [answer["warnings"] for answer in answers] == [
            notes[:1], notes[1:]]


LIMIT_QUERIES = [  # answers of 699 and 641 digits
    {"id": "t", "family": "torus", "payload": {
        "m": 2, "n": 2, "h1": [[10 ** 349 + 1, 0], [0, 10 ** 349 + 3]],
        "source_is_torus": source_is_torus}}
    for source_is_torus in (True, False)  # False writes |det| in a warning
] + [{"id": "s", "family": "sphere", "payload": {
    "m": 1, "n": 1, "degrees": [10 ** 640 - 1, -(10 ** 640 - 1)]}}]


@pytest.mark.parametrize("query", LIMIT_QUERIES,
                         ids=["torus", "general-source", "sphere"])
def test_cli_writes_long_answers_under_the_least_digit_limit(tmp_path, query):
    path = write_query(tmp_path, query)
    default = run_cli("query", path)
    lowered = run_cli("query", path,
                      env_extra={"PYTHONINTMAXSTRDIGITS": "640"})
    assert default.returncode == 0, default.stderr
    assert lowered.returncode == 0, lowered.stderr
    assert lowered.stdout == default.stdout


def test_dump_keeps_the_input_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert _dump({"v": 10 ** 5000}) == '{\n  "v": 1' + "0" * 5000 + "\n}\n"
    assert sys.get_int_max_str_digits() == limit


BIG = 7 ** 6000  # 5,071 digits, past the int-to-str limit

# strings that need escaping: quotes, backslashes, control characters,
# newlines, non-ASCII and characters outside the basic plane
TRICKY = ['"', "\\", "\n", "\r\t", "\x00\x1f", "≥ Ñ", "\u2028", "😀", ""]

# digit counts from 599 to 40,000 digits: about the edges of the 600-digit
# pieces in which _dump writes a long int, and CPython's default 4,300-digit
# int-to-str limit
SPLIT_DIGITS = (599, 600, 601, 1000, 1023, 1024, 1025, 1200, 1201, 1800,
                1801, 1806, 1807, 2048, 2049, 4096, 4300, 4301, 8192, 16384,
                32768, 40000)
signs = st.sampled_from((1, -1))


def _long_int(args):
    """A random int of the given digit count, drawn from the seed."""
    digits, seed = args
    return random.Random(seed).randrange(10 ** (digits - 1), 10 ** digits)


long_ints = st.tuples(st.integers(1000, 40_000), st.integers(0, 2 ** 32)).map(
    _long_int)

# built by map, since hypothesis would print a literal BIG in its own repr
big_ints = st.one_of(
    st.sampled_from([1, -1, 0]).map(lambda s: s * BIG or 10 ** 4300),
    st.tuples(st.sampled_from(SPLIT_DIGITS), st.sampled_from((-1, 0, 1)),
              signs).map(lambda t: t[2] * (10 ** t[0] + t[1])),
    st.tuples(long_ints, signs).map(lambda t: t[0] * t[1]),
    # a low part that starts with zeros, or holds a whole piece of them
    st.tuples(long_ints | st.integers(1, 10 ** 9),
              st.sampled_from((600, 1024, 1200, 2048, 2400, 4096, 8192)),
              signs).map(
        lambda t: t[2] * (t[0] * 10 ** t[1] + 7)),
)

json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), big_ints,
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8), st.sampled_from(TRICKY),
)
json_values = st.recursive(json_leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.dictionaries(st.text(max_size=4) | st.sampled_from(TRICKY), kids,
                    max_size=4),
    st.dictionaries(st.integers(), kids, max_size=3),  # non-string keys
), max_leaves=24)
answers = st.fixed_dictionaries({
    "id": json_values,  # a user may send any JSON value as the id
    "factbase_version": st.just("1.0.0"),
    "invariants": st.dictionaries(
        st.sampled_from(["mc", "mcc", "n", "reidemeister"]),
        st.fixed_dictionaries({
            "value": big_ints | st.sampled_from([0, 6, "infinite",
                                                 "unknown"]),
            "trace": st.lists(st.sampled_from(["Thm1.8", "Thm3.7"])),
        })),
    "warnings": st.lists(st.text(max_size=8) | st.sampled_from(TRICKY)),
})


def reference_dump(value) -> str:
    # json.dumps recurses once per nesting level, so an id nested 985 deep
    # needs room on top of pytest's own frames
    limit = sys.get_int_max_str_digits()
    frames = sys.getrecursionlimit()
    sys.set_int_max_str_digits(0)
    sys.setrecursionlimit(frames + 200)
    try:
        return json.dumps(value, indent=2, sort_keys=True) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
        sys.setrecursionlimit(frames)


@settings(max_examples=300, deadline=None)
@given(json_values | answers | st.lists(answers, max_size=3),
       st.sampled_from((None, 640)))  # the default limit, or the least one
@example([BIG, {"a": BIG, "b": [BIG, -BIG]}, BIG], None)
@example([BIG, {"a": BIG, "b": [BIG, -BIG]}, BIG], 640)
@example({"id": 7, "invariants": {}, "warnings": []}, None)
@example({"id": None, "x": [[], {}, [{}]], "y": {"": [True, 1.5]}}, None)
def test_dump_matches_json_dumps(value, digits):
    limit = sys.get_int_max_str_digits()
    try:
        if digits:
            sys.set_int_max_str_digits(digits)
        text = _dump(value)
        assert sys.get_int_max_str_digits() == (digits or limit)
    finally:
        sys.set_int_max_str_digits(limit)
    assert text == reference_dump(value)


FIELDS = ["mc", "mcc", "n_sharp", "n_tilde", "n", "n_z", "reidemeister"]


def verdict(value, trace=("Thm1.8", "Thm3.7")):
    return {"trace": list(trace), "value": value}


def answer(invariants, qid="edge", **extra):
    return {"id": qid, "factbase_version": "1.0.0", "invariants": invariants,
            "warnings": [], **extra}


def nested(depth, leaf):
    for _ in range(depth):
        leaf = [leaf]
    return leaf


SEVEN = {key: verdict(i) for i, key in enumerate(FIELDS)}

# values shaped almost like a verdict or an answer, in an order that first
# fills the verdict cache with look-alikes of the later ones (1 before
# True and 1.0, "unknown" before a trace of other types)
NEAR_VERDICTS = [
    verdict(1), verdict(True), verdict(1.0), verdict(False), verdict(0),
    verdict(None), verdict(-3), verdict(-1), verdict(2.5), verdict(BIG),
    verdict(-BIG), verdict(10 ** 4300), verdict(10 ** 4999), verdict(99),
    verdict(100), verdict("unknown"), verdict("≥ Ñ\n"), verdict([1, "x"]),
    verdict({"b": 1, "a": BIG}),
    verdict(1, trace=()), verdict(1, trace=["Thm1.8", 3]),
    verdict(1, trace=["Thm1.8", None]), verdict(1, trace=[["Thm1.8"]]),
    {"trace": ("Thm1.8",), "value": 1}, {"trace": ("Thm1.8", "Thm3.7"),
                                         "value": "unknown"},
    {"trace": (), "value": 0}, {"trace": "Thm1.8", "value": 1},
    {"trace": None, "value": "unknown"}, {"trace": ["Thm1.8"]},
    {"value": 1}, {"trace": ["Thm1.8"], "value": 1, "extra": 2},
    {"value": 1, "trace": ["Thm1.8"]}, {"trace": ["Thm1.8"], "x": 1},
]
NEAR_ANSWERS = [
    answer(SEVEN),
    answer({key: verdict(i) for i, key in enumerate(reversed(FIELDS))}),
    answer({key: verdict(i) for i, key in enumerate(FIELDS[:-1])}),
    answer({**{key: verdict(1) for key in FIELDS}, "extra": verdict(1)}),
    answer({key: i for i, key in enumerate(FIELDS)}),
    answer({key: [key] for key in FIELDS}),
    answer({1: verdict(1)}),
    answer([verdict(1)]),
    answer({}, error="payload must be a JSON object"),
    answer(SEVEN, error="an error answer with invariants"),
    answer(SEVEN, note="an extra key"),
    {key: value for key, value in answer(SEVEN).items() if key != "warnings"},
    {key: value for key, value in answer(SEVEN).items() if key != "id"},
    {("qid" if key == "id" else key): value
     for key, value in answer(SEVEN).items()},
    {**answer(SEVEN), "factbase_version": 1},
    {**answer(SEVEN), "factbase_version": None},
    {**answer(SEVEN), "warnings": ["bound chain: |det| = 6", "≥ Ñ\n", '"']},
    {**answer(SEVEN), "warnings": ["a warning", 3]},
    {**answer(SEVEN), "warnings": ["a warning", None]},
    {**answer(SEVEN), "warnings": ("a warning",)},
    answer({"wecken_condition": verdict("yes", trace=["R4"])}),
    answer({"wecken_fixed_point": verdict("unknown", trace=[])}),
    answer({"wecken_condition": verdict("yes")}, qid=None),
    answer(SEVEN, qid=7),
    answer(SEVEN, qid=True),
    answer(SEVEN, qid=1.5),
    answer(SEVEN, qid="≥ Ñ\n\"\\"),
    answer({key: verdict(BIG) for key in FIELDS}, qid=verdict(1)),
    {"warnings": [], "invariants": {}, "id": 3, "factbase_version": "1"},
    answer({key: verdict(1) for key in FIELDS},
           qid=nested(985, verdict(1))),
]


@pytest.mark.parametrize("value", NEAR_VERDICTS + NEAR_ANSWERS)
def test_dump_fast_paths_match_json_dumps(value):
    # each value alone, as each of an answer's invariants, and in a batch
    limit = sys.get_int_max_str_digits()
    as_invariants = answer(dict.fromkeys(FIELDS, value))
    for wrapped in (value, as_invariants, [as_invariants]):
        assert _dump(wrapped) == reference_dump(wrapped)
        assert sys.get_int_max_str_digits() == limit


def test_dump_leaves_the_digit_limit_alone(monkeypatch):
    # a long answer is written in pieces within CPython's int-to-str limit:
    # the process-wide setting is neither read past nor changed
    value = _long_int((40_000, 18))
    long_answer = answer({"mcc": verdict(value), "n": verdict(-value)})
    values = (long_answer, [long_answer], {"values": [value, -value]})
    want = [reference_dump(v) for v in values]

    def refuse(limit):
        raise AssertionError("the int-to-str digit limit was changed")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    assert [_dump(v) for v in values] == want


def _call_at_depth(frames, fn, *args):
    """fn(*args) called with ``frames`` more frames on the stack."""
    if frames:
        return _call_at_depth(frames - 1, fn, *args)
    return fn(*args)


@pytest.mark.parametrize("frames", [0, 30, 60])
def test_dump_of_a_deep_id_recurses_at_no_depth(frames):
    # the CLI parses an id nested 985 deep; writing it takes no frame per
    # level, so a caller deep in its own stack can write it too
    deep = answer(SEVEN, qid=nested(985, verdict(1)))
    want = reference_dump(deep)
    assert _call_at_depth(frames, _dump, deep) == want
    assert _call_at_depth(frames, _dump, [deep, deep]) == reference_dump(
        [deep, deep])


def test_dump_raises_as_json_dumps_does():
    loop = []
    loop.append(loop)
    for bad, error in ((answer({}, qid=object()), TypeError),
                       ({(1, 2): "x"}, TypeError),
                       ({1: "a", "b": 2}, TypeError),
                       (answer(SEVEN, qid=loop), ValueError)):
        with pytest.raises(error):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(error):
            _dump(bad)


def test_dump_caches_stay_bounded(monkeypatch):
    from coincalc import cli
    monkeypatch.setattr(cli, "_ENTRIES", {})
    query = {"id": "x", "family": "stiefel", "payload": {"r": 7, "k": 3}}
    stiefel = run_query(query)
    # an answer's entries are shared, each keeping its text at the line
    # prefix of each template it was written with, and the next identical
    # answer holds the same ones
    entries = list(stiefel["invariants"].values())
    assert all(cli._ENTRIES[e["value"], tuple(e["trace"])] is e
               for e in entries)
    assert all(e.texts == {} for e in entries)
    _dump([stiefel])
    assert all(set(e.texts) == {"\n      "} for e in entries)
    assert all(e is f for e, f in zip(
        entries, run_query(query)["invariants"].values()))
    kept = len(cli._ENTRIES)
    for value in (stiefel, [stiefel], {**stiefel, "id": 1},
                  json.loads(_dump(stiefel))):
        _dump(value)  # dumps add no entry, whatever the id holds
    assert len(cli._ENTRIES) == kept

    limit = sys.get_int_max_str_digits()
    for i in range(3000):
        big = 10 ** 4400 + i if i % 100 == 0 else 10 ** 30 + i
        trace = (f"Thm{i}", "x" * (i % 600))
        made = [cli._entry(v, trace) for v in (i % 150, big, f"v{i % 7}")]
        deep = nested(10, made[0])
        invariants = {key: made[j % 3] for j, key in enumerate(FIELDS)}
        value = answer(invariants, qid=deep if i % 10 == 0 else i)
        assert _dump(value if i % 2 else [value]) == reference_dump(
            value if i % 2 else [value])
        assert sys.get_int_max_str_digits() == limit
        # a one-off entry keeps the one text it was written with
        prefix = "\n    " if i % 2 else "\n      "
        assert made[1].texts == {prefix: cli._text(big, trace, prefix)}
    with pytest.raises(TypeError):
        _dump(answer({}, qid=object()))
    assert sys.get_int_max_str_digits() == limit

    assert len(cli._ENTRIES) == cli._VERDICT_CAP  # filled, not past
    # keyed on a str or small-int value, never a per-query one, and a trace
    # of strings; each entry keeps at most its two texts, as written
    for (value, trace), entry in cli._ENTRIES.items():
        assert type(value) is str or (type(value) is int
                                      and 0 <= value < cli._SMALL_INT)
        assert type(trace) is tuple and all(type(x) is str for x in trace)
        assert entry == {"value": value, "trace": list(trace)}
        assert set(entry.texts) <= {"\n    ", "\n      "}
        assert all(text == cli._text(value, trace, prefix)
                   for prefix, text in entry.texts.items())
    # a value of _SMALL_INT or more is never shared, not even before the
    # cache is full
    cli._ENTRIES.clear()
    one_off = [cli._entry(cli._SMALL_INT, ("Thm1.8",)) for _ in range(2)]
    assert one_off[0] is not one_off[1] and not cli._ENTRIES


TORUS_BIG = {"id": "t", "family": "torus",
             "payload": {"m": 2, "n": 2, "h1": [[10 ** 40, 0], [0, 7]],
                         "source_is_torus": True}}
SPHERE_BIG = {"id": "s", "family": "sphere",
              "payload": {"m": 1, "n": 1, "degrees": [10 ** 40, 3]}}
WECKEN = {"id": "w", "family": "wecken", "payload": {"m": 3, "n": 2}}


def _plain(value) -> bool:
    """True if every dict and list in value is a plain one."""
    if isinstance(value, dict):
        return type(value) is dict and all(map(_plain, value.values()))
    if isinstance(value, list):
        return type(value) is list and all(map(_plain, value))
    return True


ENTRY_MUTATIONS = [
    ("__setitem__", ("value", 7)), ("__delitem__", ("value",)),
    ("__ior__", ({"x": 1},)), ("__init__", ({"x": 1},)), ("clear", ()),
    ("pop", ("value",)), ("popitem", ()), ("setdefault", ("x", 1)),
    ("update", ({"x": 1},)),
]
TRACE_MUTATIONS = [
    ("__setitem__", (0, "x")), ("__setitem__", (slice(None), [])),
    ("__delitem__", (0,)), ("__delitem__", (slice(None),)),
    ("__iadd__", (["x"],)), ("__imul__", (2,)), ("__init__", (["x"],)),
    ("append", ("x",)), ("extend", (["x"],)), ("insert", (0, "x")),
    ("pop", ()), ("remove", ("Thm1.8",)), ("clear", ()), ("sort", ()),
    ("reverse", ()),
]


def test_answers_are_read_only():
    import copy
    import pickle
    for query in (TORUS_BIG, SPHERE_BIG, WECKEN,
                  {**TORUS_BIG, "payload": {**TORUS_BIG["payload"],
                                            "h1": [[2, 0], [0, 3]]}}):
        answer = run_query(query)
        want = json.loads(_dump(answer))
        assert answer == want
        entry = next(iter(answer["invariants"].values()))
        trace = entry["trace"]
        for obj, mutations in ((entry, ENTRY_MUTATIONS),
                               (trace, TRACE_MUTATIONS)):
            for method, args in mutations:
                with pytest.raises(TypeError):
                    getattr(obj, method)(*args)
        with pytest.raises(TypeError):
            entry["value"] = 7
        with pytest.raises(TypeError):
            entry |= {"x": 1}
        with pytest.raises(TypeError):
            trace += ["x"]
        with pytest.raises(TypeError):
            trace *= 2
        with pytest.raises(TypeError):
            del trace[:]
        assert answer == want and json.loads(_dump(answer)) == want

        copies = [copy.copy(entry), copy.deepcopy(entry),
                  copy.copy(trace), copy.deepcopy(trace),
                  copy.deepcopy(answer)]
        copies += [pickle.loads(pickle.dumps(obj, protocol))
                   for obj in (entry, trace, answer)
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for copied in copies:
            assert type(copied) in (dict, list) and _plain(copied)
            assert copied in (entry, trace, answer)
        # a mutated copy leaves the next identical answer unchanged
        for copied in copies:
            if type(copied) is list:
                copied.append("x")
                continue
            for e in copied.get("invariants", {"": copied}).values():
                e["value"] = 99
                e["trace"].append("x")
        again = run_query(query)
        assert again == want and json.loads(_dump(again)) == want


def test_fields_holding_one_verdict_share_its_entry(monkeypatch):
    # and a one-off entry, of a value past _SMALL_INT, is written once for
    # each template and keeps its text after it
    from itertools import combinations
    from coincalc import cli
    queries = json.loads((DATA / "golden_queries.json").read_text())
    for query in queries + [TORUS_BIG, SPHERE_BIG]:
        family = query["family"]
        if family in ("wecken", "fixedpoint"):
            continue
        bundle, _, _ = getattr(cli, f"_run_{family}")(query["payload"])
        entries = run_query(query)["invariants"]
        for (a, v), (b, w) in combinations(zip(FIELDS, bundle._values), 2):
            if v is w:
                assert entries[a] is entries[b], (query["id"], a, b)
            if entries[a] is entries[b]:
                assert v == w, (query["id"], a, b)

    written = []
    scalar = cli._scalar

    def spy(value):
        written.append(value)
        return scalar(value)

    monkeypatch.setattr(cli, "_scalar", spy)
    for query, distinct in ((TORUS_BIG, 1), (SPHERE_BIG, 4)):
        answer = run_query(query)
        one_offs = {id(e): e for e in answer["invariants"].values()
                    if e["value"] >= cli._SMALL_INT}
        assert len(one_offs) == distinct
        for value in (answer, [answer, answer]):
            written.clear()
            assert _dump(value) == reference_dump(value)
            # once for each template: the answer's second copy in the list
            # reads the text its first copy wrote
            big = [x for x in written if x >= cli._SMALL_INT]
            assert len(big) == distinct
            prefix = "\n    " if value is answer else "\n      "
            assert all(prefix in e.texts for e in one_offs.values())


@pytest.mark.parametrize("rows, m, n", [
    ([[1]] * 65, 1, 65), ([[1] * 65], 65, 1),
], ids=["65x1", "1x65"])
def test_h1_over_64_rows_or_columns_is_input_error(tmp_path, capsys, rows,
                                                    m, n):
    path = write_query(tmp_path, {
        "id": "big", "family": "torus",
        "payload": {"m": m, "n": n, "h1": rows, "source_is_torus": True}})
    assert main(["query", path]) == 2
    assert "limited to 64 rows and 64 columns" in capsys.readouterr().err


def test_h1_over_the_digit_cap_is_input_error(tmp_path, capsys):
    rows = [[10 ** 7 + i + j for j in range(64)] for i in range(64)]  # 32,768
    path = write_query(tmp_path, {
        "id": "digits", "family": "torus",
        "payload": {"m": 64, "n": 64, "h1": rows, "source_is_torus": True}})
    assert main(["query", path]) == 2
    assert "limited to 32000 decimal digits" in capsys.readouterr().err


@pytest.mark.parametrize("last, admitted", [
    (0, True), (-999, True), (10 ** 3, True), (-(10 ** 4), False),
    (10 ** 4 - 1, True), (10 ** 4, False),
])
def test_h1_digit_cap_counts_every_entry(last, admitted):
    # four 7,999-digit entries (2**26572 has 7,999, 2**26573 has 8,000) and
    # one more: 31,996 digits plus its own
    row = [10 ** 7998, -(10 ** 7999 - 1) // 9, 10 ** 7998 + 1, 2 ** 26572]
    query = {"id": "cap", "family": "torus", "payload": {
        "m": 5, "n": 1, "h1": [row + [last]], "source_is_torus": True}}
    if admitted:
        assert run_query(query)["invariants"]["mcc"]["value"] == 1
    else:
        with pytest.raises(QueryError, match="32000 decimal digits"):
            run_query(query)


def test_h1_digit_cap_counts_digits_only_near_the_cap(monkeypatch):
    from coincalc import cli
    counted = []
    monkeypatch.setattr(cli, "_digits",
                        lambda x: counted.append(x) or len(str(abs(x))))
    # 4 x (2,800 + 1) digits cannot pass 32,000: no entry is counted
    x = 10 ** 2799 + 1
    query = {"id": "w", "family": "torus", "payload": {
        "m": 2, "n": 2, "h1": [[x, 1], [0, x]], "source_is_torus": True}}
    assert run_query(query)["invariants"]["mcc"]["value"] == x * x
    assert counted == []
    # 12 entries of up to 2,667 + 1 digits could: every entry is counted
    query["payload"].update(m=6, h1=[[10 ** 2666] * 6, [1] * 6])
    assert run_query(query)["invariants"]["mcc"]["value"] == 0
    assert len(counted) == 12


def test_h1_of_64_rows_and_columns_answers():
    identity = [[int(i == j) for j in range(64)] for i in range(64)]
    answer = run_query({"id": "id64", "family": "torus", "payload": {
        "m": 64, "n": 64, "h1": identity, "source_is_torus": True}})
    assert answer["invariants"]["mcc"]["value"] == 1


def test_oriented_target_must_be_boolean():
    base = {"id": "o", "family": "stiefel", "payload": {"r": 7, "k": 3}}
    assert run_query(base) == run_query(
        {**base, "payload": {"r": 7, "k": 3, "oriented_target": False}})
    with pytest.raises(QueryError, match="oriented_target"):
        run_query({**base, "payload": {"r": 7, "k": 3,
                                       "oriented_target": "no"}})


def test_general_source_bound_chain_shows_the_det():
    for rows, det in (([[2, 0], [0, 3]], 6), ([[2, 4, 6], [0, 3, 9]], 6),
                      ([[4, 6], [2, 3]], 0), ([[0, 0], [0, 0]], 0)):
        assert maximal_minor_gcd(IntMatrix.from_rows(rows)) == det
        answer = run_query({"id": "g", "family": "torus", "payload": {
            "m": 4, "n": 2, "h1": rows, "source_is_torus": False}})
        assert answer["warnings"] == [
            f"Thm3.7 bounds: Reidemeister ≥ |det| = {det} ≥ MCC "
            "(needs n ≠ 2) ≥ N# ≥ Ñ ≥ N ≥ N^Z"]


def test_factbase_lint_shipped():
    from coincalc.tables import FactBase
    result = run_cli("factbase", "lint", FactBase.bundled_path())
    assert result.returncode == 0
    assert "clean" in result.stdout


def _broken_factbase(tmp_path) -> Path:
    """The shipped fact base, one entry a line, with pi_10(S^5) (order 2)
    claimed trivial, which the linter rejects on the entry's line 5."""
    doc = {**shipped_factbase(), "version": "0.0.1"}
    doc["pinpoints"][1]["is_trivial"] = "yes"
    path = tmp_path / "bad.json"
    path.write_text(factbase_text(doc))
    return path


_BROKEN_ENTRY = "5: pinpoints[1]: a trivial group has order 1"


def test_factbase_lint_broken(tmp_path):
    path = _broken_factbase(tmp_path)
    result = run_cli("factbase", "lint", str(path))
    assert result.returncode == 2
    assert result.stderr == f"{path}:{_BROKEN_ENTRY}\n"  # line-precise


def test_factbase_lint_reports_a_file_also_set_as_the_fact_base(tmp_path):
    # lint reads only its file: a broken NIELSEN_FACTBASE is linted, not
    # refused as the fact base queries would read
    path = _broken_factbase(tmp_path)
    result = run_cli("factbase", "lint", str(path),
                     env_extra={"NIELSEN_FACTBASE": str(path)})
    assert result.returncode == 2
    assert result.stderr == f"{path}:{_BROKEN_ENTRY}\n"
    assert "rejected" not in result.stderr


def test_factbase_lint_ignores_an_unreadable_fact_base(tmp_path):
    from coincalc.tables import FactBase
    bundled = FactBase.bundled_path()
    result = run_cli("factbase", "lint", bundled, env_extra={
        "NIELSEN_FACTBASE": str(tmp_path / "missing.json")})
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{bundled}: clean\n"


def test_corrupt_factbase_is_internal_failure(tmp_path):
    # a fact base that fails its own linter must never answer queries
    from coincalc.tables import FactBase
    doc = json.loads(Path(FactBase.bundled_path()).read_text())
    doc["pinpoints"][0]["is_trivial"] = "maybe"
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc))
    result = run_cli("stiefel", "-r", "5", "-k", "2",
                     env_extra={"NIELSEN_FACTBASE": str(path)})
    assert result.returncode == 3
    assert "rejected" in result.stderr


def _shipped_factbase(**changes):
    from coincalc.tables import FactBase
    doc = json.loads(Path(FactBase.bundled_path()).read_text())
    for where, value in changes.items():
        section, _, field = where.partition("__")
        if field:
            doc[section][0][field] = value
        else:
            doc[section] = value
    return json.dumps(doc).encode()


@pytest.mark.parametrize("content, message", [
    (b'"fact base"', "must be a JSON object"),
    (b"[]", "must be a JSON object"),
    (_shipped_factbase(pinpoints={}), "pinpoints must be a list"),
    (_shipped_factbase(pinpoints=[None]), "pinpoints[0]: an entry must be"),
    (_shipped_factbase(pinpoints=[7]), "pinpoints[0]: an entry must be"),
    (_shipped_factbase(pinpoints__order=0), "pinpoints[0]: order must be"),
    (_shipped_factbase(pinpoints__order=True), "pinpoints[0]: order must be"),
    (_shipped_factbase(pinpoints__is_trivial=True),
     "pinpoints[0]: is_trivial must be yes/no"),
    (_shipped_factbase(version=""), "version must be a nonempty string"),
    (_shipped_factbase(version=100), "version must be a nonempty string"),
    (_shipped_factbase(stable_stems=[]),
     "unknown top-level key 'stable_stems'"),
    (_shipped_factbase(framed_so=[{"k": 1, "stem": 0,
                                   "order_of_class": "infinite",
                                   "citation": "the framed point"}]),
     "unknown top-level key 'framed_so'"),
    (b"\xff\xfe{}", "not UTF-8 text"),
    (b'{"version": ' + b"1" * 5000 + b"}", "not valid JSON"),
    (b"[" * 100_000 + b"]" * 100_000, "not valid JSON: nested too deeply"),
], ids=["string", "array", "section-not-a-list", "null-entry",
        "integer-entry", "order-zero", "order-true", "trivial-true",
        "empty-version", "integer-version", "old-stable-stems",
        "old-framed-so", "not-utf8", "huge-integer", "deep-nesting"])
def test_malformed_factbase_is_rejected_cleanly(tmp_path, monkeypatch,
                                                capsys, content, message):
    # the linter names the fault, and the loader never meets a file it
    # passed but cannot read
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["factbase", "lint", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and f"{path}" in err
    monkeypatch.setenv("NIELSEN_FACTBASE", str(path))
    assert main(["wecken", "-m", "3", "-n", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("fact base rejected: ")
    assert message in err


def test_factbase_env_override(tmp_path):
    from coincalc.tables import FactBase
    doc = json.loads(Path(FactBase.bundled_path()).read_text())
    doc["version"] = "99.0.0-test"
    path = tmp_path / "override.json"
    path.write_text(json.dumps(doc, indent=2))
    result = run_cli("wecken", "-m", "3", "-n", "2",
                     env_extra={"NIELSEN_FACTBASE": str(path)})
    assert result.returncode == 0
    assert json.loads(result.stdout)["factbase_version"] == "99.0.0-test"


def test_golden_corpus_bytes():
    queries = json.loads((DATA / "golden_queries.json").read_text())
    expected = (DATA / "golden_answers.json").read_text()
    assert _dump(run_batch(queries)) == expected


def test_golden_corpus_bytes_without_sharing(monkeypatch):
    # the bytes do not depend on the entry cache: with none shared, every
    # entry is one-off and writes its own text
    from coincalc import cli
    monkeypatch.setattr(cli, "_ENTRIES", {})
    monkeypatch.setattr(cli, "_VERDICT_CAP", 0)
    queries = json.loads((DATA / "golden_queries.json").read_text())
    expected = (DATA / "golden_answers.json").read_text()
    answers = run_batch(queries)
    assert _dump(answers) == expected
    assert [_dump(a) for a in answers] == [
        reference_dump(a) for a in json.loads(expected)]
    assert cli._ENTRIES == {}
    # each one-off entry keeps the texts it was written with, and only them
    assert all(set(e.texts) == {"\n    ", "\n      "}
               for a in answers for e in a["invariants"].values())


def test_golden_answers_one_at_a_time():
    # each answer as `coincalc query` writes it, one indent level shallower
    # than in a batch
    queries = json.loads((DATA / "golden_queries.json").read_text())
    expected = json.loads((DATA / "golden_answers.json").read_text())
    assert len(queries) == len(expected)
    for query, golden in zip(queries, expected):
        assert _dump(run_query(query)) == reference_dump(golden), query["id"]


def test_golden_corpus_via_cli():
    result = run_cli("batch", str(DATA / "golden_queries.json"))
    assert result.returncode == 0
    assert result.stdout == (DATA / "golden_answers.json").read_text()


# queries for the ids that a query can reach but neither the golden corpus
# nor the perfbench rounds emit (tests/test_rule_coverage.py pins those);
# they stay out of golden_queries.json, which the benchmark runs verbatim
REACHABLE_UNEMITTED = [
    ("wecken", {"m": 19, "n": 10, "target_family": "Sphere"},
     "wecken_condition", "no", ["R6"]),
    ("wecken", {"m": 15, "n": 8, "target_family": "Sphere"},
     "wecken_condition", "yes", ["R6"]),
    ("wecken", {"m": 18, "n": 8, "target_family": "Sphere"},
     "wecken_condition", "yes", ["R7"]),
    ("wecken", {"m": 13, "n": 6, "target_family": "Sphere"},
     "wecken_condition", "unknown", ["R8"]),
    ("spaceform", {"m": 5, "n": 3, "group_order": 2}, "mcc", "unknown",
     ["Thm1.10", "needs:homotopic"]),
    ("spaceform", {"m": 13, "n": 6, "group_order": 2, "homotopic": "yes",
                   "e_del_zero": "yes"}, "mcc", "unknown",
     ["Thm1.10", "Cor1.19", "needs:del_zero"]),
    ("spaceform", {"m": 6, "n": 4, "group_order": 2, "homotopic": "yes"},
     "mcc", "unknown", ["Thm1.10", "needs:e_del_zero"]),
]


@pytest.mark.parametrize(
    "family, payload, field, value, trace", REACHABLE_UNEMITTED,
    ids=[f"{case[0]}-{case[1]['m']}-{case[1]['n']}"
         for case in REACHABLE_UNEMITTED])
def test_query_reaches_an_id_the_corpus_never_emits(family, payload, field,
                                                    value, trace):
    answer = run_query({"id": "x", "family": family, "payload": payload})
    assert answer["invariants"][field] == {"value": value, "trace": trace}


def test_batch_is_deterministic():
    queries = json.loads((DATA / "golden_queries.json").read_text())
    assert _dump(run_batch(queries)) == _dump(run_batch(queries))


def test_batch_has_no_jobs_flag(tmp_path):
    path = tmp_path / "batch.json"
    path.write_text("[]")
    result = run_cli("batch", str(path), "--jobs", "2")
    assert result.returncode == 2
    assert "--jobs" in result.stderr


def test_library_caller_imports_no_argparse():
    result = run_python("-c", textwrap.dedent("""
        import sys
        from coincalc import cli, tables
        tables.set_factbase(tables.FactBase.load())
        cli._dump(cli.run_query({"id": "a", "family": "stiefel",
                                 "payload": {"r": 7, "k": 3}}))
        print(sorted({"argparse", "gettext", "locale"} & set(sys.modules)))
        """))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_cli_import_starts_no_executor():
    result = run_python("-c", "import sys, coincalc.cli; "
                        "print('concurrent.futures' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


ENGINES = {f"coincalc.{name}" for name in (
    "lattice", "torus", "sphere", "spaceform", "projective", "stiefel",
    "wecken")}


def modules_imported(*argv):
    """The modules a coincalc process has imported once it has run argv."""
    result = run_python("-c", textwrap.dedent(f"""
        import json, sys
        from coincalc.cli import main
        code = main({list(argv)!r})
        print(json.dumps(list(sys.modules)))
        sys.exit(code)
        """))
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def engines_imported(*argv):
    """The engine modules a coincalc process imports to run argv."""
    return ENGINES & modules_imported(*argv)


def test_torus_query_imports_no_other_engine(tmp_path):
    path = write_query(tmp_path, {
        "id": "t", "family": "torus",
        "payload": {"m": 2, "n": 2, "h1": [[2, 0], [0, 3]],
                    "source_is_torus": True}})
    assert engines_imported("query", path) == {"coincalc.torus",
                                               "coincalc.lattice"}


def test_wecken_command_imports_no_lattice():
    assert engines_imported("wecken", "-m", "11", "-n", "6") == {
        "coincalc.wecken"}


# dataclasses and the modules it imports to generate each class's methods;
# coincalc's records are plain classes, so no process needs them
CODEGEN = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
GOLDEN_OF_FAMILY = {
    "torus": "torus-diag-2-3", "sphere": "circle-degrees-2-5",
    "spaceform": "spaceform-generic-branch", "projective": "projective-row1",
    "stiefel": "stiefel-5-2", "wecken": "wecken-11-6",
    "fixedpoint": "fixedpoint-negative-surface",
}


@pytest.mark.parametrize("family", sorted(GOLDEN_OF_FAMILY))
def test_query_process_imports_no_dataclasses(family, tmp_path):
    queries = json.loads((DATA / "golden_queries.json").read_text())
    query = next(q for q in queries if q["id"] == GOLDEN_OF_FAMILY[family])
    assert query["family"] == family
    assert not CODEGEN & modules_imported("query",
                                          write_query(tmp_path, query))


@pytest.mark.parametrize("argv", [
    ("wecken", "-m", "11", "-n", "6"),
    ("stiefel", "-r", "7", "-k", "3"),
], ids=["wecken", "stiefel"])
def test_command_process_imports_no_dataclasses(argv):
    assert not CODEGEN & modules_imported(*argv)


def _imports_run_at_import(node):
    """The import statements that run when the module of ``node`` is
    imported: those outside every function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _imports_run_at_import(child)


def test_no_module_imports_dataclasses_at_import():
    offenders = []
    for path in sorted((SRC / "coincalc").glob("*.py")):
        for node in _imports_run_at_import(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import) else [node.module])
            if any(name and name.split(".")[0] == "dataclasses"
                   for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_first_wecken_query_runs_no_grid_scan():
    # the rules each query fires are checked on that query; no process
    # pays for a scan of the (m, n) grid
    result = run_python("-c", textwrap.dedent("""
        from coincalc import wecken
        def scan(*args, **kwargs):
            raise AssertionError("overlap scan at run time")
        wecken.overlap_disagreements = scan
        fact = wecken.wecken_condition(wecken.WeckenQuery(11, 6))
        print(fact.truth.value, fact.rule)
        """))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "no R4\n"


def _parser_synopsis(parser, path=()):
    """{subcommand path: its flags} for every leaf command of the parser."""
    import argparse
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _parser_synopsis(child, path + (name,))
            return
    flags = {opt for action in parser._actions for opt in action.option_strings
             if opt not in ("-h", "--help")}
    yield " ".join(path), flags


def test_readme_synopsis_matches_the_parser():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    documented = {}
    for line in block.splitlines():
        words = line.split("#")[0].replace("[", " ").replace("]", " ").split()
        if not words:
            continue
        assert words[0] == "coincalc", line
        command = " ".join(w for w in words[1:] if w.isalpha() and w.islower())
        documented[command] = {w for w in words[1:] if w.startswith("-")}
    assert documented == dict(_parser_synopsis(_build_parser()))


def test_parser_family_choices_are_the_target_families():
    import argparse
    from coincalc import wecken
    parser = _build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    family = next(a for a in commands.choices["wecken"]._actions
                  if a.dest == "family")
    assert list(family.choices) == [f.value for f in wecken.TargetFamily]


# the attributes that perfbench's tracer (perfbench/spans.py) wraps by name,
# each with a golden query whose answer has to pass through it
TRACED = [
    ("cli", "run_query", "stiefel-5-2"),
    ("cli", "_run_torus", "torus-diag-2-3"),
    ("cli", "_run_sphere", "sphere-loose-pair"),
    ("cli", "_run_spaceform", "spaceform-generic-branch"),
    ("cli", "_run_projective", "projective-row1"),
    ("cli", "_run_stiefel", "stiefel-5-2"),
    ("cli", "_run_wecken_fact", "wecken-11-6"),
    ("cli", "_run_fixedpoint_fact", "fixedpoint-threefold"),
    ("cli", "validate_bundle", "sphere-loose-pair"),
    ("cli", "_dump", "wecken-11-6"),
    ("cli", "projective_invariants", "projective-row7"),
    ("torus", "torus_invariants", "torus-3-to-2"),
    ("torus", "bound_chain_note", "torus-general-surface-witness"),
    ("sphere", "sphere_invariants", "circle-degrees-2-5"),
    ("spaceform", "spaceform_pair_invariants", "spaceform-odd-selfpair"),
    ("stiefel", "stiefel_selfcoincidence", "stiefel-7-3"),
    ("wecken", "wecken_condition", "wecken-7-5"),
    ("wecken", "fixed_point_wecken", "fixedpoint-negative-surface"),
    ("lattice", "IntMatrix.from_rows", "torus-diag-2-3"),
    ("lattice", "IntMatrix.__post_init__", "torus-diag-2-3"),
]


@pytest.mark.parametrize("module, attr, qid", TRACED,
                         ids=[f"{m}.{a}" for m, a, _ in TRACED])
def test_traced_attribute_is_called_by_a_query(module, attr, qid, tmp_path,
                                               monkeypatch, capsys):
    import importlib
    owner = importlib.import_module(f"coincalc.{module}")
    *classes, attr = attr.split(".")
    for name in classes:
        owner = getattr(owner, name)
    # a class attribute is read from the class __dict__, as the tracer reads
    # it, so that a classmethod is wrapped as one
    original = (owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr))
    is_classmethod = isinstance(original, classmethod)
    fn = original.__func__ if is_classmethod else original
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, attr,
                        classmethod(spy) if is_classmethod else spy)
    queries = json.loads((DATA / "golden_queries.json").read_text())
    query = next(q for q in queries if q["id"] == qid)
    assert main(["query", write_query(tmp_path, query)]) == 0
    capsys.readouterr()
    assert calls


def test_answer_round_trip():
    answer = run_query({"id": "rt", "family": "stiefel",
                        "payload": {"r": 7, "k": 3}})
    text = _dump(answer)
    assert _dump(json.loads(text)) == text


def test_main_in_process(tmp_path, capsys):
    # keep one in-process path for coverage of exit codes without subprocess
    path = write_query(tmp_path, {
        "id": "p", "family": "fixedpoint", "payload": {"dim": 2, "chi": -1}})
    assert main(["query", path]) == 0
    answer = json.loads(capsys.readouterr().out)
    assert answer["invariants"]["wecken_fixed_point"]["value"] == "no"
    assert main(["query", "/no/such/file"]) == 2
