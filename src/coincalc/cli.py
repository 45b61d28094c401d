"""Command-line front end.

Queries are JSON objects {id, family, payload}; answers echo the id, the
fact-base version, the invariants with value and trace, and any warnings.
Output is deterministic: identical queries produce byte-identical answers
for the same fact-base version.  Exit codes: 0 success, 2 input error,
3 internal consistency failure.

Payload schemas are documented in docs/schemas.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import import_module

from .errors import ConsistencyError, DescriptorError, FactBaseError
from .tables import FactBase, get_factbase, lint_text, read_text, set_factbase
from .verdict import (
    ALL_FIELDS,
    INFINITE,
    UNKNOWN,
    Fact,
    Verdict,
    user_fact,
    validate_bundle,
)

FAMILIES = ("torus", "sphere", "spaceform", "projective", "stiefel",
            "wecken", "fixedpoint")
# the values of wecken.TargetFamily, for the parser, which imports no engine
TARGET_FAMILIES = ("Sphere", "SphericalSpaceForm", "GeneralN")


class _Lazy:
    """Stands in this module's namespace for a submodule not yet imported.
    The first attribute read imports the submodule and puts it in the
    stand-in's place, so a process imports only the engines of the families
    it answers, and later reads cost what they would after an eager import.
    """

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr: str):
        module = import_module(f"{__package__}.{self._name}")
        globals()[self._name] = module
        return getattr(module, attr)


lattice = _Lazy("lattice")
projective = _Lazy("projective")
spaceform = _Lazy("spaceform")
sphere = _Lazy("sphere")
stiefel = _Lazy("stiefel")
torus = _Lazy("torus")
wecken = _Lazy("wecken")


# bounds on a torus h1, which keep its cokernel order to about a second on
# a 2-core host.  A square matrix takes one elimination: 64x64 ones of
# 32,000 digits take about 0.2 s, whether random or with shared factors.
# The slowest are wide 63x64 ones whose rows each carry their own 7-digit
# factor, so that the Smith reduction runs on the whole matrix modulo a
# gcd of maximal minors of about 420 digits: 1.1-1.3 s.  A random one
# takes 0.2 s, and one whose entries all share a factor 0.05 s.
MAX_MATRIX_DIM = 64
MAX_MATRIX_DIGITS = 32_000  # decimal digits of all entries together


class QueryError(DescriptorError):
    """Payload failed schema validation; message names the field."""


# -- payload readers -------------------------------------------------------


def _need(payload: dict, field: str, kind, where: str):
    if field not in payload:
        raise QueryError(f"{where}: missing field {field!r}")
    value = payload[field]
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise QueryError(f"{where}: field {field!r} must be an integer")
    if kind is bool and not isinstance(value, bool):
        raise QueryError(f"{where}: field {field!r} must be a boolean")
    if kind is str and not isinstance(value, str):
        raise QueryError(f"{where}: field {field!r} must be a string")
    return value


def _fact(payload: dict, field: str, where: str) -> Fact:
    try:
        return user_fact(payload.get(field, "unknown"))
    except DescriptorError:
        raise QueryError(f"{where}: field {field!r} must be "
                         f"'yes', 'no' or 'unknown'") from None


def _matrix(payload: dict, field: str, where: str) -> lattice.IntMatrix:
    raw = _need(payload, field, list, where)
    if (not isinstance(raw, list) or not raw
            or not all(isinstance(row, list) for row in raw)):
        raise QueryError(f"{where}: field {field!r} must be a nonempty "
                         f"list of rows")
    if len(raw) > MAX_MATRIX_DIM or any(len(row) > MAX_MATRIX_DIM
                                        for row in raw):
        raise QueryError(f"{where}: field {field!r} is limited to "
                         f"{MAX_MATRIX_DIM} rows and {MAX_MATRIX_DIM} columns")
    try:
        matrix = lattice.IntMatrix.from_rows(raw)
    except DescriptorError as exc:
        raise QueryError(f"{where}: field {field!r}: {exc}") from None
    entries = matrix.entries
    # no entry has more digits than d + 1, d read from the widest entry's
    # bit length: that settles most matrices without a count per entry
    widest = int(max(max(entries), -min(entries)).bit_length() * _LOG10_2)
    if (len(entries) * (widest + 1) > MAX_MATRIX_DIGITS
            and sum(map(_digits, entries)) > MAX_MATRIX_DIGITS):
        raise QueryError(f"{where}: field {field!r} is limited to "
                         f"{MAX_MATRIX_DIGITS} decimal digits in all")
    return matrix


_LOG10_2 = 0.30102999566398120


def _digits(x: int) -> int:
    """Decimal digits of |x| (1 for 0), read from the bit length, since
    CPython refuses int-to-str past 4,300 digits."""
    x = abs(x)
    d = int(x.bit_length() * _LOG10_2)  # the digits are d or d + 1
    return max(1, d + (x >= 10 ** d))


# -- per-family dispatch ----------------------------------------------------


def _run_torus(payload: dict):
    where = "torus payload"
    d = torus.TorusPairDescriptor(
        m=_need(payload, "m", int, where),
        n=_need(payload, "n", int, where),
        h1_matrix=_matrix(payload, "h1", where),
        source_is_torus=_need(payload, "source_is_torus", bool, where),
        top_cohomology_pullback_nonzero=_fact(
            payload, "top_pullback_nonzero", where),
        det_kills_top=_fact(payload, "det_kills_top", where),
    )
    bundle = torus.torus_invariants(d)
    warnings = []
    if not d.source_is_torus:
        order = bundle.reidemeister.value  # the cokernel order
        det = 0 if order is INFINITE else order
        warnings.append(torus.bound_chain_note(d, det))
    return bundle, d.n, warnings


def _run_sphere(payload: dict):
    where = "sphere payload"
    m = _need(payload, "m", int, where)
    n = _need(payload, "n", int, where)
    degrees = None
    if "degrees" in payload:
        raw = payload["degrees"]
        if (not isinstance(raw, list) or len(raw) != 2 or any(
                isinstance(x, bool) or not isinstance(x, int) for x in raw)):
            raise QueryError(f"{where}: field 'degrees' must be a pair of "
                             f"integers")
        degrees = (raw[0], raw[1])
    d = sphere.SphereClassDescriptor(
        m=m, n=n, degrees=degrees,
        f1_homotopic_a_f2=_fact(payload, "f1_homotopic_a_f2", where),
        in_suspension_image=_fact(payload, "in_suspension_image", where),
        stable_suspension_nonzero=_fact(
            payload, "stable_suspension_nonzero", where),
        some_stable_hopf_james_nonzero=_fact(
            payload, "some_stable_hopf_james_nonzero", where),
    )
    return sphere.sphere_invariants(d), n, []


def _run_spaceform(payload: dict):
    where = "spaceform payload"
    hopf = payload.get("hopf_mod4")
    if hopf is not None and (isinstance(hopf, bool)
                             or not isinstance(hopf, int)):
        raise QueryError(f"{where}: field 'hopf_mod4' must be an integer")
    d = spaceform.SpaceFormPairDescriptor(
        m=_need(payload, "m", int, where),
        n=_need(payload, "n", int, where),
        group_order=_need(payload, "group_order", int, where),
        homotopic=_fact(payload, "homotopic", where),
        del_zero=_fact(payload, "del_zero", where),
        e_del_zero=_fact(payload, "e_del_zero", where),
        kervaire_one=_fact(payload, "kervaire_one", where),
        hopf_mod4=hopf,
        in_psE_image=_fact(payload, "in_psE_image", where),
    )
    return spaceform.spaceform_pair_invariants(d), d.n, []


def _run_projective(payload: dict):
    where = "projective payload"
    field = projective.ProjectiveField.from_str(
        _need(payload, "field", str, where))
    d = projective.ProjectivePairDescriptor(
        field=field,
        n_prime=_need(payload, "n_prime", int, where),
        m=_need(payload, "m", int, where),
        fprime_homotopic=_fact(payload, "fprime_homotopic", where),
        lift2_in_ker_del=_fact(payload, "lift2_in_ker_del", where),
        lift2_in_ker_Edel=_fact(payload, "lift2_in_ker_Edel", where),
        lift2_antipodal_selfhomotopic=_fact(
            payload, "lift2_antipodal_selfhomotopic", where),
        lifts_differ_by_suspension=_fact(
            payload, "lifts_differ_by_suspension", where),
        lifts_equal=_fact(payload, "lifts_equal", where),
    )
    return projective_invariants(d), d.n, []


def projective_invariants(d):
    """The projective engine, called through this module's namespace, where
    perfbench's tracer wraps it."""
    return projective.projective_invariants(d)


def _run_stiefel(payload: dict):
    where = "stiefel payload"
    q = stiefel.StiefelQuery(
        r=_need(payload, "r", int, where),
        k=_need(payload, "k", int, where),
        oriented_target=(_need(payload, "oriented_target", bool, where)
                         if "oriented_target" in payload else False),
    )
    target_dim = q.k * (q.r - q.k)  # dimension of the Grassmannian
    return stiefel.stiefel_selfcoincidence(q), target_dim, []


def _run_wecken_fact(payload: dict) -> tuple[str, Fact]:
    where = "wecken payload"
    q = wecken.WeckenQuery(
        m=_need(payload, "m", int, where),
        n=_need(payload, "n", int, where),
        target_family=wecken.TargetFamily.from_str(
            payload.get("target_family", "Sphere")),
        noncompact_or_chi_zero=_fact(
            payload, "noncompact_or_chi_zero", where),
    )
    return "wecken_condition", wecken.wecken_condition(q)


def _run_fixedpoint_fact(payload: dict) -> tuple[str, Fact]:
    where = "fixedpoint payload"
    fact = wecken.fixed_point_wecken(
        dim=_need(payload, "dim", int, where),
        chi=_need(payload, "chi", int, where),
    )
    return "wecken_fixed_point", fact


# -- answers ----------------------------------------------------------------


def _verdict_json(v: Verdict) -> dict:
    if v.value is INFINITE:
        value = "infinite"
    elif v.value is UNKNOWN:
        value = "unknown"
    else:
        value = v.value
    return {"value": value, "trace": list(v.trace)}


def _fact_json(fact: Fact) -> dict:
    return {"value": fact.truth.value,
            "trace": [fact.rule] if fact.rule else []}


def run_query(query: dict) -> dict:
    """One Query in, one Answer out.  Raises QueryError/DescriptorError on
    bad payloads and ConsistencyError on internal rule clashes."""
    if not isinstance(query, dict):
        raise QueryError("a query must be a JSON object")
    family = query.get("family")
    if family not in FAMILIES:
        raise QueryError(
            f"family must be one of {', '.join(FAMILIES)}; got {family!r}")
    payload = query.get("payload")
    if not isinstance(payload, dict):
        raise QueryError("payload must be a JSON object")
    qid = query.get("id", "")

    answer = {
        "id": qid,
        "factbase_version": get_factbase().version,
        "invariants": {},
        "warnings": [],
    }
    if family == "wecken":
        name, fact = _run_wecken_fact(payload)
        answer["invariants"][name] = _fact_json(fact)
        return answer
    if family == "fixedpoint":
        name, fact = _run_fixedpoint_fact(payload)
        answer["invariants"][name] = _fact_json(fact)
        return answer

    runner = {
        "torus": _run_torus,
        "sphere": _run_sphere,
        "spaceform": _run_spaceform,
        "projective": _run_projective,
        "stiefel": _run_stiefel,
    }[family]
    bundle, target_dim, warnings = runner(payload)
    violations = validate_bundle(bundle, target_dim)
    if violations:
        raise ConsistencyError(
            f"emitted bundle violates the invariant chain: {violations}")
    for key, _ in ALL_FIELDS:
        answer["invariants"][key] = _verdict_json(getattr(bundle, key))
    answer["warnings"] = warnings
    return answer


def _error_answer(query, message: str) -> dict:
    qid = query.get("id", "") if isinstance(query, dict) else ""
    return {
        "id": qid,
        "factbase_version": get_factbase().version,
        "invariants": {},
        "warnings": [],
        "error": message,
    }


def run_batch(queries: list) -> list[dict]:
    """Evaluate queries in input order; a malformed query yields an error
    answer instead of aborting, a ConsistencyError aborts the batch."""
    answers = []
    for query in queries:
        try:
            answers.append(run_query(query))
        except (QueryError, DescriptorError) as exc:
            answers.append(_error_answer(query, str(exc)))
    return answers


_escape = json.encoder.encode_basestring_ascii
_STR_ONLY = frozenset({str})
# answers nest five levels deep, and a batch adds one; a line prefix up to
# this depth has its layout and verdict fragments kept for the process
_KEPT_DEPTH = 8
_VERDICT_KEYS = frozenset({"trace", "value"})
_FRAGMENT_CAP = 1024  # entries in _FRAGMENTS
_FRAGMENT_CHARS = 512  # the longest fragment kept
_SMALL_INT = 100  # verdict values below this are kept in their fragment


class _Layouts(dict):
    """For each line prefix nl: the strings that lay out a list or dict
    whose lines continue with nl.  They are the prefix of its items, "["
    and "{" with the first item's line break, "," with each further one's,
    and "]" and "}" on a line of their own.  The prefixes up to _KEPT_DEPTH
    are built at import; a deeper one is built on each use and not kept,
    so a deeply nested id pins no long strings."""

    def __missing__(self, nl: str) -> tuple[str, ...]:
        inner = nl + "  "
        return (inner, "[" + inner, "{" + inner, "," + inner,
                nl + "]", nl + "}")


_LAYOUTS = _Layouts()
_LAYOUTS.update({nl: _LAYOUTS[nl] for nl in (
    "\n" + "  " * depth for depth in range(_KEPT_DEPTH))})
# for each kept prefix and each key order of run_query's dicts, the sorted
# keys, each with the text that opens its line
_SHAPES = (("id", "factbase_version", "invariants", "warnings"),
           tuple(key for key, _ in ALL_FIELDS))
_HEADS = {
    (nl, keys): tuple((key, ("," if i else "{") + nl + "  " + _escape(key)
                       + ": ") for i, key in enumerate(sorted(keys)))
    for nl in _LAYOUTS for keys in _SHAPES}
# text of verdicts {"trace": [...], "value": v} at a kept prefix, keyed on
# (prefix, trace) for the text up to the value and (prefix, trace, value)
# for the whole when the value is a string or a small int.  Traces are built
# from rule ids, so answers share a few hundred keys; once full, the cache
# takes no more entries (dumps in several threads may each add one more).
_FRAGMENTS: dict[tuple, str] = {}


def _write(v, nl: str, emit, ints: dict) -> None:
    """Pass the JSON text of v, whose lines continue with nl, to emit."""
    kind = type(v)
    if kind is str:
        emit(_escape(v))
    elif kind is int:
        text = ints.get(v)
        if text is None:
            text = ints[v] = int.__repr__(v)
        emit(text)
    elif kind is list:
        if not v:
            emit("[]")
            return
        inner, sep, _, comma, close, _ = _LAYOUTS[nl]
        for item in v:
            emit(sep)
            _write(item, inner, emit, ints)
            sep = comma
        emit(close)
    elif kind is dict and _STR_ONLY.issuperset(map(type, v)):
        if _write_verdict(v, nl, emit, ints):
            return
        if not v:
            emit("{}")
            return
        inner, _, sep, comma, _, close = _LAYOUTS[nl]
        heads = _HEADS.get((nl, tuple(v)))
        if heads is not None:
            for key, head in heads:
                emit(head)
                item = v[key]
                if not _write_verdict(item, inner, emit, ints):
                    _write(item, inner, emit, ints)
            emit(close)
            return
        for key in sorted(v):
            emit(sep)
            emit(_escape(key))
            emit(": ")
            _write(v[key], inner, emit, ints)
            sep = comma
        emit(close)
    else:
        emit(json.dumps(v, indent=2, sort_keys=True).replace("\n", nl))


def _write_verdict(v, nl: str, emit, ints: dict) -> bool:
    """If v is a verdict {"trace": [str, ...], "value": ...} and nl a kept
    prefix, pass the JSON text of v, whose lines continue with nl, to emit
    and return True; otherwise emit nothing and return False."""
    if (type(v) is not dict or v.keys() != _VERDICT_KEYS
            or nl not in _LAYOUTS):
        return False
    trace = v["trace"]
    if type(trace) is not list or not _STR_ONLY.issuperset(map(type, trace)):
        return False
    trace = tuple(trace)
    value = v["value"]
    kind = type(value)
    whole = None
    if kind is str or kind is int and 0 <= value < _SMALL_INT:
        whole = (nl, trace, value)
        text = _FRAGMENTS.get(whole)
        if text is not None:
            emit(text)
            return True
    inner, _, sep, comma, _, close = _LAYOUTS[nl]
    head = _FRAGMENTS.get((nl, trace))
    if head is None:
        parts = [sep, '"trace": ']
        _write(list(trace), inner, parts.append, ints)
        parts += comma, '"value": '
        head = _keep((nl, trace), "".join(parts))
    if whole is None:
        emit(head)
        _write(value, inner, emit, ints)
        emit(close)
    else:
        emit(_keep(whole, head + (_escape(value) if kind is str
                                  else int.__repr__(value)) + close))
    return True


def _keep(key: tuple, text: str) -> str:
    """text, kept in _FRAGMENTS under key while the cache has room."""
    if len(_FRAGMENTS) < _FRAGMENT_CAP and len(text) <= _FRAGMENT_CHARS:
        _FRAGMENTS[key] = text
    return text


def _dump(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    With an indent, ``json.dumps`` runs CPython's generator-based encoder
    in pure Python; ``_write`` walks the answer once instead and appends
    text fragments to one list, joined at the end.  Strings, exact ints,
    lists and dicts with string keys are written there; any other value
    goes to ``json.dumps`` and is re-indented, which is safe since JSON
    text holds no raw newline.  Each distinct int is converted to decimal
    once per dump: a torus answer repeats its |det| up to seven times.

    What answers repeat is written from text kept across dumps, in caches
    of fixed size: the layout strings of each line prefix up to
    ``_KEPT_DEPTH`` (``_LAYOUTS``), the sorted key heads of an answer and
    of its invariants (``_HEADS``), and up to ``_FRAGMENT_CAP`` verdict
    fragments of at most ``_FRAGMENT_CHARS`` characters (``_FRAGMENTS``),
    keyed on prefix, trace and a string or small-int value.  Other ints,
    deeper prefixes and verdicts that find the cache full are written
    fresh.
    """
    out: list[str] = []
    # exact answers may run past CPython's int-to-str digit limit, which
    # guards parsing untrusted input, not printing our own results; lift it
    # for this dump only, so that input parsing stays bounded
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _write(obj, "\n", out.append, {})
    finally:
        sys.set_int_max_str_digits(limit)
    out.append("\n")
    return "".join(out)


# -- entry point -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coincalc",
        description="exact coincidence invariants with justification traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_query = sub.add_parser("query", help="answer one JSON query file")
    p_query.add_argument("file")

    p_batch = sub.add_parser("batch", help="answer a JSON array of queries")
    p_batch.add_argument("file")

    p_wecken = sub.add_parser("wecken", help="decide the Wecken condition")
    p_wecken.add_argument("-m", type=int, required=True)
    p_wecken.add_argument("-n", type=int, required=True)
    p_wecken.add_argument("--family", default="Sphere",
                          choices=TARGET_FAMILIES)

    p_stiefel = sub.add_parser(
        "stiefel", help="Stiefel-to-Grassmann selfcoincidence invariants")
    p_stiefel.add_argument("-r", type=int, required=True)
    p_stiefel.add_argument("-k", type=int, required=True)
    p_stiefel.add_argument("--oriented", action="store_true")

    p_fact = sub.add_parser("factbase", help="fact-base utilities")
    fact_sub = p_fact.add_subparsers(dest="factbase_command", required=True)
    p_lint = fact_sub.add_parser("lint", help="lint a fact-base file")
    p_lint.add_argument("file")

    return parser


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise QueryError(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise QueryError(f"{path} is not valid JSON: {exc}") from None
    except UnicodeDecodeError:
        raise QueryError(f"{path} is not UTF-8 text") from None
    except ValueError:  # int("...") past CPython's int-from-str digit limit
        raise QueryError(
            f"{path} holds an integer over {sys.get_int_max_str_digits()} "
            "digits") from None
    except RecursionError:
        raise QueryError(f"{path} nests too deeply to parse") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = sys.stdout
    try:
        try:
            set_factbase(FactBase.load())
        except FactBaseError as exc:
            print(f"fact base rejected: {exc}", file=sys.stderr)
            return 3
        except OSError as exc:
            print(f"cannot read fact base: {exc}", file=sys.stderr)
            return 2

        if args.command == "query":
            query = _load_json(args.file)
            out.write(_dump(run_query(query)))
            return 0
        if args.command == "batch":
            queries = _load_json(args.file)
            if not isinstance(queries, list):
                raise QueryError("a batch file must hold a JSON array")
            out.write(_dump(run_batch(queries)))
            return 0
        if args.command == "wecken":
            query = {"id": "cli", "family": "wecken",
                     "payload": {"m": args.m, "n": args.n,
                                 "target_family": args.family}}
            out.write(_dump(run_query(query)))
            return 0
        if args.command == "stiefel":
            query = {"id": "cli", "family": "stiefel",
                     "payload": {"r": args.r, "k": args.k,
                                 "oriented_target": args.oriented}}
            out.write(_dump(run_query(query)))
            return 0
        if args.command == "factbase":
            try:
                problems = lint_text(read_text(args.file))
            except OSError as exc:
                print(f"cannot read {args.file}: {exc.strerror}",
                      file=sys.stderr)
                return 2
            except FactBaseError as exc:
                problems = exc.locations
            if problems:
                for line, message in problems:
                    where = f"{args.file}:{line}" if line else args.file
                    print(f"{where}: {message}", file=sys.stderr)
                return 2
            print(f"{args.file}: clean")
            return 0
        raise AssertionError("unreachable")
    except (QueryError, DescriptorError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    finally:
        set_factbase(None)


if __name__ == "__main__":
    sys.exit(main())
