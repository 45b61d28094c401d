"""Command-line front end.

Queries are JSON objects {id, family, payload}; answers echo the id, the
fact-base version, the invariants with value and trace, and any warnings.
Output is deterministic: identical queries produce byte-identical answers
for the same fact-base version.  Exit codes: 0 success, 2 input error,
3 internal consistency failure.

Payload schemas are documented in docs/schemas.md.
"""

from __future__ import annotations

import json
import sys
from importlib import import_module

from .errors import ConsistencyError, DescriptorError, FactBaseError
from .tables import FactBase, get_factbase, lint_text, read_text, set_factbase
from .verdict import (
    ALL_FIELDS,
    INFINITE,
    Fact,
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
# a 2-core host.  At the 32,000-digit cap a square 64x64 matrix takes one
# elimination, 0.12-0.14 s.  A diagonal or triangular one, permuted or not,
# takes none: its singleton rows are peeled, and the order is the product
# of its diagonal, in under 10 ms.  A wide 63x64 one takes one elimination
# too, 0.11-0.13 s when random and 0.02 s when each row carries its own
# 7-digit factor, which is divided out.  The slowest are wide ones whose
# factors are hidden, L*D*B with L unit lower-bidiagonal, D a diagonal of
# 7-digit factors and B of entries in -2..2, whose cokernel order has
# about 420 digits: the elimination and a sweep of the whole matrix modulo
# a gcd of about 300 digits take 0.45-0.62 s (three random such matrices).
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
        # written as the answer writes ints: an f-string refuses past
        # 4,300 digits
        det = "0" if order is INFINITE else _scalar(order)
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
    hopf = (_need(payload, "hopf_mod4", int, where)
            if "hopf_mod4" in payload else None)
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


_FIELD_NAMES = tuple(key for key, _ in ALL_FIELDS)  # InvariantBundle's slots


def run_query(query: dict) -> dict:
    """One Query in, one Answer out, with read-only entries (_Entry).
    Raises QueryError/DescriptorError on bad payloads and ConsistencyError
    on internal rule clashes."""
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
    version = get_factbase().version

    if family == "wecken" or family == "fixedpoint":
        name, fact = (_run_wecken_fact if family == "wecken"
                      else _run_fixedpoint_fact)(payload)
        invariants = {name: _entry(fact.truth.value,
                                   (fact.rule,) if fact.rule else ())}
        warnings = []
    else:
        runner = {"torus": _run_torus, "sphere": _run_sphere,
                  "spaceform": _run_spaceform, "projective": _run_projective,
                  "stiefel": _run_stiefel}[family]
        bundle, target_dim, warnings = runner(payload)
        violations = validate_bundle(bundle, target_dim)
        if violations:
            raise ConsistencyError(
                f"emitted bundle violates the invariant chain: {violations}")
        # fields that hold one Verdict share its entry; every engine puts
        # such fields next to each other
        invariants, last = {}, None
        for name, v in zip(_FIELD_NAMES, bundle._values):
            if v is not last:
                last, value = v, v.value
                entry = _entry(value if isinstance(value, int)
                               else value.value, v.trace)
            invariants[name] = entry
    return {"id": qid, "factbase_version": version,
            "invariants": invariants, "warnings": warnings}


def run_batch(queries: list) -> list[dict]:
    """Evaluate queries in input order; a malformed query yields an error
    answer instead of aborting, a ConsistencyError aborts the batch."""
    answers = []
    for query in queries:
        try:
            answers.append(run_query(query))
        except DescriptorError as exc:
            answers.append({
                "id": query.get("id", "") if isinstance(query, dict) else "",
                "factbase_version": get_factbase().version,
                "invariants": {},
                "warnings": [],
                "error": str(exc),
            })
    return answers


def _refuse(self, *args, **kwargs):
    raise TypeError("the verdict entries of an answer are read-only")


class _Trace(list):
    """The read-only trace of an _Entry; its copies are plain lists."""

    __slots__ = ()
    __init__ = __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse

    def __reduce_ex__(self, protocol):
        return list, (list(self),)


class _Entry(dict):
    """A read-only verdict {"value": ..., "trace": _Trace} of an answer; its
    copies are plain.  Its ``texts`` map the line prefix of each template
    it has been written with to its text."""

    __slots__ = ("texts",)
    __init__ = __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce_ex__(self, protocol):
        return dict, ({"value": self["value"], "trace": list(self["trace"])},)


def _entry(value, trace: tuple) -> _Entry:
    """The entry of value, a str or an int >= 0, and trace, a tuple of rule
    ids.  Answers share a few hundred: _ENTRIES keeps the entry of a str or
    an int below _SMALL_INT while it holds fewer than _VERDICT_CAP (threads
    may each add one more)."""
    small = type(value) is str or value < _SMALL_INT
    entry = _ENTRIES.get((value, trace)) if small else None
    if entry is None:
        entry, listed = dict.__new__(_Entry), list.__new__(_Trace)
        list.extend(listed, trace)
        dict.update(entry, value=value, trace=listed)
        entry.texts = {}
        if small and len(_ENTRIES) < _VERDICT_CAP:
            _ENTRIES[value, trace] = entry
    return entry


_escape = json.encoder.encode_basestring_ascii
_FIELD_SET = frozenset(_FIELD_NAMES)
_VERDICT_CAP = 1024  # entries in _ENTRIES
_SMALL_INT = 100  # int values below this share their entries
_PIECE_DIGITS = 600  # at most 640, the least int-to-str limit CPython takes
_PIECE = 10 ** _PIECE_DIGITS
_ENTRIES: dict[tuple, _Entry] = {}  # (value, trace) -> the shared entry


class _Template:
    """The fixed text of an answer whose lines continue with nl."""

    def __init__(self, nl: str):
        inner = nl + "  "
        self.head = "{" + inner + '"factbase_version": '
        self.id = "," + inner + '"id": '
        self.invariants = "," + inner + '"invariants": '
        self.inner = inner
        self.item = inner + "  "  # the line prefix of each verdict
        self.close = inner + "}"
        self.warnings = "," + inner + '"warnings": '
        self.end = nl + "}"
        # run_query's seven invariants in sorted order, each with the text
        # that opens its line
        self.fields = tuple(
            (name, ("," if i else "{") + self.item + _escape(name) + ": ")
            for i, name in enumerate(sorted(_FIELD_NAMES)))


_SINGLE, _ITEM = _Template("\n"), _Template("\n  ")


def _scalar(v) -> str:
    """The JSON text of v, which is no list, tuple or dict."""
    if isinstance(v, str):
        return _escape(v)
    if not isinstance(v, int) or isinstance(v, bool):
        return json.dumps(v)  # None, a bool, a float, or not JSON (TypeError)
    # CPython writes an int in time quadratic in its length and refuses
    # past its int-to-str limit: 4,300 digits by default, never below 640
    # when set.  So a long |v| is written as pieces of _PIECE_DIGITS peeled
    # off its low end by divmod: within any limit, and at the lengths that
    # answers reach as fast as a recursive split by squared powers of ten
    if abs(v) < _PIECE:  # -_PIECE would build a new long int on each call
        return int.__repr__(v)
    n, pieces = abs(v), []
    while n >= _PIECE:
        n, low = divmod(n, _PIECE)
        pieces.append(int.__repr__(low).zfill(_PIECE_DIGITS))
    pieces.append(int.__repr__(n))
    return ("-" if v < 0 else "") + "".join(reversed(pieces))


def _text(value, trace, nl: str) -> str:
    """The text of {"trace": trace, "value": value}, lines ending in nl."""
    inner = nl + "  "
    line = inner + "  "
    return ("{" + inner + '"trace": '
            + ("[" + line + ("," + line).join(map(_escape, trace))
               + inner + "]" if trace else "[]")
            + "," + inner + '"value": ' + _scalar(value) + nl + "}")


def _answer(a, t: _Template, out: list) -> bool:
    """If a has the shape run_query returns and every invariant is an
    _Entry, append its text, laid out by t, to out and return True;
    otherwise leave out as it was and return False."""
    if type(a) is not dict or len(a) != 4 or "id" not in a:
        return False
    version, qid = a.get("factbase_version"), a.get("id")
    invariants, warnings = a.get("invariants"), a.get("warnings")
    if (type(version) is not str or type(invariants) is not dict
            or type(warnings) is not list):
        return False
    mark, item = len(out), t.item
    out += (t.head, _escape(version), t.id,
            _escape(qid) if type(qid) is str else _write(qid, t.inner),
            t.invariants)
    fields = t.fields if invariants.keys() == _FIELD_SET else [
        (name, ("," if i else "{") + item + _key(name) + ": ")
        for i, name in enumerate(sorted(invariants))]
    for name, head in fields:
        v = invariants[name]
        if type(v) is not _Entry:
            del out[mark:]
            return False
        text = v.texts.get(item)
        if text is None:
            text = v.texts[item] = _text(v["value"], v["trace"], item)
        out += head, text
    out += (t.close if invariants else "{}", t.warnings,
            _write(warnings, t.inner) if warnings else "[]", t.end)
    return True


def _write(obj, nl: str) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` with nl for each line
    break.  The walk keeps its own stack of texts, (value, line prefix)
    pairs and the ids of the lists and dicts being written, so no nesting
    depth recurses."""
    out, todo, open_ids = [], [(obj, nl)], set()
    while todo:
        entry = todo.pop()
        if type(entry) is str:
            out.append(entry)
            continue
        if type(entry) is int:  # the id of a list or dict now written
            open_ids.remove(entry)
            continue
        v, nl = entry
        if not isinstance(v, (list, tuple, dict)):
            out.append(_scalar(v))
        elif not v:
            out.append("{}" if isinstance(v, dict) else "[]")
        elif id(v) in open_ids:
            raise ValueError("Circular reference detected")
        else:
            open_ids.add(id(v))
            inner = nl + "  "
            is_dict = isinstance(v, dict)
            pairs = ([(_key(key) + ": ", item) for key, item in sorted(
                v.items())] if is_dict else [("", item) for item in v])
            items, sep = [], ("{" if is_dict else "[") + inner
            for head, item in pairs:
                items += sep + head, (item, inner)
                sep = "," + inner
            todo += id(v), nl + ("}" if is_dict else "]")
            todo += reversed(items)
    return "".join(out)


def _key(key) -> str:
    """A dict key as json.dumps writes it."""
    if isinstance(key, str):
        return _escape(key)
    if not isinstance(key, (int, float)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return '"' + _scalar(key) + '"'


def _dump(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    An answer of run_query, alone or as an item of a list, is filled into
    the template of its indent: its id and fact-base version are escaped,
    an entry's text is written on its first use and read from it after (a
    torus answer repeats its |det| up to seven times), and its warnings are
    written by ``_write``.  ``_write`` writes everything else: error
    answers, near misses, and answers whose verdicts are plain dicts, such
    as a caller's or those of ``json.loads`` of earlier output.
    """
    out: list[str] = []
    if type(obj) is list and obj:
        for item in obj:
            out.append(",\n  " if out else "[\n  ")
            if not _answer(item, _ITEM, out):
                out.append(_write(item, "\n  "))
        out.append("\n]")
    elif not _answer(obj, _SINGLE, out):
        out.append(_write(obj, "\n"))
    out.append("\n")
    return "".join(out)


# -- entry point -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # imported here, so that library callers skip argparse, gettext and
    # locale
    import argparse
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
    if args.command == "factbase":  # FILE alone, never NIELSEN_FACTBASE
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
    try:
        try:
            set_factbase(FactBase.load())
        except FactBaseError as exc:
            print(f"fact base rejected: {exc}", file=sys.stderr)
            return 3
        except OSError as exc:
            print(f"cannot read fact base: {exc}", file=sys.stderr)
            return 2

        if args.command == "batch":
            queries = _load_json(args.file)
            if not isinstance(queries, list):
                raise QueryError("a batch file must hold a JSON array")
            sys.stdout.write(_dump(run_batch(queries)))
            return 0
        if args.command == "query":
            query = _load_json(args.file)
        elif args.command == "wecken":
            query = {"id": "cli", "family": "wecken",
                     "payload": {"m": args.m, "n": args.n,
                                 "target_family": args.family}}
        else:
            query = {"id": "cli", "family": "stiefel",
                     "payload": {"r": args.r, "k": args.k,
                                 "oriented_target": args.oriented}}
        sys.stdout.write(_dump(run_query(query)))
        return 0
    except DescriptorError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    finally:
        set_factbase(None)


if __name__ == "__main__":
    sys.exit(main())
