"""The homotopy/bordism fact base.

Tabulated facts live in a versioned JSON file (one entry per line, each with
a citation); this module loads it and lints it on every load.  The file
holds only pinpoint entries, and answers read one of them: Wecken rule R3
reads pi_10(S^6).  The closed forms two_chi_so_vanishes and
kervaire_status are plain functions here, so an alternative file cannot
change them.  The runtime never infers new group structures: pinpoint gives
None for a key the file lacks, never a fabricated value.

File schema: see docs/factbase.md.  The bundled file can be overridden with
the NIELSEN_FACTBASE environment variable.
"""

from __future__ import annotations

import enum
import json
import os

from .errors import DescriptorError, FactBaseError
from .verdict import (
    INFINITE,
    UNKNOWN,
    ExtNat,
    Fact,
    Record,
    _set,
    no,
    unknown_fact,
    yes,
)


class KervaireStatus(enum.Enum):
    KERNEL_E_ZERO = "kernel_E_zero"  # n = 2, 4, 8
    EXISTS_ORDER_TWO_KERVAIRE_ONE = "exists_order_two_kervaire_one"
    NONE_EXISTS = "none_exists"
    OPEN = "open"  # n = 128


class PinpointGroupFact(Record):
    __slots__ = ("key", "is_trivial", "order")

    def __init__(self, key: str, is_trivial: bool, order: ExtNat):
        _set(self, "key", key)
        _set(self, "is_trivial", is_trivial)
        _set(self, "order", order)


# the order markers a linted file may hold in place of a positive integer
_ORDER_MARKERS = {"infinite": INFINITE, "unknown": UNKNOWN}


class FactBase:
    """Immutable-after-load view of the fact file."""

    def __init__(self, version: str, pinpoints):
        self.version = version
        self._pinpoints = {e.key: e for e in pinpoints}

    # -- loading -----------------------------------------------------------

    @classmethod
    def bundled_path(cls) -> str:
        return os.path.join(os.path.dirname(__file__), "data", "factbase.json")

    @classmethod
    def load(cls, path: str | None = None) -> "FactBase":
        path = path or os.environ.get("NIELSEN_FACTBASE") or cls.bundled_path()
        return cls.from_text(read_text(path))

    @classmethod
    def from_text(cls, raw: str) -> "FactBase":
        doc, errors = _parse_and_lint(raw)
        if errors:
            raise FactBaseError(errors)
        pinpoints = [
            PinpointGroupFact(
                key=e["key"],
                is_trivial=e["is_trivial"] == "yes",
                order=_ORDER_MARKERS.get(e["order"], e["order"]),
            )
            for e in doc["pinpoints"]
        ]
        return cls(doc["version"], pinpoints)

    def pinpoint(self, key: str) -> PinpointGroupFact | None:
        """Exact tabulated fact about one named homotopy group, or None."""
        return self._pinpoints.get(key)


def read_text(path: str) -> str:
    """The text of a fact file.  Raises OSError when it cannot be read and
    FactBaseError when it is not UTF-8."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FactBaseError([(None, f"not UTF-8 text: {exc}")]) from None


# -- closed forms ----------------------------------------------------------

# the answers of two_chi_so_vanishes, one fact per rule and truth value
_CHI_ZERO = yes("chi-zero")
_SO1_INFINITE = no("SO1-infinite")
_TWO_SO_EVEN = yes("2SOeven")
_SO_NULLBORDANT = yes("SO-nullbordant")
_TWENTY_FOUR_SO = yes("24SO")
_SO3_ORDER12_YES = yes("SO3-order12")
_SO3_ORDER12_NO = no("SO3-order12")
_SO5_ORDER3_YES = yes("SO5-order3")
_SO5_ORDER3_NO = no("SO5-order3")
_SO_ORDER_OPEN = unknown_fact("SO-order-open")
TWO_CHI_FACTS = (_CHI_ZERO, _SO1_INFINITE, _TWO_SO_EVEN, _SO_NULLBORDANT,
                 _TWENTY_FOUR_SO, _SO3_ORDER12_YES, _SO3_ORDER12_NO,
                 _SO5_ORDER3_YES, _SO5_ORDER3_NO, _SO_ORDER_OPEN)


def two_chi_so_vanishes(k: int, chi: int) -> Fact:
    """Does 2 * chi * [SO(k)] vanish in the stable stem k(k-1)/2?

    Closed-form rules only, from the orders of the framed classes: [SO(1)]
    is the framed point, of infinite order; 2[SO(2l)] = 0 (Becker-Schultz
    1974, 4.7); [SO(3)] has order 12 (Atiyah-Smith 1974); [SO(5)] has
    order 3 and [SO(k)] is nullbordant for the other 4 <= k <= 9 (Ossa
    1989, table 1); 24[SO(k)] = 0 for every k >= 2 (Ossa 1989, p. 315).
    Odd k >= 11 stays Unknown otherwise, because the order of the framed
    class is an open problem there.  The answer is one of TWO_CHI_FACTS.
    """
    if k < 1:
        raise DescriptorError("frame count must be >= 1")
    if chi == 0:
        return _CHI_ZERO
    if k == 1:
        return _SO1_INFINITE
    if k % 2 == 0:
        return _TWO_SO_EVEN
    if k in (7, 9):
        return _SO_NULLBORDANT
    if chi % 12 == 0:
        return _TWENTY_FOUR_SO
    if k == 3:
        return _SO3_ORDER12_YES if chi % 6 == 0 else _SO3_ORDER12_NO
    if k == 5:
        return _SO5_ORDER3_YES if chi % 3 == 0 else _SO5_ORDER3_NO
    return _SO_ORDER_OPEN


# kervaire_status for the n that Browder (n not a power of two) and
# Hill-Hopkins-Ravenel (n > 128) leave: Adams's Hopf invariant one for
# n = 2, 4, 8; order-two Kervaire-one elements in stems 30, 62 and 126 for
# n = 16, 32, 64; stem 254 open for n = 128
_KERVAIRE_STATUS = {
    2: KervaireStatus.KERNEL_E_ZERO,
    4: KervaireStatus.KERNEL_E_ZERO,
    8: KervaireStatus.KERNEL_E_ZERO,
    16: KervaireStatus.EXISTS_ORDER_TWO_KERVAIRE_ONE,
    32: KervaireStatus.EXISTS_ORDER_TWO_KERVAIRE_ONE,
    64: KervaireStatus.EXISTS_ORDER_TWO_KERVAIRE_ONE,
    128: KervaireStatus.OPEN,
}


def kervaire_status(n: int) -> KervaireStatus:
    """Status of order-two Kervaire-invariant-one elements for even n."""
    if n < 2 or n % 2:
        raise DescriptorError("Kervaire status is defined for even n >= 2")
    return _KERVAIRE_STATUS.get(n, KervaireStatus.NONE_EXISTS)


# -- linter ---------------------------------------------------------------


def _entry_line_numbers(raw: str) -> list[int]:
    """1-based line numbers of the pinpoint entries when each entry object
    starts a line of its own, as in the shipped file; else fewer or none."""
    lines = raw.splitlines()
    start = next((i for i, line in enumerate(lines)
                  if '"pinpoints"' in line), len(lines))
    numbers = []
    for i in range(start + 1, len(lines)):
        stripped = lines[i].lstrip()
        if stripped.startswith("]"):
            break
        if stripped.startswith("{"):
            numbers.append(i + 1)
    return numbers


def _is_int(value) -> bool:
    return type(value) is int  # JSON true and false are not numbers here


def _cited(entry: dict) -> bool:
    citation = entry.get("citation")
    return isinstance(citation, str) and bool(citation.strip())


_KEYS = ("version", "pinpoints")


def lint_text(raw: str) -> list[tuple[int | None, str]]:
    """All lint violations in a fact file, each with a line number when the
    offending entry can be located.  Empty list means the file is clean."""
    return _parse_and_lint(raw)[1]


def _parse_and_lint(raw: str) -> tuple[object, list[tuple[int | None, str]]]:
    """The parsed fact file and its lint violations; the file is parsed
    once, so that loading it does not decode the text twice."""
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        return None, [(exc.lineno, f"not valid JSON: {exc.msg}")]
    except ValueError as exc:  # an integer past CPython's digit limit
        return None, [(None, f"not valid JSON: {exc}")]
    except RecursionError:
        return None, [(None, "not valid JSON: nested too deeply")]

    # the shape first, so that the entry checks below can index freely
    if not isinstance(doc, dict):
        return doc, [(None, "the fact base must be a JSON object")]
    errors: list[tuple[int | None, str]] = [
        (None, f"unknown top-level key {key!r}")
        for key in doc if key not in _KEYS]
    errors += [(None, f"missing top-level key {key!r}")
               for key in _KEYS if key not in doc]

    numbers = None  # the entries' line numbers, found at the first fault

    def fail(index, message):
        nonlocal numbers
        if numbers is None:
            numbers = _entry_line_numbers(raw)
        line = numbers[index] if index < len(numbers) else None
        errors.append((line, f"pinpoints[{index}]: {message}"))

    version = doc.get("version")
    if "version" in doc and not (isinstance(version, str) and version):
        errors.append((None, "version must be a nonempty string"))
    entries = doc.get("pinpoints", [])
    if not isinstance(entries, list):
        errors.append((None, "pinpoints must be a list"))
    else:
        for i, e in enumerate(entries):
            if not isinstance(e, dict):
                fail(i, "an entry must be a JSON object")
    if errors:
        return doc, errors

    seen_keys = set()
    for i, e in enumerate(doc["pinpoints"]):
        key = e.get("key")
        if not key or not isinstance(key, str):
            fail(i, "missing key")
            continue
        if key in seen_keys:
            fail(i, f"duplicate key {key!r}")
        seen_keys.add(key)
        trivial = e.get("is_trivial")
        if trivial not in ("yes", "no"):
            fail(i, "is_trivial must be yes/no")
        order = e.get("order")
        if not (order in ("infinite", "unknown")
                or _is_int(order) and order >= 1):
            fail(i, "order must be a positive integer, "
                    f"'infinite' or 'unknown', not {order!r}")
        elif trivial == "yes" and order not in (1, "unknown"):
            fail(i, "a trivial group has order 1")
        if not _cited(e):
            fail(i, "missing citation")

    return doc, errors


# -- default instance ------------------------------------------------------

_default: FactBase | None = None


def get_factbase() -> FactBase:
    """The process-wide fact base, loaded once (NIELSEN_FACTBASE honored)."""
    global _default
    if _default is None:
        _default = FactBase.load()
    return _default


def set_factbase(fb: FactBase | None) -> None:
    """Install a fact base explicitly (None resets to lazy default)."""
    global _default
    _default = fb


def pinpoint(key: str) -> PinpointGroupFact | None:
    return get_factbase().pinpoint(key)
