"""The homotopy/bordism fact base.

Mathematical content lives in a versioned JSON file (one entry per line,
each with a citation); this module only loads it, lints it, and exposes the
closed-form divisibility rules the engines rely on.  The runtime never infers
new group structures: a query outside the tabulated range comes back as an
out-of-range marker or an Unknown fact, never a fabricated value.

File schema: see docs/factbase.md.  The bundled file can be overridden with
the NIELSEN_FACTBASE environment variable or the CLI.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass

from .errors import DescriptorError, FactBaseError
from .verdict import (
    INFINITE,
    UNKNOWN,
    ExtNat,
    Fact,
    Provenance,
    Truth,
    no,
    unknown_fact,
    yes,
)

@dataclass(frozen=True)
class StableStemEntry:
    k: int
    order: ExtNat  # cardinality of the k-th stable stem
    exponent_divides_two: Fact  # is 2x = 0 for every element?
    structure: str
    citation: str


@dataclass(frozen=True)
class FramedSOEntry:
    k: int
    stem: int  # k(k-1)/2
    order_of_class: ExtNat  # order of the invariantly framed SO(k)
    citation: str
    note: str | None = None


class KervaireStatus(enum.Enum):
    KERNEL_E_ZERO = "kernel_E_zero"  # n = 2, 4, 8
    EXISTS_ORDER_TWO_KERVAIRE_ONE = "exists_order_two_kervaire_one"
    NONE_EXISTS = "none_exists"
    OPEN = "open"  # n = 128


@dataclass(frozen=True)
class KervaireEntry:
    n: int
    status: KervaireStatus
    citation: str


@dataclass(frozen=True)
class PinpointGroupFact:
    key: str
    is_trivial: Fact
    order: ExtNat
    extra: str | None
    citation: str


def _ext_nat(raw, *, allow_unknown=False):
    if raw == "infinite":
        return INFINITE
    if raw == "unknown" and allow_unknown:
        return UNKNOWN
    if isinstance(raw, int) and not isinstance(raw, bool) and raw >= 1:
        return raw
    raise ValueError(f"expected a positive integer or marker, got {raw!r}")


class FactBase:
    """Immutable-after-load view of the fact file."""

    def __init__(self, version: str, stems, framed_so, pinpoints):
        self.version = version
        self._stems = {e.k: e for e in stems}
        self._framed_so = {e.k: e for e in framed_so}
        self._pinpoints = {e.key: e for e in pinpoints}

    # -- loading -----------------------------------------------------------

    @classmethod
    def bundled_path(cls) -> str:
        return os.path.join(os.path.dirname(__file__), "data", "factbase.json")

    @classmethod
    def default_path(cls) -> str:
        return os.environ.get("NIELSEN_FACTBASE") or cls.bundled_path()

    @classmethod
    def load(cls, path: str | None = None) -> "FactBase":
        path = path or cls.default_path()
        with open(path, encoding="utf-8") as handle:
            raw = handle.read()
        return cls.from_text(raw)

    @classmethod
    def from_text(cls, raw: str) -> "FactBase":
        errors = lint_text(raw)
        if errors:
            raise FactBaseError(errors)
        doc = json.loads(raw)
        stems = [
            StableStemEntry(
                k=e["k"],
                order=_ext_nat(e["order"]),
                exponent_divides_two=Fact(
                    Truth.from_str(e["exponent_divides_two"]),
                    Provenance.table(f"stem:{e['k']}"),
                ),
                structure=e["structure"],
                citation=e["citation"],
            )
            for e in doc["stable_stems"]
        ]
        framed = [
            FramedSOEntry(
                k=e["k"],
                stem=e["stem"],
                order_of_class=_ext_nat(e["order_of_class"],
                                        allow_unknown=True),
                citation=e["citation"],
                note=e.get("note"),
            )
            for e in doc["framed_so"]
        ]
        pinpoints = [
            PinpointGroupFact(
                key=e["key"],
                is_trivial=Fact(
                    Truth.from_str(e["is_trivial"]),
                    Provenance.table(f"pinpoint:{e['key']}"),
                ),
                order=_ext_nat(e["order"], allow_unknown=True),
                extra=e.get("extra"),
                citation=e["citation"],
            )
            for e in doc["pinpoints"]
        ]
        return cls(doc["version"], stems, framed, pinpoints)

    # -- queries -----------------------------------------------------------

    def stable_stem(self, k: int) -> StableStemEntry | None:
        """Tabulated entry for the k-th stable stem; None beyond the table."""
        if k < 0:
            raise DescriptorError("stem index must be nonnegative")
        return self._stems.get(k)

    def framed_so(self, k: int) -> FramedSOEntry | None:
        if k < 1:
            raise DescriptorError("frame count must be >= 1")
        return self._framed_so.get(k)

    def pinpoint(self, key: str) -> PinpointGroupFact | None:
        """Exact tabulated fact about one named homotopy group, or None."""
        return self._pinpoints.get(key)

    def two_chi_so_vanishes(self, k: int, chi: int) -> Fact:
        """Does 2 * chi * [SO(k)] vanish in the stable stem k(k-1)/2?

        Closed-form rules only; odd k >= 11 stays Unknown because the order
        of the framed class is an open problem there.  The answer is one of
        TWO_CHI_FACTS.
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

    def kervaire_status(self, n: int) -> KervaireEntry:
        """Status of order-two Kervaire-invariant-one elements for even n."""
        if n < 2 or n % 2:
            raise DescriptorError("Kervaire status is defined for even n >= 2")
        entry = _KERVAIRE_ENTRIES.get(n)
        if entry is not None:
            return entry
        if n & (n - 1):
            return KervaireEntry(n, KervaireStatus.NONE_EXISTS,
                                 "Browder: n is not a power of two")
        return KervaireEntry(n, KervaireStatus.NONE_EXISTS,
                             "Hill-Hopkins-Ravenel: n > 128")


# the answers of two_chi_so_vanishes, one fact per rule and truth value
_CHI_ZERO = yes(Provenance.rule("chi-zero"))
_SO1_INFINITE = no(Provenance.rule("SO1-infinite"))
_TWO_SO_EVEN = yes(Provenance.rule("2SOeven"))
_SO_NULLBORDANT = yes(Provenance.rule("SO-nullbordant"))
_TWENTY_FOUR_SO = yes(Provenance.rule("24SO"))
_SO3_ORDER12_YES = yes(Provenance.rule("SO3-order12"))
_SO3_ORDER12_NO = no(Provenance.rule("SO3-order12"))
_SO5_ORDER3_YES = yes(Provenance.rule("SO5-order3"))
_SO5_ORDER3_NO = no(Provenance.rule("SO5-order3"))
_SO_ORDER_OPEN = unknown_fact(Provenance.rule("SO-order-open"))
TWO_CHI_FACTS = (_CHI_ZERO, _SO1_INFINITE, _TWO_SO_EVEN, _SO_NULLBORDANT,
                 _TWENTY_FOUR_SO, _SO3_ORDER12_YES, _SO3_ORDER12_NO,
                 _SO5_ORDER3_YES, _SO5_ORDER3_NO, _SO_ORDER_OPEN)

# kervaire_status for the n that are not settled by Browder or HHR
_KERVAIRE_ENTRIES = {
    n: KervaireEntry(n, status, citation)
    for ns, status, citation in (
        ((2, 4, 8), KervaireStatus.KERNEL_E_ZERO, "Adams: Hopf invariant one"),
        ((16, 32, 64), KervaireStatus.EXISTS_ORDER_TWO_KERVAIRE_ONE,
         "order-two Kervaire-one elements in stems 30, 62, 126"),
        ((128,), KervaireStatus.OPEN, "stem 254 remains open"),
    )
    for n in ns
}


# -- linter ---------------------------------------------------------------


def _entry_line_numbers(raw: str, section: str) -> list[int | None]:
    """1-based line numbers of the one-per-line entries of a section.

    Works for the shipped layout (every entry object on its own line);
    degrades to None entries for free-form files.
    """
    lines = raw.splitlines()
    start = None
    for idx, line in enumerate(lines):
        if f'"{section}"' in line:
            start = idx + 1
            break
    if start is None:
        return []
    numbers: list[int | None] = []
    for idx in range(start, len(lines)):
        stripped = lines[idx].strip()
        if stripped.startswith("{"):
            numbers.append(idx + 1)
        elif stripped.startswith("]"):
            break
    return numbers


def lint_text(raw: str) -> list[tuple[int | None, str]]:
    """All lint violations in a fact file, each with a line number when the
    offending entry can be located.  Empty list means the file is clean."""
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        return [(exc.lineno, f"not valid JSON: {exc.msg}")]

    errors: list[tuple[int | None, str]] = []

    def fail(section, index, message):
        numbers = _entry_line_numbers(raw, section)
        line = numbers[index] if index < len(numbers) else None
        errors.append((line, f"{section}[{index}]: {message}"))

    for key in ("version", "stable_stems", "framed_so", "pinpoints"):
        if key not in doc:
            errors.append((None, f"missing top-level key {key!r}"))
    if errors:
        return errors

    seen_k = set()
    for i, e in enumerate(doc["stable_stems"]):
        k = e.get("k")
        if not isinstance(k, int) or k < 0:
            fail("stable_stems", i, "k must be a nonnegative integer")
            continue
        if k in seen_k:
            fail("stable_stems", i, f"duplicate stem {k}")
        seen_k.add(k)
        order = e.get("order")
        if order == "infinite":
            if k != 0:
                fail("stable_stems", i,
                     "order may be infinite only for stem 0")
        elif not isinstance(order, int) or order < 1:
            fail("stable_stems", i, f"bad order {order!r}")
        elif k == 0:
            fail("stable_stems", i, "stem 0 must have infinite order")
        if e.get("exponent_divides_two") not in ("yes", "no"):
            fail("stable_stems", i, "exponent_divides_two must be yes/no")
        if not e.get("citation"):
            fail("stable_stems", i, "missing citation")
    missing = set(range(20)) - seen_k
    if missing:
        errors.append((None,
                       f"stable stems 0..19 required; missing {sorted(missing)}"))

    seen_k = set()
    for i, e in enumerate(doc["framed_so"]):
        k = e.get("k")
        if not isinstance(k, int) or k < 1:
            fail("framed_so", i, "k must be a positive integer")
            continue
        if k in seen_k:
            fail("framed_so", i, f"duplicate frame count {k}")
        seen_k.add(k)
        if e.get("stem") != k * (k - 1) // 2:
            fail("framed_so", i, f"stem must be k(k-1)/2 = {k * (k - 1) // 2}")
        order = e.get("order_of_class")
        if order == "infinite":
            if k != 1:
                fail("framed_so", i,
                     "only the framed point SO(1) has infinite order")
        elif order == "unknown":
            pass
        elif not isinstance(order, int) or order < 1:
            fail("framed_so", i, f"bad order_of_class {order!r}")
        else:
            if k >= 2 and 24 % order:
                fail("framed_so", i,
                     f"order_of_class {order} does not divide 24")
            if k >= 2 and k % 2 == 0 and 2 % order:
                fail("framed_so", i,
                     f"k even: order_of_class {order} does not divide 2")
        if not e.get("citation"):
            fail("framed_so", i, "missing citation")

    seen_keys = set()
    for i, e in enumerate(doc["pinpoints"]):
        key = e.get("key")
        if not key or not isinstance(key, str):
            fail("pinpoints", i, "missing key")
            continue
        if key in seen_keys:
            fail("pinpoints", i, f"duplicate key {key!r}")
        seen_keys.add(key)
        if e.get("is_trivial") not in ("yes", "no"):
            fail("pinpoints", i, "is_trivial must be yes/no")
        order = e.get("order")
        if e.get("is_trivial") == "yes" and order not in (1, "unknown"):
            fail("pinpoints", i, "a trivial group has order 1")
        if not e.get("citation"):
            fail("pinpoints", i, "missing citation")

    return errors


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


def stable_stem(k: int) -> StableStemEntry | None:
    return get_factbase().stable_stem(k)


def two_chi_so_vanishes(k: int, chi: int) -> Fact:
    return get_factbase().two_chi_so_vanishes(k, chi)


def kervaire_status(n: int) -> KervaireEntry:
    return get_factbase().kervaire_status(n)


def pinpoint(key: str) -> PinpointGroupFact | None:
    return get_factbase().pinpoint(key)
