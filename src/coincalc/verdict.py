"""Three-valued facts, extended-natural verdicts, and invariant bundles.

Every family engine answers through these types: a Fact is a Yes/No/Unknown
proposition with the id of the rule that derived it, a Verdict is a
finite/infinite/unknown count with a justification trace of registered rule
identifiers, and an InvariantBundle collects the seven invariants of one
pair of maps.
"""

from __future__ import annotations

import enum
from operator import attrgetter
from typing import Iterable

from .errors import DescriptorError
from .rules import REGISTRY


class Truth(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


def truth_and(a: Truth, b: Truth) -> Truth:
    # strong Kleene: No dominates, Unknown absorbs Yes
    if a is Truth.NO or b is Truth.NO:
        return Truth.NO
    if a is Truth.UNKNOWN or b is Truth.UNKNOWN:
        return Truth.UNKNOWN
    return Truth.YES


def truth_not(a: Truth) -> Truth:
    if a is Truth.YES:
        return Truth.NO
    if a is Truth.NO:
        return Truth.YES
    return Truth.UNKNOWN


_set = object.__setattr__  # how a record's __init__ fills its slots


def _frozen(verb: str, name: str):
    from dataclasses import FrozenInstanceError  # only a misuse pays for it
    raise FrozenInstanceError(f"cannot {verb} field {name!r}")


class Record:
    """An immutable record of the fields named in ``__slots__``, which its
    ``__init__`` fills with ``_set``.  It compares, hashes, shows, copies
    and pickles as a frozen dataclass of those fields would, but no code is
    generated for it when its module is imported."""

    __slots__ = ()

    def __init_subclass__(cls):
        # _values: the field values as one tuple, read in C; every record
        # has two fields or more, for which attrgetter returns a tuple
        cls._values = property(attrgetter(*cls.__slots__))

    def __setattr__(self, name, value):
        _frozen("assign to", name)

    def __delattr__(self, name):
        _frozen("delete", name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join([f"{name}={value!r}" for name, value
                            in zip(self.__slots__, self._values)])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values


class Fact(Record):
    """A truth value and the id of the registered rule that derived it, or
    "" for a value the user supplied."""

    __slots__ = ("truth", "rule")

    def __init__(self, truth: Truth, rule: str):
        _set(self, "truth", truth)
        _set(self, "rule", rule)
        if rule and rule not in REGISTRY:
            raise KeyError(f"unregistered rule identifier: {rule!r}")

    def is_yes(self) -> bool:
        return self.truth is Truth.YES

    def is_no(self) -> bool:
        return self.truth is Truth.NO

    def is_unknown(self) -> bool:
        return self.truth is Truth.UNKNOWN


def yes(rule: str) -> Fact:
    return Fact(Truth.YES, rule)


def no(rule: str) -> Fact:
    return Fact(Truth.NO, rule)


def unknown_fact(rule: str = "") -> Fact:
    if not rule:
        return _USER_FACTS["unknown"]
    return Fact(Truth.UNKNOWN, rule)


# the three user facts; facts are immutable, so every answer shares them
_USER_FACTS = {t.value: Fact(t, "") for t in Truth}


def user_fact(text: str) -> Fact:
    try:
        return _USER_FACTS[text]
    except (KeyError, TypeError):  # TypeError: unhashable input
        raise DescriptorError(
            f"truth value must be 'yes', 'no' or 'unknown', got {text!r}"
        ) from None


def rule_facts(rule_id: str) -> dict[Truth, Fact]:
    """The three facts a rule can derive, one per truth value."""
    return {t: Fact(t, rule_id) for t in Truth}


def forced(fact: Fact, derived: Fact, message: str) -> Fact:
    """A fact that the setting forces to hold: ``fact`` when it is Yes,
    ``derived`` when it is Unknown; a No contradicts the setting and raises
    DescriptorError(message)."""
    if fact.truth is Truth.NO:
        raise DescriptorError(message)
    return derived if fact.truth is Truth.UNKNOWN else fact


class Special(enum.Enum):
    INFINITE = "infinite"
    UNKNOWN = "unknown"


INFINITE = Special.INFINITE
UNKNOWN = Special.UNKNOWN

# an extended natural is an int >= 0, INFINITE, or UNKNOWN
ExtNat = int | Special


def ext_le(a: ExtNat, b: ExtNat) -> bool:
    """a <= b for known extended naturals (INFINITE is the top element)."""
    if a is UNKNOWN or b is UNKNOWN:
        raise ValueError("cannot compare unknown values")
    if b is INFINITE:
        return True
    if a is INFINITE:
        return False
    return a <= b


class Verdict(Record):
    """An extended-natural answer plus the rule identifiers justifying it.

    Finite and Infinite verdicts must carry a nonempty trace; every trace
    entry must be a registered rule identifier.
    """

    __slots__ = ("value", "trace")

    def __init__(self, value: ExtNat, trace: tuple[str, ...] = ()):
        _set(self, "value", value)
        _set(self, "trace", trace)
        if isinstance(value, bool) or not isinstance(value, (int, Special)):
            raise DescriptorError(f"invalid verdict value {value!r}")
        if isinstance(value, int) and value < 0:
            raise DescriptorError("verdict values are nonnegative")
        if value is not UNKNOWN and not trace:
            raise DescriptorError(
                "a finite or infinite verdict needs a nonempty trace"
            )
        for rule_id in trace:
            if rule_id not in REGISTRY:
                raise KeyError(f"unregistered rule identifier: {rule_id!r}")

    @classmethod
    def finite(cls, value: int, trace: Iterable[str]) -> "Verdict":
        return cls(value, tuple(trace))

    @classmethod
    def infinite(cls, trace: Iterable[str]) -> "Verdict":
        return cls(INFINITE, tuple(trace))

    @classmethod
    def unknown(cls, trace: Iterable[str] = ()) -> "Verdict":
        return cls(UNKNOWN, tuple(trace))

    def known(self) -> bool:
        return self.value is not UNKNOWN


_UNKNOWN_VERDICT = Verdict.unknown()


class InvariantBundle(Record):
    """The seven invariants of one pair of maps, each as a Verdict."""

    __slots__ = ("mc", "mcc", "n_sharp", "n_tilde", "n", "n_z",
                 "reidemeister")

    def __init__(self, mc: Verdict = _UNKNOWN_VERDICT,
                 mcc: Verdict = _UNKNOWN_VERDICT,
                 n_sharp: Verdict = _UNKNOWN_VERDICT,
                 n_tilde: Verdict = _UNKNOWN_VERDICT,
                 n: Verdict = _UNKNOWN_VERDICT,
                 n_z: Verdict = _UNKNOWN_VERDICT,
                 reidemeister: Verdict = _UNKNOWN_VERDICT):
        _set(self, "mc", mc)
        _set(self, "mcc", mcc)
        _set(self, "n_sharp", n_sharp)
        _set(self, "n_tilde", n_tilde)
        _set(self, "n", n)
        _set(self, "n_z", n_z)
        _set(self, "reidemeister", reidemeister)


# bundle fields in decreasing chain order, with display names
CHAIN_FIELDS = (
    ("mc", "MC"),
    ("mcc", "MCC"),
    ("n_sharp", "N#"),
    ("n_tilde", "Ñ"),
    ("n", "N"),
    ("n_z", "N^Z"),
)

ALL_FIELDS = CHAIN_FIELDS + (("reidemeister", "Reidemeister"),)


def validate_bundle(bundle: InvariantBundle, target_dim: int) -> list[str]:
    """Check the inequality chain MC >= MCC >= N# >= Ntilde >= N >= N^Z and,
    for target dimension != 2, MCC <= Reidemeister.  Unknown values are
    vacuously compatible.  Returns one message per violated pair."""
    # <= is a total order on the known values with INFINITE on top, so the
    # chain holds when each known value is <= the known value before it;
    # only a failing bundle pays for the scan over all pairs.  The six reads
    # are CHAIN_FIELDS in chain order, written out because slot reads inline
    # take about half the time of a pass over bundle._values[:6]
    above = INFINITE
    for value in (bundle.mc.value, bundle.mcc.value, bundle.n_sharp.value,
                  bundle.n_tilde.value, bundle.n.value, bundle.n_z.value):
        if value is UNKNOWN:
            continue
        if above is not INFINITE and (value is INFINITE or value > above):
            return _violations(bundle, target_dim)
        above = value
    if target_dim != 2:
        mcc, reid = bundle.mcc.value, bundle.reidemeister.value
        if (mcc is not UNKNOWN and reid is not UNKNOWN
                and not ext_le(mcc, reid)):
            return _violations(bundle, target_dim)
    return []


def _violations(bundle: InvariantBundle, target_dim: int) -> list[str]:
    """validate_bundle's messages, from every pair of the chain in order."""
    violations = []
    for i in range(len(CHAIN_FIELDS)):
        hi_field, hi_name = CHAIN_FIELDS[i]
        hi = getattr(bundle, hi_field)
        if not hi.known():
            continue
        for j in range(i + 1, len(CHAIN_FIELDS)):
            lo_field, lo_name = CHAIN_FIELDS[j]
            lo = getattr(bundle, lo_field)
            if not lo.known():
                continue
            if not ext_le(lo.value, hi.value):
                violations.append(f"Thm3.6(iii): {hi_name} ≥ {lo_name}")
    if target_dim != 2:
        mcc, reid = bundle.mcc, bundle.reidemeister
        if mcc.known() and reid.known() and not ext_le(mcc.value, reid.value):
            violations.append("Thm3.6(iv): MCC ≤ Reidemeister")
    return violations
