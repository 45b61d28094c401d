"""Decision engine for the Wecken condition, the necessary restrictions
for a nonzero selfcoincidence N#, and the fixed point Wecken dichotomy.

The Wecken condition for (m, N) asks that the boundary image in the
homotopy of the fiber sphere meets the suspension kernel trivially; it is
covering-invariant, so sphere and spherical-space-form targets are decided
from (m, n) alone.  Dispatch is first-match over the registered rules
R1..R7, and each query checks that all the rules it fires agree; R8 is
the honest fallback Unknown.
"""

from __future__ import annotations

import enum

from .errors import ConsistencyError, DescriptorError
from .tables import KervaireStatus, kervaire_status, pinpoint
from .verdict import (
    INFINITE,
    Fact,
    Record,
    Truth,
    _set,
    no,
    rule_facts,
    unknown_fact,
    yes,
)


class TargetFamily(enum.Enum):
    SPHERE = "Sphere"
    SPACE_FORM = "SphericalSpaceForm"
    GENERAL = "GeneralN"

    @classmethod
    def from_str(cls, text: str) -> "TargetFamily":
        try:
            return _TARGET_FAMILIES[text]
        except (KeyError, TypeError):  # TypeError: unhashable input
            raise DescriptorError(
                "target_family must be 'Sphere', 'SphericalSpaceForm' or "
                "'GeneralN'"
            ) from None


_TARGET_FAMILIES = {family.value: family for family in TargetFamily}


class WeckenQuery(Record):
    __slots__ = ("m", "n", "target_family", "noncompact_or_chi_zero")

    def __init__(self, m: int, n: int,
                 target_family: TargetFamily = TargetFamily.SPHERE,
                 noncompact_or_chi_zero: Fact = unknown_fact()):  # GeneralN
        _set(self, "m", m)
        _set(self, "n", n)
        _set(self, "target_family", target_family)
        _set(self, "noncompact_or_chi_zero", noncompact_or_chi_zero)
        if m < 1 or n < 1:
            raise DescriptorError("dimensions must be >= 1")


# R5 on sphere-covered targets, by the status of order-two
# Kervaire-invariant-one elements in stem 2n-2
_R5_SPHERE_COVERED = {
    KervaireStatus.EXISTS_ORDER_TWO_KERVAIRE_ONE: Truth.NO,
    KervaireStatus.OPEN: Truth.UNKNOWN,
    KervaireStatus.NONE_EXISTS: Truth.YES,
}


def _rules_fired(q: WeckenQuery) -> list[tuple[str, Truth]]:
    """All rules that fire on the query, as (rule id, verdict) pairs.

    Rules whose justification lives on the sphere (boundary computations
    through the tangent sphere bundle of S^n) apply to sphere-covered
    targets only; rules that merely need the suspension kernel to vanish
    apply to every target.
    """
    m, n = q.m, q.n
    covered = q.target_family is not TargetFamily.GENERAL
    fired: list[tuple[str, Truth]] = []

    if n % 2 == 1 or (q.target_family is TargetFamily.GENERAL
                      and q.noncompact_or_chi_zero.is_yes()):
        fired.append(("R1", Truth.YES))
    if m < 2 * n - 2:
        fired.append(("R2", Truth.YES))
    if m <= n + 4:
        if (m, n) != (10, 6):
            fired.append(("R3", Truth.YES))
        elif covered:
            entry = pinpoint("pi_10_S^6")
            if entry is not None and entry.is_trivial:
                fired.append(("R3", Truth.YES))
    if m == n + 5:
        if m != 11:
            fired.append(("R4", Truth.YES))
        elif covered:
            fired.append(("R4", Truth.NO))
    if m == 2 * n - 2 and n % 2 == 0:
        status = kervaire_status(n)
        if status is KervaireStatus.KERNEL_E_ZERO:
            fired.append(("R5", Truth.YES))  # suspension kernel is trivial
        elif covered:
            fired.append(("R5", _R5_SPHERE_COVERED[status]))
    if m == 2 * n - 1 and covered:
        if n % 4 == 2 and n >= 6:
            fired.append(("R6", Truth.NO))
        else:
            fired.append(("R6", Truth.YES))
    if m in (2 * n + 2, 2 * n + 3) and n not in (4, 6) and covered:
        fired.append(("R7", Truth.YES))
    return fired


def _clash(fired: list[tuple[str, Truth]]) -> str | None:
    """The fired rules as "R2=yes, R4=no" when their verdicts differ."""
    if len({t for _, t in fired}) > 1:
        return ", ".join(f"{r}={t.value}" for r, t in fired)
    return None


def overlap_disagreements() -> list[str]:
    """Scan the (m, n) grid up to 64 for overlapping rules that disagree."""
    problems = []
    for n in range(1, 65):
        for m in range(1, 65):
            q = WeckenQuery(m, n, TargetFamily.SPHERE)
            clash = _clash(_rules_fired(q))
            if clash:
                problems.append(f"(m={m}, n={n}): {clash}")
    return problems


# the facts R1..R7 can answer with, by rule and truth value; R8 is Unknown
_RULE_FACTS = {f"R{i}": rule_facts(f"R{i}") for i in range(1, 8)}
_R8_UNKNOWN = unknown_fact("R8")


def wecken_condition(q: WeckenQuery) -> Fact:
    """First-match dispatch over R1..R7; R8 (Unknown) when nothing fires.
    Raises ConsistencyError when the rules that fire disagree."""
    fired = _rules_fired(q)
    if not fired:
        return _R8_UNKNOWN
    clash = _clash(fired)
    if clash:
        raise ConsistencyError(
            f"overlapping Wecken rules disagree: (m={q.m}, n={q.n}): {clash}")
    rule_id, truth = fired[0]
    return _RULE_FACTS[rule_id][truth]


_NO_THM133A = no("Thm1.33a")
_NO_THM133B = no("Thm1.33b")
_NO_THM133C = no("Thm1.33c")
_NO_THM133D = no("Thm1.33d")
_UNKNOWN_THM133 = unknown_fact("Thm1.33")


def nsharp_restrictions(
    n: int,
    m: int,
    pi1_size: int | object,
    orientable: Fact,
    closed: bool,
    chi_zero: Fact,
    e_del_nonzero: Fact,
    no_loose_selfmap_and_i_not_onto: Fact = unknown_fact(),
) -> Fact:
    """Can N#(f, f) be nonzero for maps S^m -> N?  Answers No when one of
    the necessary restrictions fails and Unknown otherwise; the restrictions
    are necessary but not sufficient, so Yes is never emitted."""
    # (a) dimension parity
    dims_ok = (n % 2 == 0 and m >= n >= 4) or (m == 2 and n == 2)
    if not dims_ok:
        return _NO_THM133A
    # (b) fundamental group
    if pi1_size is INFINITE or (isinstance(pi1_size, int) and pi1_size >= 3):
        return _NO_THM133B
    if pi1_size == 2 and orientable.is_yes():
        return _NO_THM133B
    # (c) closed target with nonzero Euler characteristic and E o del != 0
    if not closed or chi_zero.is_yes() or e_del_nonzero.is_no():
        return _NO_THM133C
    # (d) caller-supplied
    if no_loose_selfmap_and_i_not_onto.is_no():
        return _NO_THM133D
    return _UNKNOWN_THM133


_YES_EX39, _NO_EX39 = yes("Ex3.9"), no("Ex3.9")


def fixed_point_wecken(dim: int, chi: int) -> Fact:
    """Classical fixed point theory: the minimum number of fixed points
    equals the Nielsen number for every selfmap iff the manifold is not a
    surface of strictly negative Euler characteristic."""
    if dim < 1:
        raise DescriptorError("dimension must be >= 1")
    if dim == 2 and chi < 0:
        return _NO_EX39
    return _YES_EX39
