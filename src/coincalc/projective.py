"""The seven-case decision table for pairs S^m -> KP(n').

K is the real, complex or quaternionic field (d = 1, 2, 4); the descriptor
facts speak about the canonical lifted classes.  The resolver rejects every
contradiction, naming the clashing facts, so the table never sees one: at
most one of the seven conditions holds, and one does once the facts they
read are known.  The engine answers Unknown while they are not.
"""

from __future__ import annotations

import enum

from .errors import DescriptorError
from .verdict import (
    UNKNOWN,
    Fact,
    InvariantBundle,
    Record,
    Truth,
    Verdict,
    _set,
    forced,
    truth_and,
    truth_not,
    no,
    unknown_fact,
    yes,
)


class ProjectiveField(enum.Enum):
    R = ("R", 1)
    C = ("C", 2)
    H = ("H", 4)

    def __init__(self, letter: str, d: int):
        self.letter = letter
        self.d = d

    @classmethod
    def from_str(cls, text: str) -> "ProjectiveField":
        try:
            return _FIELDS[text]
        except (KeyError, TypeError):  # TypeError: unhashable input
            raise DescriptorError(
                "field must be one of 'R', 'C', 'H'") from None


_FIELDS = {field.letter: field for field in ProjectiveField}


class ProjectivePairDescriptor(Record):
    __slots__ = ("field", "n_prime", "m", "fprime_homotopic",
                 "lift2_in_ker_del", "lift2_in_ker_Edel",
                 "lift2_antipodal_selfhomotopic",
                 "lifts_differ_by_suspension", "lifts_equal")

    def __init__(
        self, field: ProjectiveField, n_prime: int, m: int,
        fprime_homotopic: Fact = unknown_fact(),  # f1' ~ f2', base point free
        lift2_in_ker_del: Fact = unknown_fact(),  # lift killed by boundary
        lift2_in_ker_Edel: Fact = unknown_fact(),  # killed after suspension
        lift2_antipodal_selfhomotopic: Fact = unknown_fact(),  # R only
        lifts_differ_by_suspension: Fact = unknown_fact(),  # R only
        lifts_equal: Fact = unknown_fact(),  # C/H only
    ):
        _set(self, "field", field)
        _set(self, "n_prime", n_prime)
        _set(self, "m", m)
        _set(self, "fprime_homotopic", fprime_homotopic)
        _set(self, "lift2_in_ker_del", lift2_in_ker_del)
        _set(self, "lift2_in_ker_Edel", lift2_in_ker_Edel)
        _set(self, "lift2_antipodal_selfhomotopic",
             lift2_antipodal_selfhomotopic)
        _set(self, "lifts_differ_by_suspension", lifts_differ_by_suspension)
        _set(self, "lifts_equal", lifts_equal)
        if n_prime < 2:
            raise DescriptorError(
                "n' >= 2 required; projective lines are spheres, use the "
                "sphere engine"
            )
        if m < 2:
            raise DescriptorError("m >= 2 required")

    @property
    def n(self) -> int:
        """Real dimension of the target."""
        return self.n_prime * self.field.d


_YES_45, _NO_45 = yes("Thm4.5"), no("Thm4.5")


def _sync(name_a, a: Fact, name_b, b: Fact):
    """Two facts that must agree: derive the unknown one, reject conflicts."""
    if a.is_unknown() and not b.is_unknown():
        return (_YES_45 if b.is_yes() else _NO_45), b
    if b.is_unknown() and not a.is_unknown():
        return a, (_YES_45 if a.is_yes() else _NO_45)
    if not a.is_unknown() and a.truth is not b.truth:
        raise DescriptorError(f"{name_a} and {name_b} must agree")
    return a, b


def _resolve(d: ProjectivePairDescriptor):
    """The facts fprime_homotopic, lift2_in_ker_del, lift2_in_ker_Edel,
    lift2_antipodal_selfhomotopic and lifts_equal after the derivations
    of Thm 4.5; a descriptor that contradicts a forced fact, or gives two
    facts that must agree different values, raises DescriptorError."""
    kd, ked = d.lift2_in_ker_del, d.lift2_in_ker_Edel
    if kd.is_yes():
        ked = forced(
            ked, _YES_45,
            "lift2_in_ker_del = yes forces lift2_in_ker_Edel = yes "
            "(the kernel of the boundary sits inside the kernel of "
            "its suspension)")

    fprime = d.fprime_homotopic
    anti = d.lift2_antipodal_selfhomotopic
    lifts_equal = d.lifts_equal
    if d.field is ProjectiveField.R:
        # antipodal self-homotopy of the lift is detected by the suspended
        # boundary, so the two facts carry the same information
        anti, ked = _sync("lift2_antipodal_selfhomotopic", anti,
                          "lift2_in_ker_Edel", ked)
    else:
        # downstairs homotopy is equivalent to equality of the lifts
        lifts_equal, fprime = _sync("lifts_equal", lifts_equal,
                                    "fprime_homotopic", fprime)
    return fprime, kd, ked, anti, lifts_equal


def _row_conditions(d: ProjectivePairDescriptor) -> dict[int, Truth]:
    fprime, kd, ked, anti, lifts_equal = _resolve(d)
    f, kd, ked = fprime.truth, kd.truth, ked.truth
    conds = {
        1: truth_and(f, kd),
        2: truth_and(truth_and(f, ked), truth_not(kd)),
    }
    if d.field is ProjectiveField.R:
        susp = d.lifts_differ_by_suspension.truth
        conds[3] = truth_and(f, truth_not(anti.truth))
        conds[4] = truth_and(truth_not(f), susp)
        conds[5] = truth_and(truth_not(f), truth_not(susp))
    else:
        eq = lifts_equal.truth
        conds[6] = truth_and(eq, truth_not(ked))
        conds[7] = truth_not(eq)
    return conds


def projective_classify(d: ProjectivePairDescriptor):
    """The matching row 1..7, or Special.UNKNOWN while the discriminating
    facts are unknown.  The row conditions of resolved facts are pairwise
    exclusive and one of them holds once the facts it reads are known, so
    the first row that holds is the only one (tests/test_projective.py
    checks this over every fact assignment)."""
    for row, truth in _row_conditions(d).items():
        if truth is Truth.YES:
            return row
    return UNKNOWN


# (N#, MCC, MC) per row; None marks an infinite MC
_ROW_TRIPLES = {
    1: (0, 0, 0),
    2: (0, 1, 1),
    3: (1, 1, 1),
    4: (2, 2, 2),
    5: (2, 2, None),
    6: (1, 1, 1),
    7: (1, 1, None),
}


# the Reidemeister number, for a real target (True) and otherwise
_REIDEMEISTER = {True: Verdict.finite(2, ("Reid3.5",)),
                 False: Verdict.finite(1, ("Reid3.5",))}
_PENDING = Verdict.unknown(("Prop7.2-valueset",))
_UNCLASSIFIED = Verdict.unknown(("Thm4.5",))


def _row_bundle(reid: Verdict, row) -> InvariantBundle:
    pending = _PENDING
    if row is UNKNOWN:
        u = _UNCLASSIFIED
        return InvariantBundle(mc=u, mcc=u, n_sharp=u, n_tilde=pending,
                               n=pending, n_z=pending, reidemeister=reid)

    n_sharp_v, mcc_v, mc_v = _ROW_TRIPLES[row]
    trace = ("Thm4.5", f"Table4.7-row{row}")
    mc = (Verdict.infinite(trace) if mc_v is None
          else Verdict.finite(mc_v, trace))
    return InvariantBundle(
        mc=mc,
        mcc=Verdict.finite(mcc_v, trace),
        n_sharp=Verdict.finite(n_sharp_v, trace),
        n_tilde=pending, n=pending, n_z=pending,
        reidemeister=reid,
    )


# the answer for each outcome of the table, keyed by real target first
_BUNDLES = {
    real: {row: _row_bundle(reid, row) for row in (*_ROW_TRIPLES, UNKNOWN)}
    for real, reid in _REIDEMEISTER.items()
}


def projective_invariants(d: ProjectivePairDescriptor) -> InvariantBundle:
    return _BUNDLES[d.field is ProjectiveField.R][projective_classify(d)]


_PROP114_YES = yes("Prop1.14")
_PROP114_UNKNOWN = unknown_fact("Prop1.14")


def del_vanishes_by_dimension(field: ProjectiveField, n_prime: int) -> Fact:
    """Vanishing criterion for the boundary homomorphism of KP(n'): Yes
    exactly when n = n'd is not divisible by 2d, i.e. when n' is odd.
    The criterion never proves nonvanishing, so the alternative is Unknown."""
    if n_prime < 1:
        raise DescriptorError("n' must be >= 1")
    if (n_prime * field.d) % (2 * field.d):
        return _PROP114_YES
    return _PROP114_UNKNOWN
