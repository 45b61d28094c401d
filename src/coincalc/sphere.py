"""All seven invariants for pairs of maps between spheres.

A pair S^m -> S^n is described either by the two mapping degrees (only
meaningful for m = n) or by four homotopy-theoretic facts about the
difference class: whether it vanishes, whether it desuspends, and whether
its stabilized suspension / stabilized Hopf-James invariants are nonzero.
The engine never decides those memberships itself; they are exactly the
hard inputs.
"""

from __future__ import annotations

from .errors import DescriptorError
from .verdict import (
    Fact,
    InvariantBundle,
    Record,
    Truth,
    Verdict,
    _set,
    forced,
    no,
    unknown_fact,
    yes,
)


class SphereClassDescriptor(Record):
    """Pair of maps S^m -> S^n, reduced to the difference class.

    ``degrees`` holds (d1, d2) and is required exactly when m = n; the
    difference class is then d1 - (-1)^(n+1) * d2 (the antipodal map has
    degree (-1)^(n+1)).  Otherwise the four facts describe the class
    [f] = [f1'] - [a o f2'].
    """

    __slots__ = ("m", "n", "degrees", "f1_homotopic_a_f2",
                 "in_suspension_image", "stable_suspension_nonzero",
                 "some_stable_hopf_james_nonzero")

    def __init__(self, m: int, n: int,
                 degrees: tuple[int, int] | None = None,
                 f1_homotopic_a_f2: Fact = unknown_fact(),
                 in_suspension_image: Fact = unknown_fact(),
                 stable_suspension_nonzero: Fact = unknown_fact(),
                 some_stable_hopf_james_nonzero: Fact = unknown_fact()):
        _set(self, "m", m)
        _set(self, "n", n)
        _set(self, "degrees", degrees)
        _set(self, "f1_homotopic_a_f2", f1_homotopic_a_f2)
        _set(self, "in_suspension_image", in_suspension_image)
        _set(self, "stable_suspension_nonzero", stable_suspension_nonzero)
        _set(self, "some_stable_hopf_james_nonzero",
             some_stable_hopf_james_nonzero)
        if m < 1 or n < 1:
            raise DescriptorError("sphere dimensions must be >= 1")
        if (degrees is not None) != (m == n):
            raise DescriptorError(
                "degrees are required exactly when m = n "
                "(facts mode covers m != n)"
            )


_YES_17E, _NO_17E = yes("Thm1.7e"), no("Thm1.7e")


def _resolve(d: SphereClassDescriptor):
    """The facts homotopic, in_suspension, stable_nonzero and
    hopf_james_nonzero after the derivations of Thm 1.7, and the degree
    gap |d1 - d2| for m = n = 1 (else None); a descriptor that contradicts
    a forced fact raises DescriptorError."""
    if d.degrees is not None:
        d1, d2 = d.degrees
        antipodal_degree = (-1) ** (d.n + 1)
        vanishes = d1 == antipodal_degree * d2  # the difference class
        nonzero = _NO_17E if vanishes else _YES_17E
        return (_YES_17E if vanishes else _NO_17E, d.in_suspension_image,
                nonzero, nonzero, abs(d1 - d2) if d.n == 1 else None)

    homotopic = d.f1_homotopic_a_f2
    if d.m < d.n or (d.n == 1 and d.m >= 2):
        # pi_m(S^n) = 0 here, so the difference class must vanish
        if not homotopic.is_yes():
            raise DescriptorError(
                "for m < n (and for n = 1 < m) the difference class is "
                "forced to vanish: f1_homotopic_a_f2 must be yes"
            )
    stable = d.stable_suspension_nonzero
    hopf_james = d.some_stable_hopf_james_nonzero
    if stable.is_yes():
        hopf_james = forced(
            hopf_james, _YES_17E,
            "stable_suspension_nonzero = yes forces "
            "some_stable_hopf_james_nonzero = yes (the stabilized "
            "suspension is the first Hopf-James invariant)")
    return homotopic, d.in_suspension_image, stable, hopf_james, None


# the verdicts whose value does not come from the degrees, by rule
_REID_ONE = Verdict.finite(1, ("Thm1.7a",))
_REID_INFINITE = Verdict.infinite(("Thm1.7a",))
_MCC_ZERO = Verdict.finite(0, ("Thm1.7c",))
_MCC_ONE = Verdict.finite(1, ("Thm1.7c",))
_MCC_INFINITE = Verdict.infinite(("Thm1.7c",))
_MCC_UNKNOWN = Verdict.unknown(("Thm1.7c", "needs:f1_homotopic_a_f2"))
_MC_ZERO = Verdict.finite(0, ("Thm1.7b",))
_MC_ONE = Verdict.finite(1, ("Thm1.7b",))
_MC_INFINITE = Verdict.infinite(("Thm1.7b",))
_MC_UNKNOWN = Verdict.unknown(("Thm1.7b", "needs:f1_homotopic_a_f2"))
_MC_NEEDS_SUSPENSION = Verdict.unknown(
    ("Thm1.7b", "needs:in_suspension_image"))
_ALL_ZERO = Verdict.finite(0, ("Thm1.7d",))
_NIELSEN_ZERO = Verdict.finite(0, ("Thm1.7e",))
_NIELSEN_ONE = Verdict.finite(1, ("Thm1.7e",))
_NEEDS_HOPF_JAMES = Verdict.unknown(
    ("Thm1.7e", "needs:some_stable_hopf_james_nonzero"))
_NEEDS_STABLE = Verdict.unknown(
    ("Thm1.7e", "needs:stable_suspension_nonzero"))
_NIELSEN_PENDING = Verdict.unknown(("Thm1.7e", "needs:f1_homotopic_a_f2"))
_NZ_CODIM_ZERO = Verdict.finite(1, ("Ex3.9-derived",))


def sphere_invariants(d: SphereClassDescriptor) -> InvariantBundle:
    homotopic, in_suspension, stable, hopf_james, gap = _resolve(d)
    m, n = d.m, d.n
    hom = homotopic.truth

    # Reidemeister number
    if n >= 2:
        reid = _REID_ONE
    elif m == 1:
        reid = (_REID_INFINITE if gap == 0
                else Verdict.finite(gap, ("Thm1.7a",)))
    else:
        # n = 1 < m: both maps are nullhomotopic
        reid = _REID_INFINITE

    # MCC = N#
    if m == n == 1:
        mcc = Verdict.finite(gap, ("Thm1.7c",))
    elif hom is Truth.YES:
        mcc = _MCC_ZERO
    elif hom is Truth.NO:
        # the Reidemeister number, 1 or (n = 1 < m) infinite
        mcc = _MCC_ONE if n >= 2 else _MCC_INFINITE
    else:
        mcc = _MCC_UNKNOWN
    n_sharp = mcc

    # MC
    if m == n == 1:
        mc = Verdict.finite(gap, ("Thm1.7b",))
    elif hom is Truth.YES:
        mc = _MC_ZERO
    elif hom is Truth.UNKNOWN:
        mc = _MC_UNKNOWN
    elif m == n:  # n >= 2, nonzero class, always a suspension
        mc = _MC_ONE
    else:  # m > n >= 2, nonzero class
        susp = in_suspension.truth
        if susp is Truth.YES:
            mc = _MC_ONE
        elif susp is Truth.NO:
            mc = _MC_INFINITE
        else:
            mc = _MC_NEEDS_SUSPENSION

    # the three weaker Nielsen numbers
    if n == 1 or hom is Truth.YES:
        # all six minimum/Nielsen numbers coincide.  MC is known here: the
        # degree gap on the circle, else 0 (n = 1 < m forces hom = yes)
        equal = Verdict(mc.value, ("Thm1.7d",)) if m == n == 1 else _ALL_ZERO
        n_tilde = n_ = n_z = equal
    elif hom is Truth.NO:
        n_tilde = _one_iff(hopf_james, _NEEDS_HOPF_JAMES)
        n_ = _one_iff(stable, _NEEDS_STABLE)
        n_z = _NIELSEN_ZERO if m > n else _NZ_CODIM_ZERO
    else:
        n_tilde = n_ = n_z = _NIELSEN_PENDING

    return InvariantBundle(mc=mc, mcc=mcc, n_sharp=n_sharp, n_tilde=n_tilde,
                           n=n_, n_z=n_z, reidemeister=reid)


def _one_iff(fact: Fact, unknown: Verdict) -> Verdict:
    if fact.is_yes():
        return _NIELSEN_ONE
    if fact.is_no():
        return _NIELSEN_ZERO
    return unknown
