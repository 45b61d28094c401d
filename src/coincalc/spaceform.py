"""Invariants for maps from spheres to spherical space forms S^n/G.

The descriptor carries the homotopy-theoretic facts about one pair
(f1, f2): whether the maps are (freely) homotopic, whether the boundary
class and its suspension vanish, and in the two critical dimension settings
the Kervaire invariant and the Hopf invariant mod 4 of a lift.  The
descriptor checks that groups of order >= 3 act only on odd spheres.  The
resolver returns the facts each setting forces (odd n forces a vanishing
boundary, a vanishing boundary forces a vanishing suspended boundary) and
rejects contradictions; no engine computes a boundary homomorphism itself.
"""

from __future__ import annotations

from .errors import DescriptorError
from .tables import KervaireStatus, kervaire_status
from .verdict import (
    Fact,
    InvariantBundle,
    Record,
    Truth,
    Verdict,
    _set,
    forced,
    no,
    rule_facts,
    truth_and,
    truth_not,
    unknown_fact,
    yes,
)


class SpaceFormPairDescriptor(Record):
    """Pair of maps S^m -> S^n/G with #G = group_order.

    The boundary facts are lifting-invariant, so they may be supplied for
    the space form or for its sphere cover interchangeably.
    """

    __slots__ = ("m", "n", "group_order", "homotopic", "del_zero",
                 "e_del_zero", "kervaire_one", "hopf_mod4", "in_psE_image")

    def __init__(
        self, m: int, n: int, group_order: int,
        homotopic: Fact = unknown_fact(),
        del_zero: Fact = unknown_fact(),      # boundary class vanishes
        e_del_zero: Fact = unknown_fact(),    # suspended boundary vanishes
        kervaire_one: Fact = unknown_fact(),  # only meaningful for m = 2n-2
        hopf_mod4: int | None = None,         # only meaningful for m = 2n-1
        in_psE_image: Fact = unknown_fact(),  # [f1]-[f2] in p_* E(pi)
    ):
        _set(self, "m", m)
        _set(self, "n", n)
        _set(self, "group_order", group_order)
        _set(self, "homotopic", homotopic)
        _set(self, "del_zero", del_zero)
        _set(self, "e_del_zero", e_del_zero)
        _set(self, "kervaire_one", kervaire_one)
        _set(self, "hopf_mod4", hopf_mod4)
        _set(self, "in_psE_image", in_psE_image)
        if m < 1 or n < 1:
            raise DescriptorError("dimensions must be >= 1")
        if group_order < 1:
            raise DescriptorError("group order must be a positive integer")
        if group_order >= 3 and n % 2 == 0:
            raise DescriptorError(
                "no group of order >= 3 acts freely on an even sphere "
                "(the Euler characteristic of the quotient would not be "
                "an integer multiple)"
            )
        if hopf_mod4 is not None:
            if hopf_mod4 not in (0, 1, 2, 3):
                raise DescriptorError("hopf_mod4 must lie in {0, 1, 2, 3}")
            if hopf_mod4 % 2:
                raise DescriptorError(
                    "the Hopf invariant maps onto 2Z: odd residues mod 4 "
                    "are invalid"
                )


_YES_115 = yes("Thm1.15")
_YES_110 = yes("Thm1.10")
_YES_43 = yes("Prop4.3")


def _resolve(d: SpaceFormPairDescriptor) -> tuple[Fact, Fact, Fact, Fact]:
    """The facts homotopic, del_zero, e_del_zero and in_psE_image after the
    forced derivations of Thm 1.10, Thm 1.15 and Prop 4.3; a descriptor
    that contradicts one of them raises DescriptorError."""
    del_zero = d.del_zero
    if d.n % 2 == 1:
        del_zero = forced(
            del_zero, _YES_115,
            "odd n: the target has zero Euler characteristic, so the "
            "boundary class vanishes; del_zero cannot be no")
    if d.m == 1 or 2 <= d.m < d.n:
        # the boundary homomorphism is zero for m = 1 by convention, and
        # below the target dimension every class already vanishes
        del_zero = forced(
            del_zero, _YES_115,
            "m = 1 or m < n: the boundary class is forced to vanish; "
            "del_zero cannot be no")
    e_del = d.e_del_zero
    if del_zero.is_yes():
        e_del = forced(
            e_del, _YES_115,
            "del_zero = yes forces e_del_zero = yes (suspension of 0)")

    homotopic = d.homotopic
    if 2 <= d.m < d.n:
        homotopic = forced(
            homotopic, _YES_110,
            "2 <= m < n: every map is nullhomotopic, so the pair is "
            "homotopic; homotopic cannot be no")
    in_image = d.in_psE_image
    if homotopic.is_yes():
        in_image = forced(
            in_image, _YES_43,
            "homotopic maps have vanishing class difference, which "
            "lies in every subgroup: in_psE_image cannot be no")
    return homotopic, del_zero, e_del, in_image


_UNDECIDED = Verdict.unknown()
_PENDING = Verdict.unknown(("Prop7.2-valueset",))
_ZERO_110 = Verdict.finite(0, ("Thm1.10",))
_ONE_110 = Verdict.finite(1, ("Thm1.10",))
_NEEDS_DEL = Verdict.unknown(("Thm1.10", "Cor1.19", "needs:del_zero"))
_NEEDS_E_DEL = Verdict.unknown(("Thm1.10", "needs:e_del_zero"))
_NEEDS_HOMOTOPIC = Verdict.unknown(("Thm1.10", "needs:homotopic"))
_EXCEPTION_MCC = Verdict.finite(1, ("Thm1.10", "Cor1.19"))
_EXCEPTION_N_SHARP = Verdict.finite(0, ("Thm1.10", "Cor1.19"))
# MC = MCC in the selfcoincidence setting, for each MCC that setting reaches
_SELF_MC = {
    mcc: (Verdict(mcc.value, ("Thm1.15",)) if mcc.known()
          else Verdict.unknown(("Thm1.15",) + mcc.trace[1:]))
    for mcc in (_EXCEPTION_MCC, _ZERO_110, _ONE_110, _NEEDS_DEL,
                _NEEDS_E_DEL)
}


def spaceform_pair_invariants(d: SpaceFormPairDescriptor) -> InvariantBundle:
    if d.group_order == 1:
        raise DescriptorError(
            "trivial group: the target is a sphere; use the sphere engine"
        )
    if d.n == 1:
        raise DescriptorError(
            "circle space forms are circles; use the sphere engine"
        )
    hom, del_zero, e_del, in_image = _resolve(d)

    if d.m >= 2:
        reid = Verdict.finite(d.group_order, ("Thm1.10",))
    else:
        reid = _UNDECIDED

    exception = (hom.is_yes() and del_zero.is_no() and e_del.is_yes())
    if exception:
        from .wecken import TargetFamily, WeckenQuery, wecken_condition

        certificate = wecken_condition(
            WeckenQuery(d.m, d.n, TargetFamily.SPACE_FORM))
        if certificate.is_yes():
            raise DescriptorError(
                f"facts claim a nonzero boundary class with vanishing "
                f"suspension, but the Wecken condition is certified at "
                f"(m, n) = ({d.m}, {d.n}); no such class exists"
            )
        # loose upstairs but coincidence producing downstairs
        mcc, n_sharp = _EXCEPTION_MCC, _EXCEPTION_N_SHARP
    elif hom.is_yes():
        if e_del.is_yes():
            if del_zero.is_yes():
                mcc = n_sharp = _ZERO_110
            else:  # del_zero unknown: N# is settled, MCC is not
                n_sharp = _ZERO_110
                mcc = _NEEDS_DEL
        elif e_del.is_no():
            mcc = n_sharp = _ONE_110
        else:
            mcc = n_sharp = _NEEDS_E_DEL
    elif hom.is_no():
        if d.m < d.n:
            mcc = n_sharp = _ZERO_110
        else:  # the group order, as the Reidemeister number (m >= n >= 2)
            mcc = n_sharp = reid
    else:
        if d.m < d.n:  # only m = 1 reaches this with homotopic unknown
            mcc = n_sharp = _ZERO_110
        else:
            mcc = n_sharp = _NEEDS_HOMOTOPIC

    if hom.is_yes():
        mc = _SELF_MC[mcc]  # selfcoincidence setting: MC = MCC
    elif d.n % 2 == 1 and d.n >= 3 and d.m >= 2:
        mc = _spaceform_mc(d, hom, in_image)
    else:
        mc = _UNDECIDED
    return InvariantBundle(mc=mc, mcc=mcc, n_sharp=n_sharp,
                           n_tilde=_PENDING, n=_PENDING, n_z=_PENDING,
                           reidemeister=reid)


_MC_INFINITE_43 = Verdict.infinite(("Prop4.3",))
_MC_NEEDS_IMAGE = Verdict.unknown(("Prop4.3", "needs:in_psE_image"))
_MC_NEEDS_HOMOTOPIC = Verdict.unknown(("Prop4.3", "needs:homotopic"))


def _spaceform_mc(d: SpaceFormPairDescriptor, homotopic: Fact,
                  in_image: Fact) -> Verdict:
    """MC of a pair not known to be homotopic, from its resolved facts
    homotopic and in_psE_image, with odd n >= 3 and m >= n (Prop4.3):
    infinite outside the suspension-projection image, the group order for
    a nonhomotopic pair inside it.  The resolver forces homotopic for
    2 <= m < n, so no smaller m reaches here."""
    if in_image.is_no():
        return _MC_INFINITE_43
    if in_image.is_unknown():
        return _MC_NEEDS_IMAGE
    if homotopic.is_no():
        return Verdict.finite(d.group_order, ("Prop4.3",))
    return _MC_NEEDS_HOMOTOPIC


_NO_BROWDER = no("Browder")
_NO_HHR = no("HHR")
_HHR_OPEN_UNKNOWN = unknown_fact("HHR-open")
_THM120 = rule_facts("Thm1.20")


def kervaire_case(d: SpaceFormPairDescriptor) -> Fact:
    """Looseness of (f, f) in the first critical setting m = 2n-2: loose
    iff the suspended boundary vanishes and the Kervaire invariant of the
    lift is zero.  n = 128 is accepted and answers Unknown."""
    if d.m != 2 * d.n - 2:
        raise DescriptorError("kervaire_case needs m = 2n-2")
    if d.n % 2:
        raise DescriptorError("kervaire_case needs even n")
    if d.n in (2, 4, 8):
        raise DescriptorError(
            "n = 2, 4, 8: the suspension has trivial kernel and the "
            "ordinary selfcoincidence chain already decides looseness"
        )
    if d.group_order != 2:
        raise DescriptorError("kervaire_case needs a group of order 2")
    e_del = _resolve(d)[2]

    kervaire = d.kervaire_one
    if kervaire_status(d.n) is KervaireStatus.NONE_EXISTS:
        if kervaire.is_yes():
            raise DescriptorError(
                f"kervaire_one = yes contradicts the vanishing theorem "
                f"for n = {d.n}"
            )
        kervaire = _NO_BROWDER if d.n & (d.n - 1) else _NO_HHR

    truth = truth_and(e_del.truth, truth_not(kervaire.truth))
    if truth is Truth.UNKNOWN and d.n == 128:
        return _HHR_OPEN_UNKNOWN
    return _THM120[truth]


_THM122 = rule_facts("Thm1.22")


def hopf_case(d: SpaceFormPairDescriptor) -> Fact:
    """Looseness of (f, f) in the second critical setting m = 2n-1,
    n = 2 mod 4, n >= 6: loose iff the suspended boundary vanishes and the
    Hopf invariant of the lift is divisible by 4."""
    if d.m != 2 * d.n - 1:
        raise DescriptorError("hopf_case needs m = 2n-1")
    if d.n % 4 != 2 or d.n < 6:
        raise DescriptorError("hopf_case needs n = 2 mod 4 and n >= 6")
    if d.group_order != 2:
        raise DescriptorError("hopf_case needs a group of order 2")
    if d.hopf_mod4 is None:
        raise DescriptorError("hopf_case needs hopf_mod4")
    e_del = _resolve(d)[2]

    divisible = Truth.YES if d.hopf_mod4 == 0 else Truth.NO
    return _THM122[truth_and(e_del.truth, divisible)]
