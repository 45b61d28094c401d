"""Selfcoincidence invariants of the Stiefel-to-Grassmann projection.

For the canonical projection V_{r,k} -> G_{r,k} (oriented target or not)
with r >= 2k >= 2, the five invariants MC = MCC = N# = Ntilde = N are all 0
or all 1, decided by whether twice the Euler number of the Grassmannian
kills the framed bordism class of SO(k).
"""

from __future__ import annotations

from math import comb

from .errors import DescriptorError
from .tables import TWO_CHI_FACTS, two_chi_so_vanishes
from .verdict import Fact, InvariantBundle, Record, Truth, Verdict, _set


class StiefelQuery(Record):
    __slots__ = ("r", "k", "oriented_target")

    def __init__(self, r: int, k: int, oriented_target: bool = False):
        _set(self, "r", r)
        _set(self, "k", k)
        _set(self, "oriented_target", oriented_target)
        if k < 1 or r < 2 * k:
            raise DescriptorError("need r >= 2k >= 2")


def grassmann_euler(r: int, k: int) -> int:
    """Euler number of the Grassmannian of k-planes in R^r: zero when k is
    odd and r even, binomial(floor(r/2), floor(k/2)) otherwise."""
    if not 1 <= k <= r:
        raise DescriptorError("need 1 <= k <= r")
    if k % 2 == 1 and r % 2 == 0:
        return 0
    return comb(r // 2, k // 2)


def _ternary_digit_sum(n: int) -> int:
    """Sum of the base-3 digits of n >= 0."""
    total = 0
    while n:
        n, low = divmod(n, 3 ** 32)  # peel 32 digits per big division
        while low:
            low, digit = divmod(low, 3)
            total += digit
    return total


def euler_gcd12(r: int, k: int) -> int:
    """gcd(chi, 12) for chi = grassmann_euler(r, k), and 0 when chi = 0.

    The criterion asks of chi only whether it vanishes and whether 3, 6 or
    12 divides it, so this residue answers it exactly as chi does, without
    building a binomial of up to millions of digits.
    """
    if not 1 <= k <= r:
        raise DescriptorError("need 1 <= k <= r")
    if k % 2 == 1 and r % 2 == 0:
        return 0
    a, b = r // 2, k // 2
    # Kummer: p divides binomial(a, b) once for each carry in adding b and
    # a - b in base p, that is (s(b) + s(a - b) - s(a)) / (p - 1) times for
    # the base-p digit sum s
    twos = b.bit_count() + (a - b).bit_count() - a.bit_count()
    threes = (_ternary_digit_sum(b) + _ternary_digit_sum(a - b)
              - _ternary_digit_sum(a)) // 2
    return 2 ** min(twos, 2) * 3 ** min(threes, 1)


_COROLLARY = {2: "Cor1.3", 3: "Cor1.4", 5: "Cor1.5"}


_N_Z = Verdict.unknown(("Thm1.2",))
_UNDECIDED = Verdict.unknown()


def _shared_bundle(corollary: str | None, fact: Fact) -> InvariantBundle:
    trace = ["Thm1.2"]
    if corollary is not None:
        trace.append(corollary)
    trace.append(fact.rule)  # every two_chi_so_vanishes fact has a rule

    if fact.truth is Truth.YES:
        trace.append("Prop5.1")  # value 0 is loose by small deformation
        shared = Verdict.finite(0, trace)
    elif fact.truth is Truth.NO:
        shared = Verdict.finite(1, trace)
    else:
        shared = Verdict.unknown(trace)

    return InvariantBundle(
        mc=shared, mcc=shared, n_sharp=shared, n_tilde=shared, n=shared,
        n_z=_N_Z, reidemeister=_UNDECIDED,
    )


# the answer for each corollary (None for k not 2, 3 or 5) and each fact
# that two_chi_so_vanishes can return
_BUNDLES = {
    (corollary, fact): _shared_bundle(corollary, fact)
    for corollary in (None, *_COROLLARY.values())
    for fact in TWO_CHI_FACTS
}


def stiefel_selfcoincidence(q: StiefelQuery) -> InvariantBundle:
    """One shared verdict for MC, MCC, N#, Ntilde and N; N^Z is not decided
    by the underlying theorem and stays Unknown.  The answer is identical
    for the oriented and nonoriented Grassmannian (the factor two in the
    criterion already accounts for the double cover)."""
    fact = two_chi_so_vanishes(q.k, euler_gcd12(q.r, q.k))
    return _BUNDLES[_COROLLARY.get(q.k), fact]
