"""Invariants for pairs of maps into tori.

The only input consumed is the difference homomorphism f1* - f2* on H1,
stored as an integer matrix, and the only number read from it is the
order of its cokernel, ``lattice.cokernel_order``.  That order is the
Reidemeister number (Reid3.5) and, when finite, the |det| of the image (0
otherwise).  Torus-to-torus pairs get complete answers from that |det|
(Thm1.8); for a general closed source only
the Reidemeister number, the bound chain and (conditionally) N^Z are
determined, and the rest is emitted as Unknown rather than as fake
intervals.
"""

from __future__ import annotations

from .errors import DescriptorError
from .lattice import IntMatrix, cokernel_order
from .verdict import (
    INFINITE,
    Fact,
    InvariantBundle,
    Record,
    Truth,
    Verdict,
    _set,
    unknown_fact,
)


class TorusPairDescriptor(Record):
    """Pair of maps M^m -> T^n, reduced to the H1 difference matrix.

    ``h1_matrix`` has n rows; its columns generate the image of f1* - f2*.
    For a torus source the columns are indexed by the m generators of
    H1(T^m), so cols = m.  The two cohomology facts only matter when
    ``source_is_torus`` is false.
    """

    __slots__ = ("m", "n", "h1_matrix", "source_is_torus",
                 "top_cohomology_pullback_nonzero", "det_kills_top")

    def __init__(self, m: int, n: int, h1_matrix: IntMatrix,
                 source_is_torus: bool,
                 top_cohomology_pullback_nonzero: Fact = unknown_fact(),
                 det_kills_top: Fact = unknown_fact()):
        _set(self, "m", m)
        _set(self, "n", n)
        _set(self, "h1_matrix", h1_matrix)
        _set(self, "source_is_torus", source_is_torus)
        _set(self, "top_cohomology_pullback_nonzero",
             top_cohomology_pullback_nonzero)
        _set(self, "det_kills_top", det_kills_top)
        if m < 1 or n < 1:
            raise DescriptorError("dimensions must be >= 1")
        if h1_matrix.rows != n:
            raise DescriptorError(
                f"h1_matrix must have n = {n} rows, got {h1_matrix.rows}"
            )
        if source_is_torus and h1_matrix.cols != m:
            raise DescriptorError(
                "torus source: h1_matrix needs one column per source "
                f"generator (m = {m}, got {h1_matrix.cols})"
            )


_INFINITE_18 = Verdict.infinite(("Thm1.8",))
_ZERO_18 = Verdict.finite(0, ("Thm1.8",))
_MC_37 = Verdict.unknown(("Thm3.7",))
_ZERO_37 = Verdict.finite(0, ("Thm3.7",))
_NEEDS_DET_KILLS_TOP = Verdict.unknown(("Thm3.7", "needs:det_kills_top"))
_NEEDS_TOP_PULLBACK = Verdict.unknown(
    ("Thm3.7", "needs:top_cohomology_pullback_nonzero"))


def torus_invariants(d: TorusPairDescriptor) -> InvariantBundle:
    card = cokernel_order(d.h1_matrix)
    # |det| of the image is the cokernel order when finite, else 0
    det = 0 if card is INFINITE else card

    if d.source_is_torus:
        value = Verdict.finite(det, ("Thm1.8",)) if det else _ZERO_18
        # the Reidemeister number is the cokernel order, |det| when finite
        reid = _INFINITE_18 if card is INFINITE else value
        mc = value if d.m == d.n or det == 0 else _INFINITE_18
        return InvariantBundle(mc=mc, mcc=value, n_sharp=value,
                               n_tilde=value, n=value, n_z=value,
                               reidemeister=reid)

    # general closed source: Reidemeister is still the cokernel size
    reid = Verdict(card, ("Reid3.5", "Thm3.7"))
    top = d.top_cohomology_pullback_nonzero.truth

    if top is Truth.YES:
        value = Verdict.finite(det, ("Thm3.7",))
        n_z = value
        if d.n != 2:
            return InvariantBundle(mc=_MC_37, mcc=value, n_sharp=value,
                                   n_tilde=value, n=value, n_z=n_z,
                                   reidemeister=reid)
    elif top is Truth.NO:
        n_z = _ZERO_37 if d.det_kills_top.is_yes() else _NEEDS_DET_KILLS_TOP
    else:
        n_z = _NEEDS_TOP_PULLBACK

    pending = _NEEDS_TOP_PULLBACK
    return InvariantBundle(mc=_MC_37, mcc=pending, n_sharp=pending,
                           n_tilde=pending, n=pending, n_z=n_z,
                           reidemeister=reid)


def bound_chain_note(d: TorusPairDescriptor, det: str) -> str:
    """Human-readable record of the bound chain for general sources, given
    ``det``, the digits of the |det| of the image of the H1 difference."""
    middle = " ≥ MCC" if d.n != 2 else " ≥ MCC (needs n ≠ 2)"
    return (f"Thm3.7 bounds: Reidemeister ≥ |det| = {det}{middle} "
            "≥ N# ≥ Ñ ≥ N ≥ N^Z")


def circle_target_mcc(image_generator: int) -> Verdict:
    """MCC for maps into the circle: the nonnegative generator of the image
    of f1* - f2* on H1.  The four Nielsen numbers take the same value, and
    the pair is loose iff the generator is 0."""
    if isinstance(image_generator, bool) or not isinstance(
            image_generator, int) or image_generator < 0:
        raise DescriptorError("the image generator is a nonnegative integer")
    return Verdict.finite(image_generator, ("Cor3.8",))
