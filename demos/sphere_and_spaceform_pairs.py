#!/usr/bin/env python3
"""Sphere pairs, space-form pairs, and the one place MCC and N# disagree.

Demonstrates the four-invariant hierarchy on maps S^3 -> S^2 (where all
four Nielsen numbers genuinely differ) and walks through the exceptional
self-coincidence pair on the 6-dimensional real projective space, seen as
the space form S^6 / Z_2.
"""

from coincalc import (
    SpaceFormPairDescriptor,
    SphereClassDescriptor,
    hopf_case,
    spaceform_pair_invariants,
    sphere_invariants,
    user_fact,
)

FIELDS = ("mc", "mcc", "n_sharp", "n_tilde", "n", "n_z", "reidemeister")


def fmt(verdict):
    return verdict.value.value if hasattr(verdict.value, "value") \
        else verdict.value


def show(title, bundle):
    print(f"\n{title}")
    print("  " + "  ".join(f"{f}={fmt(getattr(bundle, f))}" for f in FIELDS))


print("Maps S^3 -> S^2: the Hopf invariant parity separates the four "
      "Nielsen numbers.")

show("difference class with odd Hopf invariant (e.g. the Hopf map)",
     sphere_invariants(SphereClassDescriptor(
         3, 2,
         f1_homotopic_a_f2=user_fact("no"),
         in_suspension_image=user_fact("no"),
         stable_suspension_nonzero=user_fact("yes"))))

show("difference class with Hopf invariant 2 (the Whitehead square)",
     sphere_invariants(SphereClassDescriptor(
         3, 2,
         f1_homotopic_a_f2=user_fact("no"),
         in_suspension_image=user_fact("no"),
         stable_suspension_nonzero=user_fact("no"),
         some_stable_hopf_james_nonzero=user_fact("yes"))))

print("\nNow the space form RP(6) = S^6 / Z_2 with m = 11 = 2n - 1.")
print("A selfmap pair whose lift has Hopf invariant 2 mod 4: the boundary")
print("class survives but its suspension dies, so the minimum number of")
print("components and the sharpest Nielsen number split apart:")

exceptional = SpaceFormPairDescriptor(
    11, 6, 2,
    homotopic=user_fact("yes"),
    del_zero=user_fact("no"),
    e_del_zero=user_fact("yes"),
    hopf_mod4=2)

bundle = spaceform_pair_invariants(exceptional)
show("S^11 -> RP(6), exceptional pair", bundle)

print("\nThe selfcoincidence chain for that pair, with each value's trace:")
for name in ("mcc", "n_sharp", "mc"):
    verdict = getattr(bundle, name)
    print(f"  {name:8s} {fmt(verdict)!s:3s} {', '.join(verdict.trace)}")
print("  N# = 0 since the suspended boundary vanishes, yet MCC = 1: the")
print("  exceptional case, where the pair is not loose")
print(f"  Hopf-case looseness test agrees: "
      f"loose = {hopf_case(exceptional).truth.value}")

print("\nFor contrast, a lift with Hopf invariant 0 mod 4 is loose by an")
print("arbitrarily small push:")
tame = SpaceFormPairDescriptor(
    11, 6, 2, homotopic=user_fact("yes"), del_zero=user_fact("yes"),
    hopf_mod4=0)
print(f"  loose = {hopf_case(tame).truth.value}")
show("S^11 -> RP(6), tame pair", spaceform_pair_invariants(tame))
