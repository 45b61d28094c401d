#!/usr/bin/env python3
"""Tour of torus targets: from a difference matrix to all seven invariants.

For maps between tori everything is linear algebra: feed in the matrix of
f1* - f2* on first homology and the lattice index of its image answers
every question at once.
"""

from math import prod

from coincalc import (
    IntMatrix,
    TorusPairDescriptor,
    circle_target_mcc,
    cokernel_order,
    smith_normal_form,
    torus_invariants,
    user_fact,
)

FIELDS = ("mc", "mcc", "n_sharp", "n_tilde", "n", "n_z", "reidemeister")


def show(title, bundle):
    print(f"\n{title}")
    for field in FIELDS:
        verdict = getattr(bundle, field)
        value = verdict.value.value if hasattr(verdict.value, "value") \
            else verdict.value
        print(f"  {field:13s} {str(value):9s} via {', '.join(verdict.trace)}")


print("A pair of selfmaps of the 2-torus whose difference acts as "
      "diag(2, 3) on H1.")
h1 = IntMatrix.diagonal([2, 3])
snf = smith_normal_form(h1)
torsion = tuple(d for d in snf.divisors if d >= 2)
free_rank = h1.rows - len(snf.divisors)
print(f"Smith divisors of the difference matrix: {snf.divisors}; "
      f"cokernel torsion {torsion}, free rank {free_rank}.")
print(f"The lattice index {cokernel_order(h1)} is every Nielsen number "
      "at once:")
show("T^2 -> T^2, diag(2, 3)", torus_invariants(
    TorusPairDescriptor(2, 2, h1, True)))

# the cokernel's order is the product of its torsion when it has no free
# part
assert free_rank == 0 and cokernel_order(h1) == prod(torsion)
print("\nThe cokernel's torsion", torsion, "is the Smith divisors past 1.")

print("\nIn positive codimension the minimum number of *points* blows up "
      "while the component count stays finite:")
wide = IntMatrix.from_rows([[2, 0, 0], [0, 3, 0]])
show("T^3 -> T^2, image diag(2, 3)", torus_invariants(
    TorusPairDescriptor(3, 2, wide, True)))

print("\nA rank-deficient difference factors through a smaller torus: the "
      "pair is loose and the Reidemeister set is infinite:")
show("T^2 -> T^2, singular difference", torus_invariants(
    TorusPairDescriptor(2, 2, IntMatrix.from_rows([[1, 2], [2, 4]]), True)))

print("\nFor a general closed 4-manifold source only the top-cohomology "
      "pullback decides N^Z; the rest is honestly Unknown:")
show("M^4 -> T^2, witness-style facts", torus_invariants(
    TorusPairDescriptor(
        4, 2, IntMatrix.diagonal([3, 1]), False,
        top_cohomology_pullback_nonzero=user_fact("no"),
        det_kills_top=user_fact("yes"))))

print("\nCircle targets reduce to a gcd: image generated by 3 gives")
print("  MCC =", circle_target_mcc(3).value,
      "justified by", circle_target_mcc(3).trace)
