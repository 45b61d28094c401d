#!/usr/bin/env python3
"""Map of the Wecken condition over the (m, n) grid for sphere targets.

Prints a character map: '.' the condition holds, 'X' it fails, '?' the
calculator has no covering rule.  The failures are astonishingly sparse:
one sporadic point (11, 6), the Kervaire-invariant-one diagonal m = 2n-2
at n = 16, 32, 64, and the Hopf diagonal m = 2n-1 at n = 2 mod 4.
"""

from coincalc import TargetFamily, WeckenQuery, user_fact, wecken_condition
from coincalc.verdict import Truth

LIMIT = 40

print("     n ->", " ".join(f"{n:2d}" for n in range(1, 25)))
for m in range(1, LIMIT + 1):
    row = []
    for n in range(1, 25):
        fact = wecken_condition(WeckenQuery(m, n))
        row.append({Truth.YES: " .", Truth.NO: " X",
                    Truth.UNKNOWN: " ?"}[fact.truth])
    print(f"m = {m:3d} " + "".join(row))

print("\nThe named failures with their justifying rules:")
for m, n in [(11, 6), (30, 16), (19, 10), (62, 32)]:
    fact = wecken_condition(WeckenQuery(m, n))
    print(f"  (m, n) = ({m:2d}, {n:2d}): {fact.truth.value} "
          f"[{fact.rule}]")

print("\nThe open Kervaire dimension:")
fact = wecken_condition(WeckenQuery(254, 128))
print(f"  (254, 128): {fact.truth.value} [{fact.rule}]")

print("\nCovering invariance: sphere and space-form targets agree,")
print("a general target needs its own Euler-characteristic fact:")
general = wecken_condition(WeckenQuery(
    11, 6, TargetFamily.GENERAL, noncompact_or_chi_zero=user_fact("yes")))
print(f"  (11, 6) with chi(N) = 0: {general.truth.value} "
      f"[{general.rule}]")
