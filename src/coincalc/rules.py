"""Registry of rule identifiers.

Every Verdict trace and every derived Fact's rule must be an identifier
registered here.  The vocabulary is closed: adding a rule means
adding it to REGISTRY *and* to docs/rules.md, whose table states each rule
in the sentence given here (a test cross-checks ids and sentences).

Identifiers of the form ``needs:<field>`` annotate Unknown results with the
descriptor field whose value would decide them.
"""

REGISTRY: dict[str, str] = {
    # torus targets
    "Thm1.8": "torus-to-torus pairs: MCC and all four Nielsen numbers equal "
              "the absolute determinant of the image of the H1 difference; "
              "MC jumps to infinity in positive codimension unless that "
              "determinant is 0; Reidemeister number is the cokernel size",
    "Thm3.7": "maps from a closed manifold to a torus: bound chain "
              "Reidemeister >= |det| >= MCC >= N# >= Ntilde >= N >= N^Z "
              "(middle bound needs n != 2), with N^Z decided by the top "
              "cohomology pullback",
    "Cor3.8": "circle targets: MCC equals the nonnegative generator of the "
              "image of the H1 difference; all four Nielsen numbers agree",
    "Reid3.5": "algebraic Reidemeister set: fundamental group of the target "
               "modulo twisted conjugation; for abelian targets the cokernel "
               "of the induced H1 difference",
    # sphere targets
    "Thm1.7a": "sphere pairs: Reidemeister number is 1 for n >= 2, the "
               "degree difference for m = n = 1 with distinct degrees, and "
               "infinite for homotopic maps to a circle",
    "Thm1.7b": "sphere pairs: MC from the difference class (0 when it "
               "vanishes, 1 when it desuspends, degree difference on the "
               "circle, infinite otherwise)",
    "Thm1.7c": "sphere pairs: MCC = N#; value 0 when the difference class "
               "vanishes, Reidemeister number otherwise",
    "Thm1.7d": "sphere pairs with n = 1 or vanishing difference class: all "
               "six minimum and Nielsen numbers coincide",
    "Thm1.7e": "sphere pairs, nonzero difference class: Ntilde detected by "
               "stabilized Hopf-James invariants, N by the iterated "
               "suspension, N^Z = 0 in positive codimension",
    "Ex3.9-derived": "codimension zero: the index sum equals the degree "
                     "difference, so N^Z = 1 for m = n >= 2 with nonzero "
                     "difference class",
    # spherical space forms
    "Thm1.10": "sphere-to-space-form pairs: MCC = N# four-way case split; "
               "Reidemeister number equals the group order for m, n >= 2",
    "Thm1.15": "selfcoincidence chain (i)-(v): boundary vanishing, looseness "
               "by small deformation, MCC = 0, N# = 0, suspended boundary "
               "vanishing; MC = MCC and all values lie in {0, 1}",
    "Cor1.19": "exceptional selfcoincidence setting (boundary nonzero, "
               "suspended boundary zero): MCC = 1 while N# = 0, and the map "
               "is coincidence producing",
    "Thm1.20": "space forms with m = 2n-2, n even: the pair (f, f) is loose "
               "iff N# vanishes and the Kervaire invariant of the lift "
               "vanishes",
    "Browder": "the Kervaire invariant vanishes whenever n is not a power "
               "of two",
    "HHR": "the Kervaire invariant vanishes for n > 128",
    "HHR-open": "Kervaire invariant one in the n = 128 stem is an open "
                "problem",
    "Thm1.22": "space forms with m = 2n-1, n = 2 mod 4, n >= 6: (f, f) is "
               "loose iff N# vanishes and the Hopf invariant of the lift is "
               "divisible by 4",
    "Prop4.3": "odd-dimensional space forms: MC is infinite outside the "
               "suspension-projection image, 0 for homotopic maps or m < n, "
               "the group order otherwise",
    "Prop7.2-valueset": "root-case value restriction: each Nielsen number is "
                        "either 0 or the Reidemeister number",
    # projective spaces
    "Thm4.5": "pairs into a projective space satisfy exactly one of seven "
              "conditions on the lifted classes",
    "Table4.7-row1": "lifts agree downstairs and the lift lies in the kernel "
                     "of the boundary: (N#, MCC, MC) = (0, 0, 0)",
    "Table4.7-row2": "lift killed by the suspended boundary but not by the "
                     "boundary: (N#, MCC, MC) = (0, 1, 1)",
    "Table4.7-row3": "real case, lift not antipodally self-homotopic: "
                     "(N#, MCC, MC) = (1, 1, 1)",
    "Table4.7-row4": "real case, distinct downstairs classes, lift "
                     "difference desuspends: (N#, MCC, MC) = (2, 2, 2)",
    "Table4.7-row5": "real case, lift difference does not desuspend: "
                     "(N#, MCC, MC) = (2, 2, infinity)",
    "Table4.7-row6": "complex/quaternionic case, equal lifts outside the "
                     "suspended-boundary kernel: (N#, MCC, MC) = (1, 1, 1)",
    "Table4.7-row7": "complex/quaternionic case, distinct lifts: "
                     "(N#, MCC, MC) = (1, 1, infinity)",
    "Prop1.14": "projective space of real dimension not divisible by twice "
                "the field dimension (odd n'): the boundary homomorphism "
                "vanishes identically",
    # Stiefel projections
    "Thm1.2": "Stiefel-to-Grassmann projection, r >= 2k >= 2: MC = MCC = N# "
              "= Ntilde = N, equal to 0 iff twice the Grassmannian Euler "
              "number kills the framed class of SO(k)",
    "Cor1.3": "k = 2 frames: the selfcoincidence invariants always vanish",
    "Cor1.4": "k = 3 frames: vanishing iff r is even or r = 1 mod 12",
    "Cor1.5": "k = 5 frames, r != 7: vanishing iff r != 5 mod 6",
    "Prop5.1": "if N(f, f) = 0 for the Stiefel projection then (f, f) is "
               "loose by small deformation",
    "chi-zero": "the Euler factor vanishes, so the framed obstruction is 0",
    "2SOeven": "twice the framed class of SO(2l) is zero",
    "SO-nullbordant": "SO(k) with its invariant framing is nullbordant for "
                      "4 <= k <= 9, k != 5",
    "24SO": "24 times the framed class of SO(k) is zero (k >= 2)",
    "SO1-infinite": "the framed class of SO(1) generates an infinite cyclic "
                    "stable stem",
    "SO3-order12": "the framed class of SO(3) has order 12",
    "SO5-order3": "the framed class of SO(5) has order 3",
    "SO-order-open": "the order of the framed class of SO(k) is not "
                     "tabulated for odd k >= 11",
    # Wecken decision engine
    "R1": "the target is noncompact or has zero Euler characteristic (for "
          "instance, odd dimension), so the boundary homomorphism vanishes",
    "R2": "stable dimension range m < 2n-2",
    "R3": "m <= n+4; the borderline case (10, 6) holds for sphere-covered "
          "targets because the relevant homotopy group is trivial",
    "R4": "m = n+5: holds unless (m, n) = (11, 6), where the Wecken "
          "condition fails for sphere-covered targets",
    "R5": "m = 2n-2, n even: holds for n = 2, 4, 8 (suspension is "
          "injective) and for all other even n except n = 16, 32, 64 "
          "(failure) and n = 128 (open)",
    "R6": "m = 2n-1: fails exactly for n = 2 mod 4, n >= 6; holds otherwise",
    "R7": "m = 2n+2 or m = 2n+3 with n not 4 or 6: holds because the "
          "relevant stable stems vanish",
    "R8": "no registered rule covers this dimension combination",
    "Thm1.33": "necessary restrictions for a nonzero selfcoincidence N#",
    "Thm1.33a": "restriction: n even with m >= n >= 4, or m = 2 with a "
                "2-dimensional sphere-like target",
    "Thm1.33b": "restriction: fundamental group trivial, or of order 2 with "
                "nonorientable target",
    "Thm1.33c": "restriction: target closed with nonzero Euler "
                "characteristic and nonvanishing suspended boundary",
    "Thm1.33d": "restriction: no fixed-point-free selfmap and the punctured "
                "inclusion not onto (caller-supplied)",
    "Ex3.9": "classical fixed point theory: the Wecken property holds iff "
             "the manifold is not a surface of negative Euler "
             "characteristic",
    # missing-input annotations for Unknown verdicts
    "needs:f1_homotopic_a_f2": "undetermined: is the difference class zero?",
    "needs:in_suspension_image": "undetermined: does the difference class "
                                 "desuspend?",
    "needs:stable_suspension_nonzero": "undetermined: is the stabilized "
                                       "suspension nonzero?",
    "needs:some_stable_hopf_james_nonzero": "undetermined: is some "
                                            "stabilized Hopf-James "
                                            "invariant nonzero?",
    "needs:homotopic": "undetermined: are the two maps homotopic?",
    "needs:del_zero": "undetermined: does the boundary class vanish?",
    "needs:e_del_zero": "undetermined: does the suspended boundary class "
                        "vanish?",
    "needs:in_psE_image": "undetermined: does the class difference lie in "
                          "the suspension-projection image?",
    "needs:top_cohomology_pullback_nonzero": "undetermined: is the pullback "
                                             "nonzero on top cohomology?",
    "needs:det_kills_top": "undetermined: does multiplication by the "
                           "determinant kill no top cohomology class?",
}
