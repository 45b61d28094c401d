"""coincalc: exact coincidence invariants with justification traces.

Computes the minimum numbers MC and MCC, the four Nielsen numbers
N#, Ntilde, N, N^Z, and the Reidemeister number for pairs of maps in the
classified families (tori, spheres, spherical space forms, projective
spaces, Stiefel-to-Grassmann projections), plus a decision engine for the
Wecken condition.  Every answer carries a trace of registered rule
identifiers; see docs/rules.md.

The public names below are the descriptor records and engines that
answers run, and library functions that no answer calls: the Smith normal
form, the Grassmann Euler characteristic, the Wecken overlap scan, and
the criteria whose rule ids docs/rules.md lists as emitted by library
functions only.  The cokernel of an integer matrix has no object of its
own: ``cokernel_order`` gives its size, and the ``divisors`` of
``smith_normal_form`` its torsion (the divisors past 1) and free rank
(rows less the divisor count).
tests/test_rule_coverage.py pins which public names no query reaches.
Each name is imported on its first use.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it.  A name is imported on its
# first use (PEP 562), so that a process loads only the engines it calls.
_SUBMODULE = {
    name: module
    for module, names in (
        ("errors", ("CoincalcError", "ConsistencyError", "DescriptorError",
                    "FactBaseError")),
        ("lattice", ("IntMatrix", "SmithNormalForm", "smith_normal_form",
                     "cokernel_order")),
        ("verdict", ("Fact", "Truth", "Verdict", "InvariantBundle",
                     "user_fact", "validate_bundle", "INFINITE", "UNKNOWN")),
        ("tables", ("FactBase", "KervaireStatus", "get_factbase",
                    "set_factbase", "two_chi_so_vanishes",
                    "kervaire_status", "pinpoint")),
        ("torus", ("TorusPairDescriptor", "torus_invariants",
                   "circle_target_mcc")),
        ("sphere", ("SphereClassDescriptor", "sphere_invariants")),
        ("spaceform", ("SpaceFormPairDescriptor", "spaceform_pair_invariants",
                       "kervaire_case", "hopf_case")),
        ("projective", ("ProjectiveField", "ProjectivePairDescriptor",
                        "projective_classify", "projective_invariants",
                        "del_vanishes_by_dimension")),
        ("stiefel", ("StiefelQuery", "grassmann_euler",
                     "stiefel_selfcoincidence")),
        ("wecken", ("TargetFamily", "WeckenQuery", "wecken_condition",
                    "overlap_disagreements", "nsharp_restrictions",
                    "fixed_point_wecken")),
    )
    for name in names
}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads find it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
