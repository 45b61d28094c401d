import pytest

from coincalc import (
    ConsistencyError,
    DescriptorError,
    INFINITE,
    TargetFamily,
    Truth,
    WeckenQuery,
    fixed_point_wecken,
    nsharp_restrictions,
    overlap_disagreements,
    user_fact,
    wecken_condition,
)
from coincalc import wecken
from coincalc.cli import main
from coincalc.verdict import Fact


def condition(m, n, family=TargetFamily.SPHERE, **kw):
    return wecken_condition(WeckenQuery(m, n, family, **kw))


def expected_no_set(limit):
    out = set()
    for n in (16, 32, 64):
        if 2 * n - 2 <= limit and n <= limit:
            out.add((2 * n - 2, n))
    n = 6
    while 2 * n - 1 <= limit and n <= limit:
        out.add((2 * n - 1, n))
        n += 4
    out.add((11, 6))
    return out


def test_exception_catalogue_within_64():
    no_set = set()
    unknown_set = set()
    for m in range(1, 65):
        for n in range(1, 65):
            fact = condition(m, n)
            if fact.is_no():
                no_set.add((m, n))
            elif fact.is_unknown():
                unknown_set.add((m, n))
    assert no_set == expected_no_set(64)
    # Unknown appears exactly at the uncovered gaps: no catalogued rule,
    # fallback R8
    for m, n in unknown_set:
        assert condition(m, n).rule == "R8"
    assert (13, 6) in unknown_set  # second gap row for n = 6
    assert (10, 4) in unknown_set  # n = 4 exclusion of the 2n+2 rule


def test_named_examples():
    assert condition(11, 6).is_no()
    assert condition(11, 6).rule == "R4"
    assert condition(30, 16).is_no()
    assert condition(10, 6).is_yes()
    assert condition(7, 5).is_yes()  # stable range
    assert condition(7, 5).rule == "R1"  # odd n fires first


def test_open_kervaire_row():
    fact = condition(254, 128)
    assert fact.is_unknown()
    assert fact.rule == "R5"


def test_overlap_scan_is_clean():
    assert overlap_disagreements() == []


def test_disagreeing_rules_are_a_consistency_failure(monkeypatch):
    monkeypatch.setattr(wecken, "_rules_fired",
                        lambda q: [("R2", Truth.YES), ("R4", Truth.NO)])
    with pytest.raises(ConsistencyError,
                       match=r"\(m=11, n=6\): R2=yes, R4=no"):
        condition(11, 6)
    assert main(["wecken", "-m", "11", "-n", "6"]) == 3


def listed_r5(n, family):
    """R5's branches as they listed the Kervaire stems by hand: the
    reference for R5 read off the fact base's Kervaire status."""
    if n in (2, 4, 8):
        return [("R5", Truth.YES)]
    if family is TargetFamily.GENERAL:
        return []
    if n in (16, 32, 64):
        return [("R5", Truth.NO)]
    if n == 128:
        return [("R5", Truth.UNKNOWN)]
    return [("R5", Truth.YES)]


def test_r5_follows_the_kervaire_status():
    for n in range(2, 513, 2):
        for family in TargetFamily:
            for chi_fact in ("yes", "no", "unknown"):
                q = WeckenQuery(2 * n - 2, n, family, user_fact(chi_fact))
                fired = wecken._rules_fired(q)
                expected = listed_r5(n, family)
                assert [f for f in fired if f[0] == "R5"] == expected, q
                if fired and fired[0][0] == "R5":
                    assert wecken_condition(q) == Fact(
                        expected[0][1], "R5"), q


def test_covering_invariance():
    for m in range(1, 40):
        for n in range(1, 20):
            sphere = condition(m, n, TargetFamily.SPHERE)
            form = condition(m, n, TargetFamily.SPACE_FORM)
            assert sphere.truth is form.truth


def test_general_targets_degrade_honestly():
    # Euler characteristic zero decides everything
    fact = condition(11, 6, TargetFamily.GENERAL,
                     noncompact_or_chi_zero=user_fact("yes"))
    assert fact.is_yes() and fact.rule == "R1"
    # without it, the sphere-specific failure at (11, 6) says nothing
    assert condition(11, 6, TargetFamily.GENERAL).is_unknown()
    assert condition(10, 6, TargetFamily.GENERAL).is_unknown()
    # but the stable range and the generic m <= n+4 window still apply
    assert condition(7, 5, TargetFamily.GENERAL).is_yes()
    assert condition(9, 6, TargetFamily.GENERAL).is_yes()
    assert condition(30, 16, TargetFamily.GENERAL).is_unknown()
    # ker E = 0 arguments survive on any target
    assert condition(11, 7, TargetFamily.GENERAL).is_yes()   # m = n+4
    assert condition(6, 4, TargetFamily.GENERAL).is_yes()    # n in {2,4,8}


# -- N# restrictions -----------------------------------------------------------


def restrictions(n, m, pi1=1, orientable="no", closed=True, chi_zero="no",
                 e_del="unknown", d_fact="unknown"):
    return nsharp_restrictions(
        n, m, pi1, user_fact(orientable), closed, user_fact(chi_zero),
        user_fact(e_del), user_fact(d_fact))


def test_restrictions_odd_dimension():
    fact = restrictions(5, 9)
    assert fact.is_no()
    assert fact.rule == "Thm1.33a"


def test_restrictions_fundamental_group():
    fact = restrictions(4, 7, pi1=3)
    assert fact.is_no()
    assert fact.rule == "Thm1.33b"
    assert restrictions(4, 7, pi1=INFINITE).is_no()
    assert restrictions(4, 7, pi1=2, orientable="yes").is_no()


def test_restrictions_closed_and_euler():
    assert restrictions(4, 7, closed=False).is_no()
    assert restrictions(4, 7, chi_zero="yes").is_no()
    assert restrictions(4, 7, e_del="no").is_no()
    assert restrictions(4, 7, d_fact="no").is_no()


def test_restrictions_never_say_yes():
    fact = restrictions(4, 7, pi1=2, orientable="no", e_del="yes",
                        d_fact="yes")
    assert fact.is_unknown()


def test_restrictions_projective_regression():
    # real projective targets in the dimensions where nonzero N# is known
    # to occur: the check must stay open, never No
    for n in (4, 8, 12, 14, 16, 20):
        fact = restrictions(n, 2 * n - 1, pi1=2, orientable="no",
                            closed=True, chi_zero="no", e_del="yes")
        assert fact.is_unknown(), n


def test_restrictions_surface_case():
    assert restrictions(2, 2, pi1=1).is_unknown()   # sphere-like target
    assert restrictions(2, 3, pi1=1).is_no()        # m != 2 needs n >= 4


# -- the fixed point dichotomy -------------------------------------------------


def test_fixed_point_dichotomy():
    assert fixed_point_wecken(2, -2).is_no()
    assert fixed_point_wecken(2, 0).is_yes()
    assert fixed_point_wecken(2, 2).is_yes()
    assert fixed_point_wecken(3, -10).is_yes()
    assert fixed_point_wecken(1, 0).is_yes()
    with pytest.raises(DescriptorError):
        fixed_point_wecken(0, 0)
