import itertools

import pytest

from coincalc import (
    DescriptorError,
    INFINITE,
    ProjectiveField,
    ProjectivePairDescriptor,
    Truth,
    UNKNOWN,
    del_vanishes_by_dimension,
    projective_classify,
    projective_invariants,
    user_fact,
    validate_bundle,
)

R, C, H = ProjectiveField.R, ProjectiveField.C, ProjectiveField.H

FACT_FIELDS = ("fprime_homotopic", "lift2_in_ker_del", "lift2_in_ker_Edel",
               "lift2_antipodal_selfhomotopic", "lifts_differ_by_suspension",
               "lifts_equal")


def descriptor(field, n_prime=3, m=8, **facts):
    kwargs = {name: user_fact(facts.get(name, "unknown"))
              for name in FACT_FIELDS}
    return ProjectivePairDescriptor(field, n_prime, m, **kwargs)


def test_classify_examples():
    assert projective_classify(descriptor(
        C, fprime_homotopic="yes", lift2_in_ker_del="yes")) == 1
    assert projective_classify(descriptor(
        R, fprime_homotopic="no", lifts_differ_by_suspension="no")) == 5
    assert projective_classify(descriptor(C, lifts_equal="no")) == 7


def test_classify_remaining_rows():
    assert projective_classify(descriptor(
        R, fprime_homotopic="yes", lift2_in_ker_del="no",
        lift2_in_ker_Edel="yes")) == 2
    assert projective_classify(descriptor(
        R, fprime_homotopic="yes",
        lift2_antipodal_selfhomotopic="no")) == 3
    assert projective_classify(descriptor(
        R, fprime_homotopic="no", lifts_differ_by_suspension="yes")) == 4
    assert projective_classify(descriptor(
        H, lifts_equal="yes", lift2_in_ker_Edel="no")) == 6


def test_classify_unknown_when_undetermined():
    assert projective_classify(descriptor(R)) is UNKNOWN
    assert projective_classify(
        descriptor(R, fprime_homotopic="yes")) is UNKNOWN


def test_contradictions_rejected_with_named_clash():
    with pytest.raises(DescriptorError, match="lift2_in_ker"):
        projective_classify(descriptor(
            R, fprime_homotopic="yes", lift2_in_ker_del="yes",
            lift2_antipodal_selfhomotopic="no"))
    with pytest.raises(DescriptorError, match="lifts_equal"):
        projective_classify(descriptor(
            C, fprime_homotopic="yes", lifts_equal="no"))
    with pytest.raises(DescriptorError):
        projective_classify(descriptor(
            H, lift2_in_ker_del="yes", lift2_in_ker_Edel="no"))


def test_invariants_per_row():
    b = projective_invariants(descriptor(
        R, fprime_homotopic="yes", lift2_in_ker_del="no",
        lift2_in_ker_Edel="yes"))
    assert (b.n_sharp.value, b.mcc.value, b.mc.value) == (0, 1, 1)
    b = projective_invariants(descriptor(
        R, fprime_homotopic="no", lifts_differ_by_suspension="no"))
    assert (b.n_sharp.value, b.mcc.value) == (2, 2)
    assert b.mc.value is INFINITE
    b = projective_invariants(descriptor(
        C, fprime_homotopic="yes", lift2_in_ker_del="yes"))
    assert (b.n_sharp.value, b.mcc.value, b.mc.value) == (0, 0, 0)


def test_reidemeister_numbers():
    assert projective_invariants(descriptor(R)).reidemeister.value == 2
    assert projective_invariants(descriptor(C)).reidemeister.value == 1
    assert projective_invariants(descriptor(H)).reidemeister.value == 1


def test_weaker_invariants_carry_valueset_trace():
    b = projective_invariants(descriptor(C, lifts_equal="no"))
    for field in ("n_tilde", "n", "n_z"):
        assert getattr(b, field).value is UNKNOWN
        assert getattr(b, field).trace == ("Prop7.2-valueset",)


def _consistent_real_assignments():
    # facts: fprime, ker_del, ker_Edel, antipodal, suspension
    for f, kd, ked, susp in itertools.product(("yes", "no"), repeat=4):
        if kd == "yes" and ked == "no":
            continue  # chain ker(del) inside ker(E del)
        yield dict(fprime_homotopic=f, lift2_in_ker_del=kd,
                   lift2_in_ker_Edel=ked,
                   lift2_antipodal_selfhomotopic=ked,  # equivalent facts
                   lifts_differ_by_suspension=susp)


def _consistent_complex_assignments():
    for eq, kd, ked in itertools.product(("yes", "no"), repeat=3):
        if kd == "yes" and ked == "no":
            continue
        yield dict(lifts_equal=eq, fprime_homotopic=eq,
                   lift2_in_ker_del=kd, lift2_in_ker_Edel=ked)


def test_exactly_one_row_matches_every_consistent_assignment():
    for facts in _consistent_real_assignments():
        row = projective_classify(descriptor(R, **facts))
        assert row in (1, 2, 3, 4, 5), facts
    for field in (C, H):
        for facts in _consistent_complex_assignments():
            row = projective_classify(descriptor(field, **facts))
            assert row in (1, 2, 6, 7), facts


def test_row_conditions_never_overlap_or_leave_a_gap():
    # over every field and every yes/no/unknown assignment of the six facts
    # that the resolver accepts: at most one row holds, and when none does,
    # some condition is still unknown, so projective_classify's first
    # matching row is the only one and its Unknown is honest
    from coincalc.projective import _row_conditions
    accepted = 0
    for field in (R, C, H):
        for values in itertools.product(("yes", "no", "unknown"),
                                        repeat=len(FACT_FIELDS)):
            d = descriptor(field, **dict(zip(FACT_FIELDS, values)))
            try:
                conds = _row_conditions(d)
            except DescriptorError:
                continue
            accepted += 1
            holds = [row for row, t in conds.items() if t is Truth.YES]
            assert len(holds) <= 1, (field, values, holds)
            if holds:
                assert projective_classify(d) == holds[0]
            else:
                assert Truth.UNKNOWN in conds.values(), (field, values)
                assert projective_classify(d) is UNKNOWN
    assert 0 < accepted < 3 * 3 ** len(FACT_FIELDS)


def test_row_values_ordered_and_valid():
    for facts in _consistent_real_assignments():
        d = descriptor(R, **facts)
        b = projective_invariants(d)
        assert validate_bundle(b, d.n) == []
        if b.mc.value is not INFINITE:
            assert b.mc.value >= b.mcc.value >= b.n_sharp.value
    for facts in _consistent_complex_assignments():
        d = descriptor(C, n_prime=2, m=9, **facts)
        b = projective_invariants(d)
        assert validate_bundle(b, d.n) == []


def test_del_vanishes_by_dimension():
    assert del_vanishes_by_dimension(C, 3).is_yes()   # n = 6, not 0 mod 4
    assert del_vanishes_by_dimension(R, 5).is_yes()
    assert del_vanishes_by_dimension(H, 2).is_unknown()  # criterion silent
    assert del_vanishes_by_dimension(R, 4).is_unknown()
    assert del_vanishes_by_dimension(C, 3).rule == "Prop1.14"


def test_dimension_criterion_feeds_case_one():
    # when the boundary vanishes identically, homotopic projected maps with
    # consistently derived lift facts land in case 1
    crit = del_vanishes_by_dimension(C, 3)
    assert crit.is_yes()
    d = descriptor(C, n_prime=3, m=9, fprime_homotopic="yes",
                   lift2_in_ker_del="yes")
    assert projective_classify(d) == 1


def test_descriptor_validation():
    with pytest.raises(DescriptorError):
        ProjectivePairDescriptor(R, 1, 5)  # projective line is a sphere
    with pytest.raises(DescriptorError):
        ProjectivePairDescriptor(R, 3, 1)
    assert descriptor(C, n_prime=4).n == 8
    assert descriptor(H, n_prime=2).n == 8
