import dataclasses
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coincalc import (
    DescriptorError,
    Fact,
    INFINITE,
    InvariantBundle,
    Truth,
    UNKNOWN,
    Verdict,
    user_fact,
    validate_bundle,
)
from coincalc.cli import QueryError, _fact
from coincalc.verdict import (
    ALL_FIELDS,
    CHAIN_FIELDS,
    ext_le,
    forced,
    truth_and,
    yes,
)


def test_kleene_conjunction_algebra():
    values = (Truth.YES, Truth.NO, Truth.UNKNOWN)
    for a, b in itertools.product(values, repeat=2):
        assert truth_and(a, b) is truth_and(b, a)
        assert truth_and(a, a) is a
    for a, b, c in itertools.product(values, repeat=3):
        assert truth_and(truth_and(a, b), c) is truth_and(a, truth_and(b, c))


def test_forced_keeps_yes_fills_unknown_and_rejects_no():
    derived = yes("Thm1.15")
    given = user_fact("yes")
    assert forced(given, derived, "never raised") is given
    assert forced(user_fact("unknown"), derived, "never raised") is derived
    with pytest.raises(DescriptorError) as raised:
        forced(user_fact("no"), derived, "del_zero cannot be no")
    assert str(raised.value) == "del_zero cannot be no"


def test_fact_provenance_required():
    with pytest.raises(KeyError):
        Fact(Truth.YES, "NotARule")


def test_verdict_invariants():
    with pytest.raises(DescriptorError):
        Verdict(3)  # known value needs a trace
    with pytest.raises(DescriptorError):
        Verdict(INFINITE)
    with pytest.raises(KeyError):
        Verdict(3, ("NotARule",))
    with pytest.raises(DescriptorError):
        Verdict(-1, ("Thm1.8",))
    assert Verdict.unknown().value is UNKNOWN
    assert Verdict.finite(3, ("Thm1.8",)).known()


def _bundle(**kwargs):
    fields = {}
    for name, value in kwargs.items():
        if value is None:
            fields[name] = Verdict.unknown()
        elif value is INFINITE:
            fields[name] = Verdict.infinite(("Thm1.8",))
        else:
            fields[name] = Verdict.finite(value, ("Thm1.8",))
    return InvariantBundle(**fields)


def test_validate_bundle_accepts_partial_chain():
    b = _bundle(mcc=2, n_sharp=1)
    assert validate_bundle(b, target_dim=3) == []


def test_validate_bundle_chain_violation():
    b = _bundle(n=1, n_tilde=0)
    assert validate_bundle(b, target_dim=3) == ["Thm3.6(iii): Ñ ≥ N"]


def test_validate_bundle_reidemeister_violation():
    b = _bundle(mcc=5, reidemeister=2)
    violations = validate_bundle(b, target_dim=3)
    assert violations == ["Thm3.6(iv): MCC ≤ Reidemeister"]
    # the upper bound is not claimed for surface targets
    assert validate_bundle(b, target_dim=2) == []


def test_validate_bundle_nonadjacent_pairs():
    # MC known, MCC unknown, N# known: the chain still constrains MC >= N#
    b = _bundle(mc=1, n_sharp=2)
    assert validate_bundle(b, target_dim=3) == ["Thm3.6(iii): MC ≥ N#"]


def test_validate_bundle_infinite_is_top():
    b = _bundle(mc=INFINITE, mcc=4, reidemeister=INFINITE)
    assert validate_bundle(b, target_dim=3) == []
    b = _bundle(mcc=INFINITE, reidemeister=7)
    assert validate_bundle(b, target_dim=3) \
        == ["Thm3.6(iv): MCC ≤ Reidemeister"]


def pairwise_violations(bundle, target_dim):
    """The chain check as a scan over every pair of known values: the
    reference for validate_bundle's pass over adjacent known values."""
    violations = []
    for i in range(len(CHAIN_FIELDS)):
        hi_field, hi_name = CHAIN_FIELDS[i]
        hi = getattr(bundle, hi_field)
        if not hi.known():
            continue
        for j in range(i + 1, len(CHAIN_FIELDS)):
            lo_field, lo_name = CHAIN_FIELDS[j]
            lo = getattr(bundle, lo_field)
            if not lo.known():
                continue
            if not ext_le(lo.value, hi.value):
                violations.append(f"Thm3.6(iii): {hi_name} ≥ {lo_name}")
    if target_dim != 2:
        mcc, reid = bundle.mcc, bundle.reidemeister
        if mcc.known() and reid.known() and not ext_le(mcc.value, reid.value):
            violations.append("Thm3.6(iv): MCC ≤ Reidemeister")
    return violations


def _values_bundle(values):
    """Bundle with the given values in ALL_FIELDS order; UNKNOWN for
    unknown."""
    return _bundle(**{field: (None if value is UNKNOWN else value)
                      for (field, _), value in zip(ALL_FIELDS, values)})


ASCENDING = (0, 1, 2, 3, 4, INFINITE, 0)  # every pair violated


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from((0, 1, 2, 3, 4, INFINITE, UNKNOWN)),
                min_size=7, max_size=7),
       st.sampled_from((1, 2, 3)))
@example(list(ASCENDING), 3)
@example([4, UNKNOWN, 0, 2, UNKNOWN, 3, 1], 1)
@example([1, 3, 2, UNKNOWN, 4, 0, INFINITE], 2)
def test_validate_bundle_matches_the_pairwise_scan(values, target_dim):
    bundle = _values_bundle(values)
    assert validate_bundle(bundle, target_dim) \
        == pairwise_violations(bundle, target_dim)


def test_validate_bundle_reports_every_violation_in_order():
    b = _values_bundle(ASCENDING)
    names = [name for _, name in CHAIN_FIELDS]
    expected = [f"Thm3.6(iii): {hi} ≥ {lo}"
                for i, hi in enumerate(names) for lo in names[i + 1:]]
    assert validate_bundle(b, target_dim=3) \
        == expected + ["Thm3.6(iv): MCC ≤ Reidemeister"]
    assert validate_bundle(b, target_dim=2) == expected


def test_user_facts_are_the_user_provenance_facts():
    for truth in Truth:
        assert user_fact(truth.value) == Fact(truth, "")


def test_interned_facts_stay_frozen():
    fact = user_fact("yes")
    with pytest.raises(dataclasses.FrozenInstanceError):
        fact.truth = Truth.NO
    with pytest.raises(dataclasses.FrozenInstanceError):
        fact.rule = "Thm1.10"
    assert user_fact("yes").truth is Truth.YES


@pytest.mark.parametrize("raw, shown", [
    ("Yes", "'Yes'"), (None, "None"), (1, "1"), (["yes"], "['yes']"),
    ({}, "{}"),
])
def test_bad_truth_values_keep_their_messages(raw, shown):
    message = f"truth value must be 'yes', 'no' or 'unknown', got {shown}"
    with pytest.raises(DescriptorError) as info:
        user_fact(raw)
    assert str(info.value) == message
    with pytest.raises(QueryError) as info:
        _fact({"homotopic": raw}, "homotopic", "spaceform payload")
    assert str(info.value) == ("spaceform payload: field 'homotopic' must be "
                               "'yes', 'no' or 'unknown'")
