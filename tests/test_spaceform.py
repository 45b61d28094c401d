import itertools

import pytest

from coincalc import (
    DescriptorError,
    INFINITE,
    SpaceFormPairDescriptor,
    Truth,
    UNKNOWN,
    hopf_case,
    kervaire_case,
    spaceform_pair_invariants,
    user_fact,
    validate_bundle,
    wecken_condition,
)
from coincalc.spaceform import _resolve
from coincalc.wecken import TargetFamily, WeckenQuery


def descriptor(m, n, g, hom="unknown", dz="unknown", edz="unknown", **kw):
    return SpaceFormPairDescriptor(
        m, n, g,
        homotopic=user_fact(hom),
        del_zero=user_fact(dz),
        e_del_zero=user_fact(edz),
        **{k: (user_fact(v) if isinstance(v, str) else v)
           for k, v in kw.items()},
    )


def test_nonhomotopic_pair_gets_group_order():
    b = spaceform_pair_invariants(descriptor(7, 3, 5, hom="no"))
    assert b.mcc.value == 5
    assert b.n_sharp.value == 5
    assert b.reidemeister.value == 5


def test_odd_dimension_selfcoincidence_vanishes():
    b = spaceform_pair_invariants(descriptor(9, 5, 3, hom="yes"))
    assert b.mcc.value == 0
    assert b.n_sharp.value == 0
    assert b.mc.value == 0  # MC = MCC in the selfcoincidence setting


def test_exceptional_branch_at_11_6():
    b = spaceform_pair_invariants(
        descriptor(11, 6, 2, hom="yes", dz="no", edz="yes"))
    assert b.mcc.value == 1
    assert b.n_sharp.value == 0
    assert b.mc.value == 1
    assert "Cor1.19" in b.mcc.trace


def test_low_codomain_dimension_vanishes():
    b = spaceform_pair_invariants(descriptor(3, 5, 4, hom="yes"))
    assert b.mcc.value == 0
    assert b.n_sharp.value == 0


def test_descriptor_rejections():
    with pytest.raises(DescriptorError):
        descriptor(5, 4, 3)  # order >= 3 cannot act on an even sphere
    with pytest.raises(DescriptorError):
        spaceform_pair_invariants(descriptor(5, 3, 2, dz="no"))  # odd n
    with pytest.raises(DescriptorError):
        spaceform_pair_invariants(
            descriptor(10, 6, 2, dz="yes", edz="no"))
    with pytest.raises(DescriptorError):
        spaceform_pair_invariants(descriptor(3, 5, 4, hom="no"))
    with pytest.raises(DescriptorError):
        spaceform_pair_invariants(descriptor(7, 3, 1))  # sphere engine
    with pytest.raises(DescriptorError):
        spaceform_pair_invariants(descriptor(7, 1, 2))  # circle target
    with pytest.raises(DescriptorError):
        descriptor(11, 6, 2, hopf_mod4=1)  # Hopf invariants are even


def test_wecken_certificate_rejects_impossible_exception():
    # at (10, 6) the Wecken condition is certified, so the exceptional
    # fact combination cannot describe a real pair
    with pytest.raises(DescriptorError):
        spaceform_pair_invariants(
            descriptor(10, 6, 2, hom="yes", dz="no", edz="yes"))


def test_unknown_propagation():
    b = spaceform_pair_invariants(descriptor(9, 6, 2, hom="yes"))
    assert b.mcc.value is UNKNOWN
    assert "needs:e_del_zero" in b.mcc.trace
    b = spaceform_pair_invariants(
        descriptor(9, 6, 2, hom="yes", edz="yes"))
    assert b.n_sharp.value == 0  # settled by the suspended boundary alone
    assert b.mcc.value is UNKNOWN  # hinges on the exceptional branch
    b = spaceform_pair_invariants(descriptor(9, 6, 2))
    assert b.mcc.value is UNKNOWN
    assert "needs:homotopic" in b.mcc.trace


def test_weaker_nielsen_numbers_stay_open():
    b = spaceform_pair_invariants(descriptor(7, 3, 5, hom="no"))
    for field in ("n_tilde", "n", "n_z"):
        verdict = getattr(b, field)
        assert verdict.value is UNKNOWN
        assert verdict.trace == ("Prop7.2-valueset",)


# -- the selfcoincidence chain, as the engine answers it ----------------------
#
# (i) the boundary vanishes <=> (ii) loose by small deformation => (iii)
# loose (MCC = 0) => (iv) N# = 0 <=> (v) the suspended boundary vanishes;
# (iii) <=> (iv) unless the group order is 2, where Cor1.19 splits them


def test_chain_all_yes():
    d = descriptor(9, 5, 3, hom="yes", dz="yes")
    assert _resolve(d)[2].is_yes()  # (i) => (v): e_del_zero
    b = spaceform_pair_invariants(d)
    assert b.mcc.value == b.n_sharp.value == 0  # (iii) and (iv)
    assert b.mc.value == 0
    assert b.mc.trace == ("Thm1.15",)


def test_chain_all_no():
    b = spaceform_pair_invariants(
        descriptor(10, 6, 2, hom="yes", dz="no", edz="no"))
    assert b.mcc.value == b.n_sharp.value == 1  # not loose, N# nonzero
    assert b.mc.value == 1
    assert b.mc.trace == ("Thm1.15",)


def test_chain_gap_resolved_by_exceptional_equivalences():
    # (iv) and (v) hold, (i) fails: the chain alone leaves (iii) open,
    # and Cor1.19 answers it: not loose
    b = spaceform_pair_invariants(
        descriptor(11, 6, 2, hom="yes", dz="no", edz="yes"))
    assert b.n_sharp.value == 0
    assert b.mcc.value == 1
    assert b.mc.value == 1
    assert b.mcc.trace == b.n_sharp.trace == ("Thm1.10", "Cor1.19")
    assert b.mc.trace == ("Thm1.15",)


def test_resolve_builds_no_second_validated_descriptor(monkeypatch):
    built = []
    init = SpaceFormPairDescriptor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SpaceFormPairDescriptor, "__init__", counting_init)
    cases = [descriptor(7, 3, 5, hom="no"), descriptor(3, 5, 4),
             descriptor(11, 6, 2, hom="yes", dz="no", edz="yes"),
             descriptor(9, 4, 2, edz="no", hopf_mod4=2)]
    # (homotopic, del_zero, e_del_zero, in_psE_image) after resolving, as
    # (truth, rule id); "" marks the fact as the descriptor gave it
    resolved = [
        (("no", ""), ("yes", "Thm1.15"), ("yes", "Thm1.15"),
         ("unknown", "")),                                       # odd n
        (("yes", "Thm1.10"), ("yes", "Thm1.15"), ("yes", "Thm1.15"),
         ("yes", "Prop4.3")),                                    # m < n
        (("yes", ""), ("no", ""), ("yes", ""), ("yes", "Prop4.3")),
        (("unknown", ""), ("unknown", ""), ("no", ""),
         ("unknown", "")),            # no answer reads a derived del_zero no
    ]
    assert len(built) == len(cases)
    for d, facts in zip(cases, resolved):
        assert [(f.truth.value, f.rule) for f in _resolve(d)] == list(facts)
        spaceform_pair_invariants(d)  # odd n: _spaceform_mc for MC too
        assert len(built) == len(cases)  # validated once, when built


def test_chain_collapses_for_larger_groups():
    # (iii) <=> (iv) for group orders other than 2
    for d in (descriptor(9, 5, 5, hom="yes", dz="yes"),
              descriptor(9, 5, 3, hom="yes"),
              descriptor(12, 7, 8, hom="yes")):
        b = spaceform_pair_invariants(d)
        assert b.mcc.value == b.n_sharp.value == 0
        assert b.mc.value == 0


def test_chain_needs_selfcoincidence():
    # a pair that is not homotopic takes the group order, and MC from
    # Prop4.3, not from the chain
    b = spaceform_pair_invariants(descriptor(9, 5, 3, hom="no"))
    assert b.mcc.value == b.n_sharp.value == 3
    assert b.mc.value is UNKNOWN
    assert b.mc.trace == ("Prop4.3", "needs:in_psE_image")


# -- Kervaire and Hopf cases --------------------------------------------------


def test_kervaire_case_examples():
    loose = kervaire_case(descriptor(
        30, 16, 2, hom="yes", edz="yes", kervaire_one="yes", dz="no"))
    assert loose.is_no()
    loose = kervaire_case(descriptor(22, 12, 2, hom="yes", edz="yes"))
    assert loose.is_yes()  # Kervaire invariant forced to vanish
    loose = kervaire_case(descriptor(254, 128, 2, hom="yes", edz="yes"))
    assert loose.is_unknown()
    assert loose.rule == "HHR-open"


def test_kervaire_case_rejections():
    with pytest.raises(DescriptorError):
        kervaire_case(descriptor(6, 4, 2, hom="yes"))  # n = 4 excluded
    with pytest.raises(DescriptorError):
        kervaire_case(descriptor(21, 12, 2, hom="yes"))  # m != 2n-2
    with pytest.raises(DescriptorError):  # contradicts vanishing theorem
        kervaire_case(descriptor(22, 12, 2, hom="yes", kervaire_one="yes"))


def test_kervaire_case_needs_nsharp_zero():
    loose = kervaire_case(descriptor(
        30, 16, 2, hom="yes", edz="no", kervaire_one="no"))
    assert loose.is_no()


def test_hopf_case_examples():
    base = dict(hom="yes", edz="yes", dz="no")
    assert hopf_case(descriptor(11, 6, 2, hopf_mod4=0, **base)).is_yes()
    assert hopf_case(descriptor(11, 6, 2, hopf_mod4=2, **base)).is_no()
    assert hopf_case(descriptor(
        11, 6, 2, hom="yes", edz="no", hopf_mod4=0)).is_no()


def test_hopf_case_rejections():
    with pytest.raises(DescriptorError):
        hopf_case(descriptor(11, 6, 2, hom="yes"))  # hopf_mod4 missing
    with pytest.raises(DescriptorError):
        hopf_case(descriptor(15, 8, 2, hom="yes", hopf_mod4=0))  # n = 0 mod 4
    with pytest.raises(DescriptorError):
        hopf_case(descriptor(13, 7, 2, hom="yes", hopf_mod4=0))


# -- MC for odd space forms ----------------------------------------------------


def test_spaceform_mc_special_case():
    # m = 4, n = 3: infinite for large groups, group order for order 2
    v = spaceform_pair_invariants(
        descriptor(4, 3, 5, hom="no", in_psE_image="no")).mc
    assert v.value is INFINITE
    assert v.trace == ("Prop4.3",)
    v = spaceform_pair_invariants(
        descriptor(4, 3, 2, hom="no", in_psE_image="yes")).mc
    assert v.value == 2
    assert v.trace == ("Prop4.3",)
    v = spaceform_pair_invariants(descriptor(4, 3, 5, hom="yes")).mc
    assert v.value == 0  # MC = MCC for a selfcoincidence
    v = spaceform_pair_invariants(descriptor(4, 3, 5, hom="no")).mc
    assert v.value is UNKNOWN
    assert "needs:in_psE_image" in v.trace


def test_spaceform_mc_preconditions():
    # Prop4.3 decides MC for odd targets and m >= 2 only; elsewhere a pair
    # that may not be homotopic keeps MC undecided
    for d in (descriptor(10, 6, 2), descriptor(10, 6, 2, hom="no"),
              descriptor(1, 3, 2)):
        mc = spaceform_pair_invariants(d).mc
        assert mc.value is UNKNOWN
        assert mc.trace == ()


# -- global invariants ----------------------------------------------------------


def consistent_descriptors(m, n, g):
    opts = ("yes", "no")
    for hom, dz, edz in itertools.product(opts, repeat=3):
        try:
            yield descriptor(m, n, g, hom, dz, edz)
        except DescriptorError:
            continue


def test_mcc_differs_from_nsharp_only_for_homotopic_pairs():
    for m, n, g in [(11, 6, 2), (7, 3, 5), (9, 4, 2), (12, 7, 8)]:
        for d in consistent_descriptors(m, n, g):
            try:
                b = spaceform_pair_invariants(d)
            except DescriptorError:
                continue
            if not (b.mcc.known() and b.n_sharp.known()):
                continue
            if b.mcc.value != b.n_sharp.value:
                assert d.homotopic.truth is Truth.YES
                assert n % 2 == 0 and g == 2


def test_selfcoincidence_values_bounded_by_one():
    for m, n, g in [(11, 6, 2), (9, 5, 3), (10, 6, 2), (13, 7, 8)]:
        for d in consistent_descriptors(m, n, g):
            if not d.homotopic.is_yes():
                continue
            try:
                b = spaceform_pair_invariants(d)
            except DescriptorError:
                continue
            for field in ("mc", "mcc", "n_sharp"):
                v = getattr(b, field)
                if v.known():
                    assert v.value in (0, 1)


def test_odd_targets_never_hit_the_exception():
    for m, g in [(7, 3), (9, 5), (11, 2)]:
        for d in consistent_descriptors(m, 5, g):
            try:
                b = spaceform_pair_invariants(d)
            except DescriptorError:
                continue
            if b.mcc.known() and b.n_sharp.known():
                assert b.mcc.value == b.n_sharp.value


def test_wecken_yes_blocks_exception_everywhere():
    # wherever the engine certifies the Wecken condition, the exceptional
    # fact combination is rejected as inconsistent; exhaustive over the
    # grid m, n <= 40 (only even n can host the exception at all)
    blocked = fired = 0
    for n in range(2, 41, 2):
        for m in range(2, 41):
            cert = wecken_condition(
                WeckenQuery(m, n, TargetFamily.SPACE_FORM))
            try:
                bundle = spaceform_pair_invariants(
                    descriptor(m, n, 2, hom="yes", dz="no", edz="yes"))
            except DescriptorError:
                assert not cert.is_no(), (m, n)
                blocked += 1
                continue
            assert not cert.is_yes(), (m, n)
            assert bundle.mcc.value == 1 and bundle.n_sharp.value == 0
            fired += 1
    assert blocked and fired


def test_bundles_validate():
    for m, n, g in [(11, 6, 2), (7, 3, 5), (9, 4, 2), (3, 5, 4)]:
        for d in consistent_descriptors(m, n, g):
            try:
                b = spaceform_pair_invariants(d)
            except DescriptorError:
                continue
            assert validate_bundle(b, n) == []
