"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report; every expected value is pinned here, nothing is deferred.
"""

import itertools
import json
import random
import time
from pathlib import Path

from coincalc import (
    DescriptorError,
    INFINITE,
    IntMatrix,
    ProjectiveField,
    ProjectivePairDescriptor,
    SpaceFormPairDescriptor,
    SphereClassDescriptor,
    StiefelQuery,
    TorusPairDescriptor,
    UNKNOWN,
    WeckenQuery,
    hopf_case,
    overlap_disagreements,
    projective_classify,
    projective_invariants,
    spaceform_pair_invariants,
    sphere_invariants,
    stiefel_selfcoincidence,
    torus_invariants,
    user_fact,
    wecken_condition,
)
from coincalc.tables import FactBase, lint_text
from factfiles import factbase_text, shipped_factbase
from oracles import cokernel_bruteforce_oracle

DATA = Path(__file__).parent / "data"


def report(number, text):
    print(f"[acceptance] criterion {number}: PASS - {text}")


def stiefel_value(r, k):
    b = stiefel_selfcoincidence(StiefelQuery(r, k))
    return b.mcc.value


def test_criterion_1_stiefel_suite():
    start = time.monotonic()
    for r in range(5, 41):
        assert stiefel_value(r, 2) == 0, (r, 2)
    for r in range(7, 50, 2):
        expected = 0 if r % 12 == 1 else 1
        assert stiefel_value(r, 3) == expected, (r, 3)
    for r in range(10, 41):
        expected = 0 if r % 6 != 5 else 1
        assert stiefel_value(r, 5) == expected, (r, 5)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"stiefel suite took {elapsed:.2f}s"
    report(1, f"k=2/3/5 families match the three corollaries "
              f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_torus_against_oracle():
    start = time.monotonic()
    rng = random.Random(1918)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        h1 = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)])
        bundle = torus_invariants(TorusPairDescriptor(m, n, h1, True))
        card = cokernel_bruteforce_oracle(h1, 5)
        if card is INFINITE:
            assert bundle.mcc.value == 0
            assert bundle.reidemeister.value is INFINITE
        else:
            assert bundle.mcc.value == card
            assert bundle.reidemeister.value == card
        checked += 1
    elapsed = time.monotonic() - start
    assert checked == 200
    assert elapsed < 10.0, f"torus suite took {elapsed:.2f}s"
    report(2, f"200 random pairs agree with the union-find oracle "
              f"({elapsed:.2f} s)")


def test_criterion_3_sphere_examples():
    b = sphere_invariants(SphereClassDescriptor(1, 1, degrees=(2, 5)))
    assert [getattr(b, f).value for f in
            ("mc", "mcc", "n_sharp", "n_tilde", "n", "n_z",
             "reidemeister")] == [3, 3, 3, 3, 3, 3, 3]

    b = sphere_invariants(SphereClassDescriptor(
        3, 2, f1_homotopic_a_f2=user_fact("yes")))
    assert all(getattr(b, f).value == 0 for f in
               ("mc", "mcc", "n_sharp", "n_tilde", "n", "n_z"))
    assert b.reidemeister.value == 1

    odd_hopf = sphere_invariants(SphereClassDescriptor(
        3, 2,
        f1_homotopic_a_f2=user_fact("no"),
        in_suspension_image=user_fact("no"),
        stable_suspension_nonzero=user_fact("yes")))
    assert (odd_hopf.mcc.value, odd_hopf.n_sharp.value,
            odd_hopf.n_tilde.value, odd_hopf.n.value,
            odd_hopf.n_z.value) == (1, 1, 1, 1, 0)

    even_hopf = sphere_invariants(SphereClassDescriptor(
        3, 2,
        f1_homotopic_a_f2=user_fact("no"),
        in_suspension_image=user_fact("no"),
        stable_suspension_nonzero=user_fact("no"),
        some_stable_hopf_james_nonzero=user_fact("yes")))
    assert (even_hopf.n_tilde.value, even_hopf.n.value) == (1, 0)
    assert (even_hopf.mcc.value, even_hopf.n_z.value) == (1, 0)
    report(3, "the (3,2) Hopf-invariant parity split and both base cases "
              "reproduce")


def _expected_spaceform(m, n, g, hom, dz, edz):
    if hom == "yes" and dz == "no" and edz == "yes":
        return (1, 0, True)
    if m < n or (hom == "yes" and edz == "yes"):
        return (0, 0, False)
    if hom == "yes" and edz == "no":
        return (1, 1, False)
    return (g, g, False)


def test_criterion_4_spaceform_case_split():
    exceptions_seen = []
    checked = 0
    for g in (2, 3, 5, 8):
        for n in range(2, 21):
            if g >= 3 and n % 2 == 0:
                continue
            for m in range(2, 21):
                for hom, dz, edz in itertools.product(("yes", "no"),
                                                      repeat=3):
                    if n % 2 and dz == "no":
                        continue  # odd n forces a vanishing boundary
                    if dz == "yes" and edz == "no":
                        continue
                    if m < n and (hom == "no" or dz == "no"):
                        continue  # below the target dimension everything
                        # is nullhomotopic and the boundary class vanishes
                    d = SpaceFormPairDescriptor(
                        m, n, g,
                        homotopic=user_fact(hom),
                        del_zero=user_fact(dz),
                        e_del_zero=user_fact(edz))
                    try:
                        bundle = spaceform_pair_invariants(d)
                    except DescriptorError:
                        # exceptional combination contradicting a Wecken
                        # certificate: not a consistent assignment
                        assert (hom, dz, edz) == ("yes", "no", "yes")
                        continue
                    mcc, n_sharp, is_exception = _expected_spaceform(
                        m, n, g, hom, dz, edz)
                    assert bundle.mcc.value == mcc, (m, n, g, hom, dz, edz)
                    assert bundle.n_sharp.value == n_sharp
                    if is_exception:
                        exceptions_seen.append((m, n, g))
                    checked += 1
    assert exceptions_seen, "the exceptional branch never fired"
    for m, n, g in exceptions_seen:
        assert n % 2 == 0 and g == 2

    # the (11, 6) scenario with Hopf invariant 2 mod 4
    d = SpaceFormPairDescriptor(
        11, 6, 2, homotopic=user_fact("yes"), del_zero=user_fact("no"),
        e_del_zero=user_fact("yes"), hopf_mod4=2)
    bundle = spaceform_pair_invariants(d)
    assert bundle.mcc.value == 1 and bundle.n_sharp.value == 0
    assert hopf_case(d).is_no()  # not loose, although N# = 0
    report(4, f"four-way split over {checked} consistent descriptors; "
              f"exception fires only for even n with a group of order 2")


def test_criterion_5_wecken_catalogue():
    expected_no = {(11, 6)}
    for n in (16, 32, 64):
        if 2 * n - 2 <= 64:
            expected_no.add((2 * n - 2, n))
    for n in range(6, 33, 4):
        if 2 * n - 1 <= 64:
            expected_no.add((2 * n - 1, n))
    seen_no = set()
    seen_unknown = set()
    for m in range(1, 65):
        for n in range(1, 65):
            fact = wecken_condition(WeckenQuery(m, n))
            if fact.is_no():
                seen_no.add((m, n))
            elif fact.is_unknown():
                seen_unknown.add((m, n))
                assert fact.rule == "R8", (m, n)
    assert seen_no == expected_no
    # the open Kervaire row sits outside the 64-grid
    open_row = wecken_condition(WeckenQuery(254, 128))
    assert open_row.is_unknown() and open_row.rule == "R5"
    assert overlap_disagreements() == []
    report(5, f"exception catalogue exact on the 64x64 grid "
              f"({len(seen_no)} failures, {len(seen_unknown)} honest gaps), "
              f"overlap scan clean")


def test_criterion_6_projective_rows():
    expected = {1: (0, 0, 0), 2: (0, 1, 1), 3: (1, 1, 1), 4: (2, 2, 2),
                5: (2, 2, INFINITE), 6: (1, 1, 1), 7: (1, 1, INFINITE)}
    fields = ("yes", "no")

    def check(descriptor):
        row = projective_classify(descriptor)
        assert row in expected
        b = projective_invariants(descriptor)
        n_sharp, mcc, mc = expected[row]
        assert (b.n_sharp.value, b.mcc.value, b.mc.value) == \
            (n_sharp, mcc, mc)
        return row

    rows_seen = set()
    for f, kd, ked, susp in itertools.product(fields, repeat=4):
        if kd == "yes" and ked == "no":
            continue
        d = ProjectivePairDescriptor(
            ProjectiveField.R, 3, 8,
            fprime_homotopic=user_fact(f),
            lift2_in_ker_del=user_fact(kd),
            lift2_in_ker_Edel=user_fact(ked),
            lift2_antipodal_selfhomotopic=user_fact(ked),
            lifts_differ_by_suspension=user_fact(susp))
        rows_seen.add(check(d))
    for field in (ProjectiveField.C, ProjectiveField.H):
        for eq, kd, ked in itertools.product(fields, repeat=3):
            if kd == "yes" and ked == "no":
                continue
            d = ProjectivePairDescriptor(
                field, 2, 9,
                fprime_homotopic=user_fact(eq),
                lift2_in_ker_del=user_fact(kd),
                lift2_in_ker_Edel=user_fact(ked),
                lifts_equal=user_fact(eq))
            rows_seen.add(check(d))
    assert rows_seen == {1, 2, 3, 4, 5, 6, 7}
    report(6, "all seven rows reproduce their (N#, MCC, MC) triples; "
              "row match unique over the finite descriptor space")


def _ext(value):
    if value == "infinite":
        return INFINITE
    if value == "unknown":
        return UNKNOWN
    return value


def _le(a, b):
    if b is INFINITE:
        return True
    if a is INFINITE:
        return False
    return a <= b


def test_criterion_7_golden_corpus_validates():
    queries = {q["id"]: q for q in
               json.loads((DATA / "golden_queries.json").read_text())}
    answers = json.loads((DATA / "golden_answers.json").read_text())
    chain = ("mc", "mcc", "n_sharp", "n_tilde", "n", "n_z")
    bundles = 0
    for answer in answers:
        assert "error" not in answer
        inv = answer["invariants"]
        if "mc" not in inv:
            continue  # fact-valued wecken/fixedpoint answers
        payload = queries[answer["id"]]["payload"]
        family = queries[answer["id"]]["family"]
        if family == "projective":
            n = payload["n_prime"] * {"R": 1, "C": 2, "H": 4}[payload["field"]]
        elif family == "stiefel":
            n = payload["k"] * (payload["r"] - payload["k"])
        else:
            n = payload["n"]
        values = {f: _ext(inv[f]["value"]) for f in chain}
        values["reidemeister"] = _ext(inv["reidemeister"]["value"])
        for i, hi in enumerate(chain):
            for lo in chain[i + 1:]:
                if values[hi] is UNKNOWN or values[lo] is UNKNOWN:
                    continue
                assert _le(values[lo], values[hi]), (answer["id"], hi, lo)
        if n != 2 and values["mcc"] is not UNKNOWN \
                and values["reidemeister"] is not UNKNOWN:
            assert _le(values["mcc"], values["reidemeister"]), answer["id"]
        for name, entry in inv.items():
            if entry["value"] != "unknown":
                assert entry["trace"], (answer["id"], name)
        bundles += 1
    assert bundles >= 25
    report(7, f"{bundles} golden bundles satisfy the inequality chain and "
              f"carry nonempty traces")


def test_criterion_8_factbase_linter():
    raw = Path(FactBase.bundled_path()).read_text()
    assert lint_text(raw) == []
    doc = shipped_factbase()
    doc["pinpoints"][0]["order"] = 2  # pi_10(S^6) is trivial
    problems = lint_text(factbase_text(doc))
    assert problems == [(4, "pinpoints[0]: a trivial group has order 1")]
    report(8, "shipped fact base lints clean; a single corrupted pinpoint "
              "order is caught with its line number")
