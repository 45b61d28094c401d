import random

import pytest

from coincalc import (
    DescriptorError,
    INFINITE,
    IntMatrix,
    TorusPairDescriptor,
    UNKNOWN,
    circle_target_mcc,
    torus_invariants,
    user_fact,
    validate_bundle,
)
from oracles import cokernel_bruteforce_oracle, neg

FIELDS = ("mc", "mcc", "n_sharp", "n_tilde", "n", "n_z", "reidemeister")


def values(bundle):
    return tuple(getattr(bundle, f).value for f in FIELDS)


def torus_pair(m, n, rows):
    return TorusPairDescriptor(m, n, IntMatrix.from_rows(rows), True)


def test_square_torus_pair():
    b = torus_invariants(torus_pair(2, 2, [[2, 0], [0, 3]]))
    assert values(b) == (6, 6, 6, 6, 6, 6, 6)


def test_codimension_one_torus_pair():
    b = torus_invariants(torus_pair(3, 2, [[2, 0, 0], [0, 3, 0]]))
    assert b.mcc.value == 6
    assert b.mc.value is INFINITE  # m != n and MCC != 0
    assert b.reidemeister.value == 6


def test_zero_difference():
    b = torus_invariants(torus_pair(3, 2, [[0, 0, 0], [0, 0, 0]]))
    assert values(b)[:6] == (0, 0, 0, 0, 0, 0)
    assert b.reidemeister.value is INFINITE


def test_rank_deficient_square():
    b = torus_invariants(torus_pair(2, 2, [[1, 2], [2, 4]]))
    assert b.mcc.value == 0
    assert b.mc.value == 0  # MCC = 0 keeps MC finite
    assert b.reidemeister.value is INFINITE


def test_general_source_undetermined_middle():
    d = TorusPairDescriptor(
        4, 2, IntMatrix.from_rows([[3, 0], [0, 1]]), False,
        top_cohomology_pullback_nonzero=user_fact("no"),
        det_kills_top=user_fact("yes"),
    )
    b = torus_invariants(d)
    assert b.n_z.value == 0
    assert b.mcc.value is UNKNOWN  # bound chain only; witnesses exist with 0
    assert "Thm3.7" in b.mcc.trace
    assert b.reidemeister.value == 3


def test_general_source_top_pullback_nonzero():
    d = TorusPairDescriptor(
        5, 3, IntMatrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 1]]), False,
        top_cohomology_pullback_nonzero=user_fact("yes"),
    )
    b = torus_invariants(d)
    # n != 2 and nonzero top pullback pin everything except MC
    assert (b.mcc.value, b.n_sharp.value, b.n_tilde.value, b.n.value,
            b.n_z.value) == (4, 4, 4, 4, 4)
    assert b.mc.value is UNKNOWN
    assert b.reidemeister.value == 4


@pytest.mark.parametrize("top", ["yes", "no", "unknown"])
def test_general_source_tall_h1_has_infinite_reidemeister(top):
    # n = 3 rows and 2 columns: the image has rank at most 2 < n, whatever
    # the entries, so the cokernel is infinite and |det| is 0
    d = TorusPairDescriptor(
        5, 3, IntMatrix.from_rows([[2, 0], [0, 3], [10 ** 400, 7]]), False,
        top_cohomology_pullback_nonzero=user_fact(top),
        det_kills_top=user_fact("yes"))
    b = torus_invariants(d)
    assert b.reidemeister.value is INFINITE
    assert b.reidemeister.trace == ("Reid3.5", "Thm3.7")
    if top != "unknown":
        assert b.n_z.value == 0
    assert validate_bundle(b, 3) == []


def test_general_source_surface_target_keeps_bound():
    # n = 2: even a nonzero top pullback only determines N^Z
    d = TorusPairDescriptor(
        4, 2, IntMatrix.from_rows([[5, 0], [0, 1]]), False,
        top_cohomology_pullback_nonzero=user_fact("yes"),
    )
    b = torus_invariants(d)
    assert b.n_z.value == 5
    assert b.mcc.value is UNKNOWN


def test_general_source_unknown_facts():
    d = TorusPairDescriptor(
        4, 2, IntMatrix.from_rows([[5, 0], [0, 1]]), False)
    b = torus_invariants(d)
    assert b.n_z.value is UNKNOWN
    assert "needs:top_cohomology_pullback_nonzero" in b.n_z.trace


def test_general_source_top_zero_without_kill_fact():
    # vanishing top pullback alone leaves N^Z open
    d = TorusPairDescriptor(
        4, 2, IntMatrix.from_rows([[5, 0], [0, 1]]), False,
        top_cohomology_pullback_nonzero=user_fact("no"))
    b = torus_invariants(d)
    assert b.n_z.value is UNKNOWN
    assert "needs:det_kills_top" in b.n_z.trace


def test_descriptor_validation():
    with pytest.raises(DescriptorError):
        torus_pair(2, 2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # 3 rows, n = 2
    with pytest.raises(DescriptorError):
        torus_pair(3, 2, [[1, 0], [0, 1]])  # torus source needs cols = m


def test_circle_target():
    assert circle_target_mcc(0).value == 0
    assert circle_target_mcc(3).value == 3
    assert circle_target_mcc(1).value == 1
    assert circle_target_mcc(3).trace == ("Cor3.8",)
    with pytest.raises(DescriptorError):
        circle_target_mcc(-1)


def test_circle_target_agrees_with_h1_gcd():
    # the generator of the image of a 1-row matrix is the gcd of its entries
    b = torus_invariants(torus_pair(2, 1, [[2, 3]]))
    assert b.mcc.value == circle_target_mcc(1).value
    b = torus_invariants(torus_pair(2, 1, [[4, 6]]))
    assert b.mcc.value == circle_target_mcc(2).value


def test_swap_symmetry():
    rng = random.Random(11)
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        d = torus_pair(m, n, rows)
        swapped = TorusPairDescriptor(m, n, neg(d.h1_matrix), True)
        assert values(torus_invariants(d)) == values(torus_invariants(swapped))


def test_mcc_zero_iff_reidemeister_infinite():
    rng = random.Random(12)
    for _ in range(100):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        b = torus_invariants(torus_pair(m, n, rows))
        if b.reidemeister.value is INFINITE:
            assert b.mcc.value == 0
        else:
            assert b.mcc.value == b.reidemeister.value


def test_mcc_matches_bruteforce_oracle():
    rng = random.Random(13)
    for _ in range(80):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        h1 = IntMatrix.from_rows(rows)
        b = torus_invariants(TorusPairDescriptor(m, n, h1, True))
        card = cokernel_bruteforce_oracle(h1, 5)
        if card is INFINITE:
            assert b.mcc.value == 0
        else:
            assert b.mcc.value == card


def test_bundles_validate():
    rng = random.Random(14)
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        b = torus_invariants(torus_pair(m, n, rows))
        assert validate_bundle(b, n) == []
