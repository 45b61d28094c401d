import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coincalc import (
    DescriptorError,
    FGAbelianGroup,
    INFINITE,
    IntMatrix,
    abs_det_of_image,
    cokernel,
    cokernel_bruteforce_oracle,
    det_cofactor,
    invariant_factors,
    smith_normal_form,
)


def matrices(max_side=4, max_entry=9):
    side = st.integers(1, max_side)
    return st.tuples(side, side).flatmap(
        lambda rc: st.lists(
            st.lists(st.integers(-max_entry, max_entry),
                     min_size=rc[1], max_size=rc[1]),
            min_size=rc[0], max_size=rc[0],
        ).map(IntMatrix.from_rows)
    )


# -- IntMatrix basics --------------------------------------------------------


def test_matrix_validation():
    with pytest.raises(DescriptorError):
        IntMatrix(0, 1, ())
    with pytest.raises(DescriptorError):
        IntMatrix(1, 1, (1, 2))
    with pytest.raises(DescriptorError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(DescriptorError):
        IntMatrix.from_rows([[True]])  # bools are not integers here


def test_matrix_accessors():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.at(1, 2) == 6
    assert m.column(1) == (2, 5)
    assert m.neg().entries == (-1, -2, -3, -4, -5, -6)


# -- Smith normal form -------------------------------------------------------


def test_snf_identity():
    snf = smith_normal_form(IntMatrix.identity(2))
    assert snf.d.to_rows() == [[1, 0], [0, 1]]
    assert snf.u.to_rows() == [[1, 0], [0, 1]]
    assert snf.v.to_rows() == [[1, 0], [0, 1]]


def test_snf_diag_2_3():
    # diag(2,3) reduces to diag(1,6): Z/2 + Z/3 = Z/6
    snf = smith_normal_form(IntMatrix.diagonal([2, 3]))
    assert snf.divisors == (1, 6)
    assert snf.u.mul(IntMatrix.diagonal([2, 3])).mul(snf.v).to_rows() \
        == snf.d.to_rows()


def test_snf_2468():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    snf = smith_normal_form(a)
    # d1 = gcd of entries = 2; d1*d2 = |det| = 8
    assert snf.divisors == (2, 4)
    assert snf.u.mul(a).mul(snf.v).to_rows() == snf.d.to_rows()
    assert abs(det_cofactor(snf.u)) == 1
    assert abs(det_cofactor(snf.v)) == 1


def test_snf_5x5_unimodularity_by_cofactor():
    rng = random.Random(5)
    for _ in range(20):
        a = IntMatrix.from_rows(
            [[rng.randint(-7, 7) for _ in range(5)] for _ in range(5)])
        snf = smith_normal_form(a)
        assert snf.u.mul(a).mul(snf.v).to_rows() == snf.d.to_rows()
        assert abs(det_cofactor(snf.u)) == 1
        assert abs(det_cofactor(snf.v)) == 1


def test_snf_arbitrary_precision():
    big = 10 ** 30
    a = IntMatrix.from_rows([[2 * big, 3 * big + 1], [0, 5 * big]])
    snf = smith_normal_form(a)
    assert snf.u.mul(a).mul(snf.v).to_rows() == snf.d.to_rows()
    assert abs_det_of_image(a) == abs(2 * big * 5 * big)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_snf_factorization_exact(a):
    snf = smith_normal_form(a)
    assert snf.u.mul(a).mul(snf.v).to_rows() == snf.d.to_rows()
    assert abs(det_cofactor(snf.u)) == 1
    assert abs(det_cofactor(snf.v)) == 1
    k = min(a.rows, a.cols)
    diag = [snf.d.at(i, i) for i in range(k)]
    # diagonal, nonnegative, divisibility chain, zeros trailing
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert snf.d.at(i, j) == 0
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0


# -- invariant factors without transforms ------------------------------------


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_invariant_factors_match_snf_divisors(a):
    assert invariant_factors(a) == smith_normal_form(a).divisors


def test_invariant_factors_dense_thousand_digits():
    # oracle independent of the Smith routine: d1 is the gcd of the entries
    # and d1 * d2 the absolute cofactor determinant
    rng = random.Random(1000)
    common = rng.randrange(10 ** 20, 10 ** 21)
    entries = tuple(common * rng.choice((1, -1))
                    * rng.randrange(10 ** 978, 10 ** 979) for _ in range(4))
    assert all(len(str(abs(x))) == 1000 for x in entries)
    a = IntMatrix(2, 2, entries)
    det = abs(det_cofactor(a))
    assert det
    d1, d2 = invariant_factors(a)
    assert d1 == math.gcd(*entries)
    assert d1 * d2 == det


# -- abs_det_of_image --------------------------------------------------------


def test_abs_det_examples():
    assert abs_det_of_image(IntMatrix.zero(2, 2)) == 0
    assert abs_det_of_image(IntMatrix.diagonal([2, 3])) == 6
    assert abs_det_of_image(IntMatrix.from_rows([[1, 1], [0, 2]])) == 2
    # rank-deficient wide matrix
    assert abs_det_of_image(IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]])) == 0


def _random_unimodular(rng, n, shears=6):
    rows = IntMatrix.identity(n).to_rows()
    for _ in range(shears):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            rows[i] = [-x for x in rows[i]]
            continue
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        if any(abs(x) > 10 for x in rows[i]):  # keep entries bounded
            rows[i] = [x - c * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows)


def test_abs_det_invariant_under_unimodular_column_changes():
    rng = random.Random(20260810)
    for _ in range(150):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        a = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)])
        base = abs_det_of_image(a)
        v = _random_unimodular(rng, c)
        assert abs(det_cofactor(v)) == 1
        assert abs_det_of_image(a.mul(v)) == base
        # column permutation and sign changes are unimodular too
        perm = list(range(c))
        rng.shuffle(perm)
        signs = [rng.choice([1, -1]) for _ in range(c)]
        rows = [[signs[j] * row[perm[j]] for j in range(c)]
                for row in a.to_rows()]
        assert abs_det_of_image(IntMatrix.from_rows(rows)) == base


# -- cokernel ----------------------------------------------------------------


def test_cokernel_examples():
    assert cokernel(IntMatrix.identity(3)) == FGAbelianGroup()
    assert cokernel(IntMatrix.diagonal([2, 3])) == FGAbelianGroup(torsion=(6,))
    assert cokernel(IntMatrix.from_rows([[2, 3]])) == FGAbelianGroup()
    assert cokernel(IntMatrix.zero(2, 1)) == FGAbelianGroup(free_rank=2)


def test_cokernel_cardinality_matches_abs_det():
    rng = random.Random(7)
    for _ in range(200):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        a = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)])
        det = abs_det_of_image(a)
        card = cokernel(a).cardinality()
        if det == 0:
            assert card is INFINITE
        else:
            assert card == det


def test_group_invariants():
    with pytest.raises(DescriptorError):
        FGAbelianGroup(torsion=(1,))
    with pytest.raises(DescriptorError):
        FGAbelianGroup(torsion=(4, 6))  # 4 does not divide 6
    with pytest.raises(DescriptorError):
        FGAbelianGroup(free_rank=-1)
    assert FGAbelianGroup(torsion=(2, 4)).cardinality() == 8
    assert FGAbelianGroup(free_rank=1).cardinality() is INFINITE


# -- brute-force oracle ------------------------------------------------------


def test_oracle_examples():
    assert cokernel_bruteforce_oracle(IntMatrix.diagonal([2, 3]), 5) == 6
    assert cokernel_bruteforce_oracle(IntMatrix.zero(1, 1), 5) is INFINITE
    assert cokernel_bruteforce_oracle(
        IntMatrix.from_rows([[1, 0], [0, 0]]), 5) is INFINITE
    assert cokernel_bruteforce_oracle(
        IntMatrix.from_rows([[1, 1], [0, 2]]), 5) == 2


def test_oracle_rejects_oversize():
    with pytest.raises(DescriptorError):
        cokernel_bruteforce_oracle(IntMatrix.zero(5, 1), 5)
    with pytest.raises(DescriptorError):
        cokernel_bruteforce_oracle(IntMatrix.from_rows([[7]]), 5)


def test_oracle_agrees_with_cokernel_exhaustive_2x2():
    for entries in itertools.product(range(-2, 3), repeat=4):
        a = IntMatrix(2, 2, entries)
        card = cokernel(a).cardinality()
        assert cokernel_bruteforce_oracle(a, 2) == card


@settings(max_examples=300, deadline=None)
@given(matrices(max_side=3, max_entry=5))
def test_oracle_agrees_with_cokernel(a):
    assert cokernel_bruteforce_oracle(a, 5) == cokernel(a).cardinality()
