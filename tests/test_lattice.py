import itertools
import json
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coincalc import (
    DescriptorError,
    INFINITE,
    IntMatrix,
    cokernel_order,
    smith_normal_form,
)
from coincalc import lattice
from coincalc.lattice import _order_mod
from oracles import (
    column,
    cokernel_bruteforce_oracle,
    det_bareiss,
    det_cofactor,
    invariant_factors_by_minors,
    maximal_minor_gcd,
    mul,
    neg,
)

ROOT = Path(__file__).resolve().parents[1]


def _zero(rows, cols):
    return IntMatrix(rows, cols, (0,) * (rows * cols))


def _cokernel(a):
    """The torsion (the invariant factors past 1) and the free rank of
    Z^rows modulo the column lattice of ``a``."""
    factors = smith_normal_form(a).divisors
    return tuple(d for d in factors if d >= 2), a.rows - len(factors)


def _cardinality(a):
    """The size of Z^rows modulo the column lattice of ``a``."""
    return maximal_minor_gcd(a) or INFINITE


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


@pytest.mark.parametrize("bad", [True, 2.0])
def test_matrix_check_names_the_first_bad_entry(bad):
    with pytest.raises(DescriptorError) as exc:
        IntMatrix(1, 3, (1, bad, "x"))
    assert str(exc.value) == f"matrix entries must be integers, got {bad!r}"


def test_matrix_check_passes_int_subclasses_and_no_bad_entry_after_one():
    class Int(int):
        pass

    assert IntMatrix(1, 2, (Int(3), 4)).entries == (3, 4)
    with pytest.raises(DescriptorError) as exc:
        IntMatrix(1, 3, (Int(3), 4, 5.0))
    assert str(exc.value) == "matrix entries must be integers, got 5.0"


def test_matrix_accessors():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.at(1, 2) == 6
    assert column(m, 1) == (2, 5)
    assert neg(m).entries == (-1, -2, -3, -4, -5, -6)


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
    assert mul(snf.u, IntMatrix.diagonal([2, 3]), snf.v).to_rows() \
        == snf.d.to_rows()


def test_snf_2468():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    snf = smith_normal_form(a)
    # d1 = gcd of entries = 2; d1*d2 = |det| = 8
    assert snf.divisors == (2, 4)
    assert mul(snf.u, a, snf.v).to_rows() == snf.d.to_rows()
    assert abs(det_cofactor(snf.u)) == 1
    assert abs(det_cofactor(snf.v)) == 1


def test_snf_5x5_unimodularity_by_cofactor():
    rng = random.Random(5)
    for _ in range(20):
        a = IntMatrix.from_rows(
            [[rng.randint(-7, 7) for _ in range(5)] for _ in range(5)])
        snf = smith_normal_form(a)
        assert mul(snf.u, a, snf.v).to_rows() == snf.d.to_rows()
        assert abs(det_cofactor(snf.u)) == 1
        assert abs(det_cofactor(snf.v)) == 1


def test_snf_arbitrary_precision():
    big = 10 ** 30
    a = IntMatrix.from_rows([[2 * big, 3 * big + 1], [0, 5 * big]])
    snf = smith_normal_form(a)
    assert mul(snf.u, a, snf.v).to_rows() == snf.d.to_rows()
    assert _cardinality(a) == abs(2 * big * 5 * big)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_snf_factorization_exact(a):
    snf = smith_normal_form(a)
    assert mul(snf.u, a, snf.v).to_rows() == snf.d.to_rows()
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


# -- the maximal-minor gcd of a wide matrix -----------------------------------


def _with_dependent_row(a):
    rows = a.to_rows()
    rows.append([x - 2 * y for x, y in zip(rows[0], rows[-1])])
    return IntMatrix.from_rows(rows)


def _with_scaled_column(args):
    a, j, f = args
    rows = a.to_rows()
    for row in rows:
        row[j % a.cols] *= f
    return IntMatrix.from_rows(rows)


@st.composite
def unimodular(draw, n):
    rows = IntMatrix.identity(n).to_rows()
    for i, j, c in draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.integers(-2, 2)), max_size=3 * n)):
        if i != j:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows)


@st.composite
def chain_products(draw, max_side=6):
    """U * D * V with D a chain d_1 | ... | d_n, d_(n-1) > 1 and d_n
    possibly 0: the gcd of (n-1)-minors exceeds 1 whatever the pivots."""
    n = draw(st.integers(2, max_side))
    steps = draw(st.lists(st.sampled_from((1, 1, 2, 3, 5, 6)),
                          min_size=n, max_size=n))
    steps[n - 2] = draw(st.sampled_from((2, 3, 4, 9, 10)))
    chain, acc = [], 1
    for step in steps:
        acc *= step
        chain.append(acc)
    if draw(st.booleans()):
        chain[-1] = 0
    d = IntMatrix.diagonal(chain)
    return mul(draw(unimodular(n)), d, draw(unimodular(n)))


@st.composite
def udv_products(draw, max_side=7):
    """U * D * V with D an r x c diagonal chain whose steps are 1, 2, 3, 4,
    6 and 12 and whose last entries may be 0: square, wide, tall and
    rank-deficient."""
    r, c = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    k = min(r, c)
    steps = draw(st.lists(st.sampled_from((1, 1, 2, 3, 4, 6, 12)),
                          min_size=k, max_size=k))
    rank = draw(st.integers(0, k))
    chain = list(itertools.accumulate(steps, lambda x, y: x * y))
    chain[rank:] = [0] * (k - rank)
    d = IntMatrix(r, c, tuple(chain[i] if i == j else 0
                              for i in range(r) for j in range(c)))
    return mul(draw(unimodular(r)), d, draw(unimodular(c)))


def line_vectors():
    return st.lists(st.integers(-30, 30), min_size=1, max_size=8).flatmap(
        lambda xs: st.sampled_from((IntMatrix.from_rows([xs]),
                                    IntMatrix.from_rows([[x] for x in xs]))))


@settings(max_examples=600, deadline=None)
@given(st.one_of(
    matrices(max_side=6, max_entry=20),  # square, wide and tall
    matrices(max_side=5).map(_with_dependent_row),
    st.tuples(st.integers(1, 6), st.integers(1, 6)).map(
        lambda rc: _zero(*rc)),
    line_vectors(),
    st.tuples(matrices(max_side=6), st.integers(0, 5),
              st.integers(2, 12)).map(_with_scaled_column),
    chain_products(),
    udv_products(),
))
def test_invariant_factors_match_snf_divisors_by_shape(a):
    # the Smith diagonal against the quotients of the determinantal divisors
    assert smith_normal_form(a).divisors == invariant_factors_by_minors(a)


# the tests named after _smith_mod, the Smith reduction modulo g that
# _order_mod replaced, keep their names and check _order_mod; those named
# after _wide_order and _det, the wide and square kernels that _elim
# replaced, keep theirs and check _elim


def _order_mod_calls(monkeypatch):
    """Record the row count and modulus of every call of ``_order_mod``
    from ``cokernel_order``, which hands it the whole wide matrix."""
    calls = []

    def spy(rows, g):
        calls.append((len(rows), g))
        return _order_mod(rows, g)

    monkeypatch.setattr(lattice, "_order_mod", spy)
    return calls


def _wide_chain(rng, chain):
    """U * D * V with D the n x (n+1) diagonal ``chain`` and U, V random
    unimodular: a wide matrix whose cokernel order is prod(chain)."""
    n = len(chain)
    d = IntMatrix(n, n + 1, tuple(chain[i] if i == j else 0
                                  for i in range(n) for j in range(n + 1)))
    return mul(_random_unimodular(rng, n, shears=4 * n), d,
               _random_unimodular(rng, n + 1, shears=4 * (n + 1)))


@pytest.mark.parametrize("rows, order, reduced", [
    ([[-1, 2, -4, -4], [3, -3, -2, 4], [0, -1, -4, 4]], 2, []),
    ([[0, -4, -3, 0], [-2, 0, 0, -1], [-2, 0, 1, -1]], 4, [(3, 8)]),
], ids=["shortcut", "whole-rows"])
def test_wide_order_takes_each_branch(monkeypatch, rows, order, reduced):
    # the gcd g of the last row certifies itself when the last pivot minor
    # is prime to it, here g = 2 and the minor -3; else _order_mod reduces
    # the whole rows modulo g, here since the leading column is even and so
    # is every pivot minor and g = 8
    calls = _order_mod_calls(monkeypatch)
    a = IntMatrix.from_rows(rows)
    assert cokernel_order(a) == order == maximal_minor_gcd(a)
    assert calls == reduced


@pytest.mark.parametrize("chain", [
    (2, 6, 12, 24), (3, 3, 9), (4, 8),
    tuple(itertools.accumulate((10 ** 40 + 1, 2, 3, 10 ** 30 + 7),
                               lambda x, y: x * y)),
], ids=lambda chain: f"{len(chain)}x{len(chain)}")
def test_smith_mod_runs_on_a_whole_diagonal_chain(monkeypatch, chain):
    # the chain bordered by a column of ones: every row has content 1, and
    # the order is d_1 ... d_(n-1).  Each pivot minor is a multiple of the
    # first pivot, d_1 in the chain's own order and d_n reversed, which
    # shares a prime with g, so only the whole matrix qualifies
    calls = _order_mod_calls(monkeypatch)
    n = len(chain)
    for diag in (chain, chain[::-1]):
        rows = [[x if i == j else 0 for j in range(n)] + [1]
                for i, x in enumerate(diag)]
        assert cokernel_order(IntMatrix.from_rows(rows)) == math.prod(
            chain[:-1])
    assert [rows for rows, _ in calls] == [n, n]


def test_smith_mod_runs_on_the_whole_matrix_of_content_one(monkeypatch):
    # six rows of content 1 with an even leading column: so is every pivot
    # minor and g = 2, and the whole matrix is reduced
    rows = [[2, 0, 2, 1, -3, -2, 1], [-4, -1, -2, 1, 0, 3, 0],
            [-2, -1, -3, 1, -2, -1, -3], [-2, 3, -3, 0, -1, 3, 1],
            [-4, 1, 2, -2, -1, 2, 2], [-4, -3, -2, 3, -3, 0, -3]]
    calls = _order_mod_calls(monkeypatch)
    a = IntMatrix.from_rows(rows)
    assert cokernel_order(a) == 1 == maximal_minor_gcd(a)
    assert calls == [(6, 2)]


@pytest.mark.parametrize("f", [2, 9, 10 ** 6 + 3, 7 ** 100])
def test_content_is_divided_out_first(monkeypatch, f):
    # every row shares f: the order is f**6 times that of the quotient, and
    # the modulus handed to _order_mod is that of the quotient; each seed
    # draws a quotient whose last pivot minor shares a prime with g
    rng = random.Random(f % 1000 + 5)
    a = _wide_chain(rng, (1, 1, 2, 2, 6, 12))
    calls = _order_mod_calls(monkeypatch)
    assert cokernel_order(a) == 288
    quotient_calls = list(calls)
    assert quotient_calls
    scaled = IntMatrix(6, 7, tuple(f * x for x in a.entries))
    assert cokernel_order(scaled) == 288 * f ** 6
    assert calls[len(quotient_calls):] == quotient_calls


def _padded_diagonal(a):
    """s_1, ..., s_rows of ``a``: the Smith diagonal, 0 past the columns."""
    d = smith_normal_form(a).d
    return [d.at(i, i) if i < a.cols else 0 for i in range(a.rows)]


@pytest.mark.parametrize("g", [
    1, 2, 3, 8, 81, 5 ** 4, 360, 10 ** 6 + 3,  # 10**6 + 3 exceeds every entry
    7 ** 400, 2 ** 300 * 3 ** 200 * 10 ** 150,  # hundreds of digits
], ids=lambda g: f"{len(str(g))}-digit-{g % 1000}")
def test_smith_mod_is_gcd_of_factors_and_modulus(g):
    rng = random.Random(g % 10 ** 9)
    for _ in range(80):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-40, 40) for _ in range(c)] for _ in range(r)]
        if rng.random() < 0.3:
            f = rng.choice((2, 3, 4, 6, 9))
            for row in rows:
                row[0] *= f
        if rng.random() < 0.2 and r > 1:
            rows[-1] = [x + 3 * y for x, y in zip(rows[0], rows[1])]
        a = IntMatrix.from_rows(rows)
        want = math.prod(math.gcd(s, g) for s in _padded_diagonal(a))
        assert _order_mod(rows, g) == want


def test_diagonal_chain_of_thousand_digits():
    rng = random.Random(1200)
    chain, acc = [], 1
    for _ in range(4):
        acc *= rng.randrange(10 ** 299, 10 ** 300)
        chain.append(acc)
    assert len(str(chain[-1])) > 1000
    for diag in (chain, chain[::-1], chain[1::2] + chain[::2]):
        a = IntMatrix.diagonal(diag)
        assert cokernel_order(a) == maximal_minor_gcd(a) == math.prod(chain)
        assert _order_mod(a.to_rows(), chain[-1]) == math.prod(chain)


def test_udv_16x16_with_known_chain():
    chain = (1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 6, 6, 12, 60, 120, 840)
    rng = random.Random(16)
    a = mul(_random_unimodular(rng, 16, shears=60),
            IntMatrix.diagonal(chain),
            _random_unimodular(rng, 16, shears=60))
    assert len(set(a.entries)) > 20
    assert cokernel_order(a) == maximal_minor_gcd(a) == math.prod(chain)
    assert _order_mod(a.to_rows(), chain[-1]) == math.prod(chain)


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
    d1 = math.gcd(*entries)
    # both factors d1 | d2 divide det, so modulo det they come out whole,
    # and modulo d1 each leaves d1
    assert _order_mod(a.to_rows(), det) == det
    assert _order_mod(a.to_rows(), d1) == d1 ** 2
    assert cokernel_order(a) == det


def test_order_mod_counts_the_cosets_of_the_bordered_matrix():
    # the oracle counts Z^r modulo the columns of [A | g*I] without any
    # Smith routine: every shape with r <= 3 and c + r <= 4
    rng = random.Random(26)
    for r, c in [(r, c) for r in (1, 2, 3) for c in range(1, 5 - r)]:
        for g in (*range(1, 13), 30, 36):
            for _ in range(9):
                rows = [[rng.randint(-6, 6) for _ in range(c)]
                        for _ in range(r)]
                bordered = IntMatrix.from_rows(
                    [row + [g if i == j else 0 for j in range(r)]
                     for i, row in enumerate(rows)])
                assert _order_mod(rows, g) == cokernel_bruteforce_oracle(
                    bordered, max(6, g))


# -- |det| of the image: the cokernel order -----------------------------------


def test_abs_det_examples():
    # a lattice of rank below the row count has an infinite cokernel
    assert _cardinality(_zero(2, 2)) is INFINITE
    assert _cardinality(IntMatrix.diagonal([2, 3])) == 6
    assert _cardinality(IntMatrix.from_rows([[1, 1], [0, 2]])) == 2
    # rank-deficient wide matrix
    assert _cardinality(
        IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]])) is INFINITE


@st.composite
def order_matrices(draw, max_side=6):
    """Square, wide and tall matrices of 1- to 300-digit entries, some rows
    zeroed and every entry times a shared factor."""
    r, c = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    bound = 10 ** draw(st.sampled_from((1, 2, 300)))
    rows = draw(st.lists(st.lists(st.integers(-bound, bound),
                                  min_size=c, max_size=c),
                         min_size=r, max_size=r))
    for i in draw(st.sets(st.integers(0, r - 1), max_size=2)):
        rows[i] = [0] * c
    f = draw(st.sampled_from((1, 1, 2, 6, 10 ** 7 + 19, 3 ** 400)))
    return IntMatrix.from_rows([[f * x for x in row] for row in rows])


@st.composite
def singleton_row_matrices(draw, max_side=6):
    """Diagonal, lower- and upper-triangular matrices and wide ones whose
    first rows are singletons, of 1- to 300-digit entries, with zeros drawn
    on the diagonal too, and their rows and columns permuted: the shapes
    cokernel_order peels, whole or in part."""
    r = draw(st.integers(1, max_side))
    c = draw(st.integers(r, max_side + 2))
    shape = draw(st.sampled_from(("diagonal", "lower", "upper", "wide")))
    singletons = draw(st.integers(0, r))
    bound = 10 ** draw(st.sampled_from((1, 2, 300)))
    entry = st.integers(-bound, bound)
    rows = []
    for i in range(r):
        filled = {"diagonal": (), "lower": range(i),
                  "upper": range(i + 1, c),
                  "wide": () if i < singletons else range(c)}[shape]
        row = [draw(entry) if j in filled else 0 for j in range(c)]
        row[i] = draw(entry | st.just(0))
        rows.append(row)
    rows = [rows[i] for i in draw(st.permutations(range(r)))]
    cols = draw(st.permutations(range(c)))
    return IntMatrix.from_rows([[row[j] for j in cols] for row in rows])


@settings(max_examples=600, deadline=None)
@given(st.one_of(
    order_matrices(),
    matrices(max_side=6, max_entry=20),  # square, wide and tall
    matrices(max_side=5).map(_with_dependent_row),
    st.tuples(st.integers(1, 6), st.integers(1, 6)).map(
        lambda rc: _zero(*rc)),
    line_vectors(),
    st.tuples(matrices(max_side=6), st.integers(0, 5),
              st.integers(2, 12)).map(_with_scaled_column),
    chain_products(),
    udv_products(),
    singleton_row_matrices(),
))
def test_cokernel_order_is_the_cokernel_cardinality(a):
    assert cokernel_order(a) == _cardinality(a)


def test_cokernel_order_peels_singleton_rows_without_elimination(
        monkeypatch):
    # the h1 of every golden torus query is diagonal or zero, and with its
    # columns reversed a permuted diagonal; a triangular matrix is peeled
    # one row at a time
    golden = json.loads((Path(__file__).parent / "data"
                         / "golden_queries.json").read_text())
    h1s = [q["payload"]["h1"] for q in golden if q["family"] == "torus"]
    assert len(h1s) == 5
    rng = random.Random(6)
    lower = [[rng.randint(-10 ** 30, 10 ** 30) if j < i else
              (i + 2 if j == i else 0) for j in range(6)] for i in range(6)]
    upper = [row[::-1] for row in lower[::-1]]
    calls = []
    elim = lattice._elim

    def spy(rows):
        calls.append(rows)
        return elim(rows)

    monkeypatch.setattr(lattice, "_elim", spy)
    assert [cokernel_order(IntMatrix.from_rows(h1)) for h1 in h1s] == [
        6, 6, INFINITE, 3, 4]
    assert [cokernel_order(IntMatrix.from_rows([row[::-1] for row in h1]))
            for h1 in h1s] == [6, 6, INFINITE, 3, 4]
    assert cokernel_order(IntMatrix.from_rows(lower)) == 5040
    assert cokernel_order(IntMatrix.from_rows(upper)) == 5040
    assert calls == []
    # past the singleton row, a dense 2x2 block takes the elimination
    assert cokernel_order(IntMatrix.from_rows(
        [[5, 0, 0], [7, 1, 2], [1, 3, 4]])) == 10
    assert calls == [[[1, 2], [3, 4]]]


@st.composite
def det_matrices(draw, max_side=8):
    """Square matrices of entries in -9..9, some with a zero leading column,
    with zero leading entries above the first nonzero one, with a second
    column that is a multiple of the first, which leaves no nonzero 2x2
    leading minor, or with a row that is a combination of two others."""
    n = draw(st.integers(1, max_side))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n,
                                  max_size=n), min_size=n, max_size=n))
    for i in range(draw(st.integers(0, n))):
        rows[i][0] = 0
    if n > 1 and draw(st.booleans()):
        f = draw(st.integers(-3, 3))
        for row in rows:
            row[1] = f * row[0]
    if n > 2 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        f, g = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[i] = [f * x + g * y for x, y in zip(rows[j], rows[k])]
    return rows


@settings(max_examples=400, deadline=None)
@given(det_matrices())
def test_det_is_the_determinant_up_to_sign(rows):
    # cofactor expansion up to 5x5, and past it the one-column elimination
    # of the oracles, which shares no code with the two-column _elim; a
    # square ends on one entry, +-det, or on None when singular
    before = [row[:] for row in rows]
    expected = (det_cofactor(IntMatrix.from_rows(rows)) if len(rows) <= 5
                else det_bareiss(rows))
    end = lattice._elim(rows)
    if end is None:
        assert expected == 0
    else:
        (det,), _ = end
        assert abs(det) == abs(expected)
    assert rows == before


def _workload_squares():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import build
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return [q["payload"]["h1"] for name in ("torus-lattice", "bigint")
            for q in build(name, 1, ROOT).queries
            if q["family"] == "torus"
            and len(q["payload"]["h1"]) == len(q["payload"]["h1"][0])]


def test_det_agrees_with_the_wide_kernel():
    # every square h1 of the seed-1 torus-lattice and bigint rounds, and a
    # random 64x64 at the digit cap, bordered in front by a zero column: the
    # wide path divides out row contents, drops that column, and certifies
    # the last row's gcd or reduces the whole matrix modulo it, to the same
    # order
    from coincalc.cli import MAX_MATRIX_DIGITS, _digits
    bound = 10 ** (MAX_MATRIX_DIGITS // 64 ** 2)
    rng = random.Random(64)
    cap = [[rng.randint(-bound, bound) for _ in range(64)] for _ in range(64)]
    assert 0.8 * MAX_MATRIX_DIGITS < sum(_digits(x) for row in cap
                                         for x in row) <= MAX_MATRIX_DIGITS
    squares = _workload_squares() + [cap]
    assert sum(len(rows) > 4 for rows in squares) > 100
    singular = 0
    for rows in squares:
        order = cokernel_order(IntMatrix.from_rows(rows))
        assert order == cokernel_order(
            IntMatrix.from_rows([[0, *row] for row in rows]))
        singular += order is INFINITE
    assert singular > 0


def test_cokernel_order_counts_no_zeros_of_a_matrix_without_singletons(
        monkeypatch):
    # a singleton row of a 3x3 matrix holds two zeros, so one with a single
    # zero has none, and no row's zeros are counted
    calls = []
    count = lattice._count_zeros

    def spy(row):
        calls.append(row)
        return count(row)

    monkeypatch.setattr(lattice, "_count_zeros", spy)
    assert cokernel_order(IntMatrix.from_rows(
        [[2, 0, 1], [1, 3, 1], [1, 1, 4]])) == 20
    assert calls == []
    # two zeros in a row make it a singleton, which is peeled
    assert cokernel_order(IntMatrix.from_rows(
        [[2, 0, 0], [1, 3, 1], [1, 1, 4]])) == 22
    assert calls


def test_cokernel_order_of_square_and_tall_never_reaches_smith_mod(
        monkeypatch):
    rng = random.Random(64)
    udv = mul(_random_unimodular(rng, 6, shears=24),
              IntMatrix.diagonal((1, 1, 2, 2, 6, 12)),
              _random_unimodular(rng, 6, shears=24))
    square = [IntMatrix.diagonal((2, 6, 12, 24)),
              IntMatrix.diagonal((2, 3, 6)),
              udv,
              IntMatrix(6, 6, tuple((10 ** 7 + 19) * x for x in udv.entries)),
              _with_dependent_row(IntMatrix.from_rows([[2, 0, 0],
                                                       [0, 6, 0]]))]
    tall = [IntMatrix.from_rows(rows + [[x + y for x, y in zip(*rows[:2])]])
            for rows in (a.to_rows() for a in square[:4])]
    calls = _order_mod_calls(monkeypatch)
    assert [cokernel_order(a) for a in square] == [3456, 36, 288,
                                                  288 * (10 ** 7 + 19) ** 6,
                                                  INFINITE]
    assert [cokernel_order(a) for a in tall] == [INFINITE] * 4
    assert calls == []
    # the dense ones, bordered by a zero column, reach it through the wide
    # kernel
    for a in square[2:4]:
        rows = [row + [0] for row in a.to_rows()]
        assert cokernel_order(IntMatrix.from_rows(rows)) == cokernel_order(a)
    assert len(calls) == 2


@st.composite
def row_factor_matrices(draw, max_rows=6):
    """Wide matrices whose rows each carry a factor of their own, of up to
    seven digits, with up to two rows zeroed."""
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(r + 1, r + 3))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=c,
                                  max_size=c), min_size=r, max_size=r))
    factors = draw(st.lists(st.sampled_from((1, 2, 6, 10 ** 6 + 3))
                            | st.integers(1, 10 ** 7), min_size=r,
                            max_size=r))
    for i in draw(st.sets(st.integers(0, r - 1), max_size=2)):
        rows[i] = [0] * c
    return IntMatrix.from_rows([[f * x for x in row]
                                for f, row in zip(factors, rows)])


@st.composite
def wide_matrices(draw, max_rows=5):
    """Wide r x c matrices, r <= 5 and c <= r + 3, of two kinds: L * D * B
    with L unit lower-bidiagonal, D a diagonal of small factors and B of
    entries in -2..2, whose factors hide; or 1- to 300-digit entries.  Then
    leading and other columns zeroed, a column made a multiple of another,
    often column 1 of column 0, which leaves no nonzero 2x2 leading minor,
    a row made a combination of others and rows given factors of their
    own, each drawn."""
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(r + 1, r + 3))
    if draw(st.booleans()):
        b = draw(st.lists(st.lists(st.integers(-2, 2), min_size=c,
                                   max_size=c), min_size=r, max_size=r))
        d = draw(st.lists(st.sampled_from((1, 2, 3, 4, 6, 12)),
                          min_size=r, max_size=r))
        below = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
        rows = [[d[i] * x + (below[i] * d[i - 1] * y if i else 0)
                 for x, y in zip(b[i], b[i - 1])] for i in range(r)]
    else:
        bound = 10 ** draw(st.sampled_from((1, 2, 300)))
        rows = draw(st.lists(st.lists(st.integers(-bound, bound),
                                      min_size=c, max_size=c),
                             min_size=r, max_size=r))
    zeroed = set(range(draw(st.integers(0, 2))))
    zeroed |= draw(st.sets(st.integers(0, c - 1), max_size=1))
    rows = [[0 if j in zeroed else x for j, x in enumerate(row)]
            for row in rows]
    if draw(st.booleans()):
        j, k = draw(st.just((1, 0)) | st.permutations(range(c)).map(
            lambda perm: perm[:2]))
        f = draw(st.integers(-3, 3))
        for row in rows:
            row[j] = f * row[k]
    if r > 1 and draw(st.booleans()):
        perm = draw(st.permutations(range(r)))
        i, j, k = perm[0], perm[1], perm[-1]  # j = k when r = 2
        f, g = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[i] = [f * x + g * y for x, y in zip(rows[j], rows[k])]
    factors = draw(st.lists(st.sampled_from((1, 1, 2, 6, 10 ** 6 + 3)),
                            min_size=r, max_size=r))
    return IntMatrix.from_rows([[f * x for x in row]
                                for f, row in zip(factors, rows)])


@settings(max_examples=500, deadline=None)
@given(st.one_of(wide_matrices(), row_factor_matrices(), order_matrices()))
def test_cokernel_order_is_the_maximal_minor_gcd(a):
    assert cokernel_order(a) == (maximal_minor_gcd(a) or INFINITE)


def test_cokernel_order_divides_out_row_factors_at_the_digit_cap():
    # the slowest shape before row contents were divided out: 63x64 at
    # the cap, each row with its own 7-digit factor.  Every maximal minor
    # holds each row once, so the order is the product of the factors times
    # that of the matrix without them.
    from coincalc.cli import MAX_MATRIX_DIGITS, _digits
    rng = random.Random(63)
    b = [[rng.randint(-9, 9) for _ in range(64)] for _ in range(63)]
    c = [rng.randint(10 ** 6, 10 ** 7 - 1) for _ in range(63)]
    a = IntMatrix.from_rows([[f * x for x in row] for f, row in zip(c, b)])
    assert 0.9 * MAX_MATRIX_DIGITS < sum(map(_digits, a.entries)) \
        <= MAX_MATRIX_DIGITS
    quotient = cokernel_order(IntMatrix.from_rows(b))
    assert quotient is not INFINITE
    assert cokernel_order(a) == math.prod(c) * quotient


def _hidden_factor(rng, r):
    """(L * D * B, D) for an r x (r+1) B of entries in -2..2, D a diagonal
    of 7-digit factors and L unit lower-bidiagonal with its subdiagonal in
    -2..2: the factors of D hide in every pivot minor."""
    b = [[rng.randint(-2, 2) for _ in range(r + 1)] for _ in range(r)]
    d = [rng.randint(10 ** 6, 10 ** 7 - 1) for _ in range(r)]
    below = [rng.randint(-2, 2) for _ in range(r)]
    rows = [[d[i] * x + (below[i] * d[i - 1] * y if i else 0)
             for x, y in zip(b[i], b[i - 1])] for i in range(r)]
    return IntMatrix.from_rows(rows), IntMatrix.from_rows(b), d


def test_cokernel_order_reduces_the_whole_matrix_at_the_digit_cap(
        monkeypatch):
    # the slowest shape admitted: a hidden-factor 63x64 whose every pivot
    # minor shares a factor of D with g, so that the whole matrix is
    # reduced modulo g.  Its maximal minors are prod(D) times those of B
    # (Cauchy-Binet), since det L = 1.
    from coincalc.cli import MAX_MATRIX_DIGITS, _digits
    a, b, d = _hidden_factor(random.Random(1), 63)
    assert 0.85 * MAX_MATRIX_DIGITS < sum(map(_digits, a.entries)) \
        <= MAX_MATRIX_DIGITS
    quotient = cokernel_order(b)
    assert quotient is not INFINITE
    calls = _order_mod_calls(monkeypatch)
    assert cokernel_order(a) == math.prod(d) * quotient
    assert 63 in [rows for rows, _ in calls]


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
        base = _cardinality(a)
        v = _random_unimodular(rng, c)
        assert abs(det_cofactor(v)) == 1
        assert _cardinality(mul(a, v)) == base
        # column permutation and sign changes are unimodular too
        perm = list(range(c))
        rng.shuffle(perm)
        signs = [rng.choice([1, -1]) for _ in range(c)]
        rows = [[signs[j] * row[perm[j]] for j in range(c)]
                for row in a.to_rows()]
        assert _cardinality(IntMatrix.from_rows(rows)) == base


# -- cokernel ----------------------------------------------------------------


def test_cokernel_examples():
    assert _cokernel(IntMatrix.identity(3)) == ((), 0)
    assert _cokernel(IntMatrix.diagonal([2, 3])) == ((6,), 0)
    assert _cokernel(IntMatrix.from_rows([[2, 3]])) == ((), 0)
    assert _cokernel(_zero(2, 1)) == ((), 2)


def test_cokernel_cardinality_matches_abs_det():
    rng = random.Random(7)
    for _ in range(200):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        a = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)])
        # |det| of the image lattice is the gcd of the maximal minors, 0
        # below full rank (and with no minors at all when c < r)
        det = math.gcd(*(
            det_cofactor(IntMatrix.from_rows(
                [[row[j] for j in cols] for row in a.to_rows()]))
            for cols in itertools.combinations(range(c), r)))
        card = _cardinality(a)
        if det == 0:
            assert card is INFINITE
        else:
            assert card == det


# -- brute-force oracle ------------------------------------------------------


def test_oracle_examples():
    assert cokernel_bruteforce_oracle(IntMatrix.diagonal([2, 3]), 5) == 6
    assert cokernel_bruteforce_oracle(_zero(1, 1), 5) is INFINITE
    assert cokernel_bruteforce_oracle(
        IntMatrix.from_rows([[1, 0], [0, 0]]), 5) is INFINITE
    assert cokernel_bruteforce_oracle(
        IntMatrix.from_rows([[1, 1], [0, 2]]), 5) == 2


def test_oracle_rejects_oversize():
    with pytest.raises(DescriptorError):
        cokernel_bruteforce_oracle(_zero(5, 1), 5)
    with pytest.raises(DescriptorError):
        cokernel_bruteforce_oracle(IntMatrix.from_rows([[7]]), 5)


def test_oracle_agrees_with_cokernel_exhaustive_2x2():
    for entries in itertools.product(range(-2, 3), repeat=4):
        a = IntMatrix(2, 2, entries)
        card = _cardinality(a)
        assert cokernel_bruteforce_oracle(a, 2) == card


@settings(max_examples=300, deadline=None)
@given(matrices(max_side=3, max_entry=5))
def test_oracle_agrees_with_cokernel(a):
    assert cokernel_bruteforce_oracle(a, 5) == _cardinality(a)
