"""Exact integer linear algebra: the cokernel order, which answers every
torus query, and the Smith normal form.

Everything runs on Python's arbitrary-precision integers; no intermediate
value is allowed to overflow because none can.  Two fraction-free
(Bareiss) eliminations serve ``cokernel_order``.  ``_det`` eliminates two
columns per pass: every entry left becomes a 3x3 minor of the block
divided by prev^2, prev the pivot minor of the pass before, an exact
division by Sylvester's identity.  ``_wide_order`` eliminates one column
per step, on odd pivots where it can, since its fallback may need the
block of any step.  ``cokernel_order`` first peels singleton rows, those
with one nonzero entry x: the order is |x| times that of the matrix
without x's row and column, so diagonal and triangular matrices, permuted
or not, take no elimination.  Of a square matrix left it reads |det| from
``_det``, INFINITE when that is 0.  Only a wide matrix needs more, the gcd
of its maximal minors: the product of its row contents and of the
maximal-minor gcd of the rows divided by them.

``_wide_order`` builds no transforms.  Its elimination ends in one row of
maximal minors, whose gcd g is a multiple of the answer, and the answer
itself when the last pivot minor is prime to g.  Otherwise, since by
Sylvester's identity each block of the elimination is its pivot minor
times a Schur complement, one sweep of column operations modulo g
(``_order_mod``), whose entries never outgrow it, reads the answer off the
latest block of the last few whose pivot minor is prime to g, and off the
whole matrix only when none is.

``smith_normal_form`` runs the gcd-pivot elimination ``_reduce`` with the
U and V transforms, so the factorization D = U * A * V is returned and can
be checked exactly.  No answer calls it.  Its ``divisors`` are the
invariant factors of A, and the cokernel of A is the torsion of those past
1 plus a free part of rank rows - len(divisors); the tests check
``cokernel_order`` against them and against the minor, determinant and
coset-counting oracles of ``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
from collections import deque
from math import gcd, prod
from operator import methodcaller
from typing import NamedTuple, Sequence

from .errors import DescriptorError
from .verdict import INFINITE, ExtNat, Record, _set

_INT_ONLY = frozenset({int})
_count_zeros = methodcaller("count", 0)

# how many steps back from its last one _wide_order keeps the blocks of its
# elimination, on which _order_mod may run
_WINDOW = 4


def _check_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise DescriptorError(f"matrix entries must be integers, got {x!r}")
    return x


class IntMatrix(Record):
    """Rectangular integer matrix, row-major, immutable."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]):
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "entries", entries)
        self.__post_init__()

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DescriptorError("matrix needs at least one row and column")
        if len(self.entries) != self.rows * self.cols:
            raise DescriptorError(
                f"expected {self.rows * self.cols} entries, "
                f"got {len(self.entries)}"
            )
        # one pass in C over the entry types; an int subclass or a bad
        # entry falls back to the check per entry, which names the first
        # bad one
        if not _INT_ONLY.issuperset(map(type, self.entries)):
            for x in self.entries:
                _check_int(x)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        if not rows or not rows[0]:
            raise DescriptorError("matrix needs at least one row and column")
        width = len(rows[0])
        flat = []
        for row in rows:
            if len(row) != width:
                raise DescriptorError("ragged rows in matrix literal")
            flat.extend(row)
        return cls(len(rows), width, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0
                               for i in range(n) for j in range(n)))

    @classmethod
    def diagonal(cls, diag: Sequence[int]) -> "IntMatrix":
        n = len(diag)
        return cls(n, n, tuple(diag[i] if i == j else 0
                               for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        return [list(self.entries[i * self.cols:(i + 1) * self.cols])
                for i in range(self.rows)]


class SmithNormalForm(NamedTuple):
    d: IntMatrix  # diagonal, nonnegative, divisibility chain
    u: IntMatrix  # rows x rows, det +-1
    v: IntMatrix  # cols x cols, det +-1

    @property
    def divisors(self) -> tuple[int, ...]:
        """The nonzero diagonal entries d_1 | d_2 | ..."""
        k = min(self.d.rows, self.d.cols)
        return tuple(x for x in (self.d.at(i, i) for i in range(k)) if x)


def _reduce(d: list[list[int]], u: list[list[int]],
            v: list[list[int]]) -> None:
    """Diagonalize the rows ``d`` in place: afterwards the diagonal is
    nonnegative, sorted by divisibility and zero-padded, and every entry
    off it is zero.  Each row operation is repeated on ``u`` and each column
    operation on ``v``, so that identity starting transforms end as U and V
    with D = U * A * V."""
    r, c = len(d), len(d[0])

    def row_sub(i, k, q):  # row_i -= q * row_k
        if q:
            d[i] = [x - q * y for x, y in zip(d[i], d[k])]
            u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def col_sub(j, k, q):  # col_j -= q * col_k
        if q:
            for row in itertools.chain(d, v):
                row[j] -= q * row[k]

    def swap_rows(i, k):
        if i != k:
            d[i], d[k] = d[k], d[i]
            u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        if j != k:
            for row in itertools.chain(d, v):
                row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(r, c):
        # pick the absolutely smallest nonzero entry of the submatrix
        pivot = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                x = d[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break  # submatrix is zero; trailing diagonal entries stay 0
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        dirty = False
        for i in range(t + 1, r):
            if d[i][t]:
                row_sub(i, t, d[i][t] // d[t][t])
                if d[i][t]:
                    dirty = True
        for j in range(t + 1, c):
            if d[t][j]:
                col_sub(j, t, d[t][j] // d[t][t])
                if d[t][j]:
                    dirty = True
        if dirty:
            continue  # a remainder smaller than the pivot appeared

        # pivot must divide the whole remaining submatrix
        offender = None
        for i in range(t + 1, r):
            if any(d[i][j] % d[t][t] for j in range(t + 1, c)):
                offender = i
                break
        if offender is not None:
            row_sub(t, offender, -1)  # pull the offending row into row t
            continue
        t += 1

    for i in range(min(r, c)):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]


def smith_normal_form(a: IntMatrix) -> SmithNormalForm:
    """Diagonalize by unimodular transforms: returns (D, U, V) with
    D = U * a * V, diagonal entries nonnegative and sorted by divisibility.

    No answer calls this: it is library API, and its ``divisors``, the
    invariant factors of a, are a test reference for ``cokernel_order``."""
    d = a.to_rows()
    u = IntMatrix.identity(a.rows).to_rows()
    v = IntMatrix.identity(a.cols).to_rows()
    _reduce(d, u, v)
    return SmithNormalForm(
        IntMatrix.from_rows(d), IntMatrix.from_rows(u), IntMatrix.from_rows(v)
    )


def _xgcd_step(a: int, b: int) -> tuple[int, int, int, int]:
    """(s, u, a/h, b/h) for a, b > 0 with h = gcd(a, b) = s*a + u*b, so
    that [[s, u], [-b/h, a/h]] is unimodular and maps (a, b) to (h, 0)."""
    h = gcd(a, b)
    a_h, b_h = a // h, b // h
    s = pow(a_h, -1, b_h)
    return s, (h - s * a) // b, a_h, b_h


def _order_mod(rows: list[list[int]], g: int) -> int:
    """The index in Z^r of L = A*Z^c + g*Z^r for the r x c A = ``rows`` and
    g >= 1: the product of gcd(s_i, g) over the invariant factors s_i of A,
    with g where s_i is 0 or missing.

    The columns g*e_t make every entry count only modulo g, so entries stay
    in [0, g).  One top-down sweep of column operations, which leave L as
    it is, makes its basis lower triangular: row t folds every column into
    its first one with a nonzero entry there, the pivot, by a subtraction
    where the pivot's entry p divides the column's and a 2x2 extended-gcd
    step otherwise.  Folding in g*e_t too leaves h = gcd(p, g) on the
    diagonal, g when no column reaches row t, and (g/h) times the pivot's
    part below row t as a column of its own.  The index is the product of
    the diagonal."""
    cols = [[x % g for x in col] for col in zip(*rows)]
    order = 1
    for _ in rows:
        pivot, rest = None, []
        for col in cols:
            b = col[0]
            if not b:
                rest.append(col[1:])
            elif pivot is None:
                pivot, p = col, b
            elif b % p == 0:
                q = b // p
                rest.append([(x - q * y) % g
                             for x, y in zip(col[1:], pivot[1:])])
            else:
                s, u, a_h, b_h = _xgcd_step(p, b)
                rest.append([(a_h * x - b_h * y) % g
                             for x, y in zip(col[1:], pivot[1:])])
                pivot = [(s * y + u * x) % g for x, y in zip(col, pivot)]
                p = pivot[0]
        if pivot is None:
            order *= g
        else:
            h = gcd(p, g)
            order *= h
            if h > 1:
                k = g // h
                rest.append([k * x % g for x in pivot[1:]])
        cols = rest
    return order


def _bareiss_step(block: list[list[int]], i: int,
                  prev: int) -> list[list[int]]:
    """The block after one fraction-free (Bareiss) step that eliminates
    the leading column of ``block`` on the pivot p = block[i][0], the
    previous pivot being ``prev``: row i and the leading column are gone,
    and every entry is a minor one larger than before.  A row whose leading
    entry is 0 is only rescaled by p over ``prev``."""
    top = block[i]
    p, top = top[0], top[1:]
    nxt = []
    for row in block[:i] + block[i + 1:]:
        x0 = row[0]
        if x0:
            nxt.append([(p * x - x0 * y) // prev
                        for x, y in zip(row[1:], top)])
        elif p == prev:
            nxt.append(row[1:])
        else:
            nxt.append([p * x // prev for x in row[1:]])
    return nxt


def _det(rows: list[list[int]]) -> int:
    """+-det of the square ``rows``, 0 when singular, by a two-step
    fraction-free (Bareiss) elimination that leaves ``rows`` as they are.

    Each pass eliminates the two leading columns.  Its pivot row i is the
    first with a nonzero leading entry, and its second row j the first of
    the others whose 2x2 leading minor p with row i is nonzero; without
    row i the leading column is zero, without row j it is zero after one
    step, and so is det.  Every other row becomes the 3x3 minors of rows
    i, j and itself on the two leading columns and one more, divided by
    prev^2, prev being the pivot minor of the pass before (1 at the start);
    p / prev is the next.  Both divisions are exact by Sylvester's
    identity, and moving the two rows out of the block changes at most the
    sign.  An odd size ends on a 1x1 block, an even one on a 2x2 block
    that closes with one more one-column step."""
    block, prev = rows, 1
    while len(block) > 2:
        for i, top in enumerate(block):
            if top[0]:
                break
        else:
            return 0
        a, b = top[0], top[1]
        rest = block[:i] + block[i + 1:]
        for j, second in enumerate(rest):
            c, e = second[0], second[1]
            if a * e != c * b:
                break
        else:
            return 0
        del rest[j]
        p, top, second = a * e - c * b, top[2:], second[2:]
        pp, nxt = prev * prev, []
        for row in rest:
            x0, x1 = row[0], row[1]
            k1, k2 = c * x1 - e * x0, x0 * b - a * x1
            nxt.append([(p * x + k1 * y + k2 * z) // pp
                        for x, y, z in zip(row[2:], top, second)])
        block, prev = nxt, p // prev
    if len(block) == 1:
        return block[0][0]
    (a, b), (c, d) = block
    return (a * d - b * c) // prev


def _wide_order(rows: list[list[int]]) -> int:
    """The gcd of the maximal minors of the wide ``rows``, 0 below full
    rank, by a fraction-free (Bareiss) elimination that leaves ``rows`` as
    they are.

    Each step (``_bareiss_step``) eliminates the leading column on its
    first odd entry where it has one, else on its first nonzero one, and a
    zero leading column is dropped.  After step k the block is p_k, the
    k-minor of the pivots, times the Schur complement (Sylvester's
    identity); after step r-1 its one row holds the maximal minors through
    the pivot columns, whose gcd g is a multiple of the answer.  g is the
    answer when it is 0 or 1, or when gcd(p_(r-1), g) = 1: over each prime
    of g the matrix is then I_(r-1) plus the last row over p_(r-1).
    Otherwise the answer is the index of g*Z^(r-k) plus the column lattice
    (``_order_mod``) of the latest block of the last ``_WINDOW`` steps
    whose p_k is prime to g, over whose primes the matrix is I_k plus that
    block, or of the whole matrix (k = 0, p_0 = 1).  Odd pivots keep p_k
    odd wherever the leading columns allow."""
    block, prev = rows, 1
    steps = deque([(1, rows)], _WINDOW + 1)
    while len(block) > 1:
        i = next((i for i, row in enumerate(block) if row[0] & 1), None)
        if i is None:
            i = next((i for i, row in enumerate(block) if row[0]), None)
            if i is None:  # a zero column, which no maximal minor needs
                if len(block[0]) <= len(block):
                    return 0
                block = [row[1:] for row in block]
                continue
        block, prev = _bareiss_step(block, i, prev), block[i][0]
        steps.append((prev, block))
    g = gcd(*block[0])
    if g <= 1 or gcd(prev, g) == 1:
        return g
    return _order_mod(next((b for p, b in reversed(steps)
                            if gcd(p, g) == 1), rows), g)


def cokernel_order(a: IntMatrix) -> ExtNat:
    """The order of the cokernel of ``a``, Z^rows modulo its column
    lattice: INFINITE below full row rank, else the gcd of the maximal
    minors of ``a``.

    A tall matrix has rank at most cols < rows.  Otherwise singleton rows
    are peeled first, until none is left.  A row whose one nonzero entry x
    sits in column j makes every maximal minor either 0, when it leaves out
    column j, or +-x times a maximal minor of the matrix without that row
    and column; so the order is |x| times the order of the rest.  A zero
    row leaves the rank below full, and so does a second singleton in the
    same column, which is zero once the first is peeled.

    Of what is left, a square matrix takes ``_det``, whose +-det is 0
    exactly below full rank.  A wide one takes ``_wide_order``, the gcd of
    its maximal minors, since no single minor gives it, but first divides
    each row i by its content c_i, which is not 0 after the peel: every
    maximal minor holds each row once, so the order is prod c_i times the
    quotient's."""
    if a.rows > a.cols:
        return INFINITE
    rows, scale = a.to_rows(), 1
    # a singleton row holds cols - 1 zeros: one count in C passes a matrix
    # with fewer, which has nothing to peel
    peel = a.entries.count(0) >= a.cols - 1
    while peel and rows and max(map(_count_zeros, rows)) >= len(rows[0]) - 1:
        width = len(rows[0])
        rest, peeled = [], {}
        for row in rows:
            zeros = row.count(0)
            if zeros < width - 1:
                rest.append(row)
                continue
            if zeros == width:
                return INFINITE
            j = next(j for j, x in enumerate(row) if x)
            if j in peeled:
                return INFINITE
            peeled[j] = row[j]
        scale *= abs(prod(peeled.values()))
        rows = [[x for j, x in enumerate(row) if j not in peeled]
                for row in rest]
    if not rows:
        return scale
    if len(rows) == len(rows[0]):
        d = _det(rows)
        return scale * abs(d) if d else INFINITE
    contents = [gcd(*row) for row in rows]
    d = _wide_order([row if g == 1 else [x // g for x in row]
                     for row, g in zip(rows, contents)])
    return scale * prod(contents) * d if d else INFINITE
