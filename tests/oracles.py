"""Test oracles, independent of the code they check.

For the lattice layer, determinants come from cofactor expansion or from
this module's own fraction-free elimination, ranks from minors, and the
order of a cokernel from counting cosets by enumeration and union-find, or
from the gcd of every maximal minor.  No oracle calls a kernel of the
lattice layer, so none shares the code it checks.  Only sensible at desk
scale; no answer runs any of this.

For the closed form tables.two_chi_so_vanishes, FRAMED_SO_ORDERS lists the
cited orders of the invariantly framed [SO(k)].
"""

import itertools
from collections import deque
from math import gcd

from coincalc.errors import DescriptorError
from coincalc.lattice import IntMatrix
from coincalc.verdict import INFINITE, ExtNat

# the oracle enumerates one coset representative per element of a finite
# quotient; refuse quotients past desk scale rather than thrash
_ORACLE_REGION_CAP = 5_000_000


def column(m: IntMatrix, j: int) -> tuple[int, ...]:
    return tuple(m.entries[i * m.cols + j] for i in range(m.rows))


def neg(m: IntMatrix) -> IntMatrix:
    return IntMatrix(m.rows, m.cols, tuple(-x for x in m.entries))


def mul(first: IntMatrix, *rest: IntMatrix) -> IntMatrix:
    """The product first * rest[0] * rest[1] * ..."""
    out = first
    for other in rest:
        if out.cols != other.rows:
            raise DescriptorError("matrix shapes do not compose")
        a, b = out.to_rows(), other.to_rows()
        out = IntMatrix(out.rows, other.cols, tuple(
            sum(a[i][k] * b[k][j] for k in range(out.cols))
            for i in range(out.rows) for j in range(other.cols)))
    return out


def det_cofactor(m: IntMatrix) -> int:
    """Exact determinant by cofactor expansion (intended for sizes <= 5)."""
    if m.rows != m.cols:
        raise DescriptorError("determinant needs a square matrix")
    return _det_rows(m.to_rows())


def _det_rows(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    sign = 1
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += sign * rows[0][j] * _det_rows(minor)
        sign = -sign
    return total


def det_bareiss(rows: list[list[int]]) -> int:
    """Exact determinant of a square list of rows by Bareiss's
    fraction-free elimination: a zero pivot is swapped for the first
    nonzero entry below it, and each entry of the trailing block becomes
    (a[i][j] * pivot - a[i][k] * a[k][j]) // (the previous pivot), an exact
    division.  The caller's rows are left as they are."""
    a = [list(row) for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, top = a[k][k], a[k]
        for i in range(k + 1, n):
            row, lead = a[i], a[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return sign * a[-1][-1]


def maximal_minor_gcd(m: IntMatrix) -> int:
    """The gcd of |``det_bareiss``| over every rows-subset of the columns
    of ``m``: the order of its cokernel, or 0 when that is infinite (below
    full row rank, and always when cols < rows)."""
    rows = m.to_rows()
    return gcd(*(det_bareiss([[row[j] for j in cols] for row in rows])
                 for cols in itertools.combinations(range(m.cols), m.rows)))


def invariant_factors_by_minors(m: IntMatrix) -> tuple[int, ...]:
    """The invariant factors d_k = D_k / D_(k-1) of ``m``, D_k the gcd of
    every k x k minor (D_0 = 1), for k up to the rank: the nonzero
    diagonal of its Smith form, read without the Smith reduction."""
    rows = m.to_rows()
    factors, prev = [], 1
    for k in range(1, min(m.rows, m.cols) + 1):
        dk = gcd(*(det_bareiss([[rows[i][j] for j in cols]
                                for i in row_idx])
                   for row_idx in itertools.combinations(range(m.rows), k)
                   for cols in itertools.combinations(range(m.cols), k)))
        if not dk:
            break
        factors.append(dk // prev)
        prev = dk
    return tuple(factors)


def _rank_by_minors(rows: list[list[int]]) -> int:
    """Exact rank: the largest k with a nonzero k x k minor."""
    r, c = len(rows), len(rows[0])
    for k in range(min(r, c), 0, -1):
        for row_idx in itertools.combinations(range(r), k):
            for col_idx in itertools.combinations(range(c), k):
                sub = [[rows[i][j] for j in col_idx] for i in row_idx]
                if _det_rows(sub):
                    return k
    return 0


def _adjugate(rows: list[list[int]]) -> list[list[int]]:
    n = len(rows)
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[p][q] for q in range(n) if q != j]
                for p in range(n) if p != i
            ]
            adj[j][i] = (-1) ** (i + j) * _det_rows(minor)
    return adj


def cokernel_bruteforce_oracle(a: IntMatrix, box: int) -> ExtNat:
    """Count the cosets of the column lattice of ``a`` in Z^rows by explicit
    enumeration and union-find; INFINITE when the column rank is deficient.

    Desk-scale only: rows, cols <= 4 and every |entry| <= box.  The region
    enumerated is one representative per coset of a full-rank square
    sublattice, so its size is bounded by the Hadamard bound of ``a`` and is
    never too small by construction.  Deliberately avoids the Smith routine:
    rank comes from cofactor minors and coset identity from the adjugate.
    """
    if a.rows > 4 or a.cols > 4:
        raise DescriptorError("oracle is desk-scale only: rows, cols <= 4")
    if any(abs(x) > box for x in a.entries):
        raise DescriptorError(f"entry exceeds the declared box bound {box}")

    rows = a.to_rows()
    r = a.rows
    if _rank_by_minors(rows) < r:
        return INFINITE

    # full-rank square column submatrix S; |det S| bounds the region
    det_s = 0
    for col_idx in itertools.combinations(range(a.cols), r):
        sub = [[rows[i][j] for j in col_idx] for i in range(r)]
        det_s = _det_rows(sub)
        if det_s:
            square = sub
            break
    s = abs(det_s)
    if s > _ORACLE_REGION_CAP:
        raise DescriptorError("quotient region exceeds desk scale")

    adj = _adjugate(square)

    def key(vec):
        # injective on Z^r modulo the span of S: adj * S = det(S) * I
        return tuple(
            sum(adj[i][j] * vec[j] for j in range(r)) % s for i in range(r)
        )

    # enumerate all s cosets of span(S) by unit steps from the origin
    origin = (0,) * r
    seen = {key(origin): origin}
    queue = deque([origin])
    while queue:
        z = queue.popleft()
        for i in range(r):
            for step in (1, -1):
                w = list(z)
                w[i] += step
                w = tuple(w)
                kw = key(w)
                if kw not in seen:
                    seen[kw] = w
                    queue.append(w)
    assert len(seen) == s

    # union-find: quotient further by all columns of ``a``
    parent = {k: k for k in seen}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    columns = [column(a, j) for j in range(a.cols)]
    for k, z in seen.items():
        for col in columns:
            shifted = tuple(z[i] + col[i] for i in range(r))
            union(k, key(shifted))

    return sum(1 for k in parent if find(k) == k)


# k -> (order of [SO(k)] in the stable stem k(k-1)/2, citation): a positive
# integer, "infinite" (only the framed point, k = 1) or "unknown"
FRAMED_SO_ORDERS = {
    1: ("infinite", "SO(1) is a framed point generating pi_0^S = Z"),
    2: (2, "derived, not tabulated in the literature cited here: the Lie "
           "framing of the circle represents the generator of pi_1^S; "
           "consistent with 2[SO(2l)] = 0 (Becker-Schultz 1974, 4.7)"),
    3: (12, "Atiyah-Smith 1974: [SO(3)] has order 12 in pi_3^S = Z/24"),
    4: (1, "Ossa 1989, table 1: SO(k) is nullbordant for 4 <= k <= 9, "
           "k != 5"),
    5: (3, "Ossa 1989: [SO(5)] has order 3 in pi_10^S = Z/6"),
    6: (1, "Ossa 1989, table 1"),
    7: (1, "Ossa 1989, table 1"),
    8: (1, "Ossa 1989, table 1"),
    9: (1, "Ossa 1989, table 1"),
    10: ("unknown", "divides 2: 2[SO(2l)] = 0 (Becker-Schultz 1974, 4.7)"),
    11: ("unknown", "divides 24: 24[SO(k)] = 0 (Ossa 1989, p. 315)"),
    12: ("unknown", "divides 2: 2[SO(2l)] = 0 (Becker-Schultz 1974, 4.7)"),
}
