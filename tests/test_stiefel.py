import random
from math import comb

import pytest

from coincalc import (
    DescriptorError,
    StiefelQuery,
    UNKNOWN,
    grassmann_euler,
    stiefel,
    stiefel_selfcoincidence,
    validate_bundle,
)

EQUAL_FIELDS = ("mc", "mcc", "n_sharp", "n_tilde", "n")


def value(r, k, oriented=False):
    bundle = stiefel_selfcoincidence(StiefelQuery(r, k, oriented))
    vals = {getattr(bundle, f).value for f in EQUAL_FIELDS}
    assert len(vals) == 1  # one shared verdict
    return vals.pop()


def test_grassmann_euler():
    assert grassmann_euler(6, 3) == 0   # k odd, r even
    assert grassmann_euler(7, 3) == comb(3, 1) == 3
    assert grassmann_euler(4, 2) == comb(2, 1) == 2
    assert grassmann_euler(22, 11) == 0
    assert grassmann_euler(23, 11) == comb(11, 5)
    with pytest.raises(DescriptorError):
        grassmann_euler(3, 4)


def test_euler_residue_decides_like_exact_chi(monkeypatch):
    pairs = [(r, k) for r in range(2, 201) for k in range(1, r // 2 + 1)]
    fast = [stiefel_selfcoincidence(StiefelQuery(r, k)) for r, k in pairs]
    monkeypatch.setattr(stiefel, "euler_gcd12", grassmann_euler)
    exact = [stiefel_selfcoincidence(StiefelQuery(r, k)) for r, k in pairs]
    assert fast == exact


def legendre_valuation(a, b, p):
    """Exponent of p in binomial(a, b) by Legendre's formula."""
    total, q = 0, p
    while q <= a:
        total += a // q - b // q - (a - b) // q
        q *= p
    return total


def test_euler_residue_on_large_r():
    # r far past one 32-digit base-3 chunk; half the cases take b digit by
    # digit at most a in base 3, so that 3 does not divide binomial(a, b)
    rng = random.Random(5)
    for case in range(400):
        a = rng.randrange(1, 10 ** rng.choice((20, 60, 200)))
        if case % 2:
            b, a_rest, place = 0, a, 1
            while a_rest:
                a_rest, digit = divmod(a_rest, 3)
                b += rng.randint(0, digit) * place
                place *= 3
        else:
            b = rng.randrange(0, a + 1)
        r, k = 2 * a + 1, 2 * b + rng.randint(0, 1) or 1
        expected = (2 ** min(legendre_valuation(a, b, 2), 2)
                    * 3 ** min(legendre_valuation(a, b, 3), 1))
        assert stiefel.euler_gcd12(r, k) == expected, (r, k)


def test_million_frame_counts_answer():
    # chi = binomial(2,000,000, 1,000,000) has some 600,000 digits
    b = stiefel_selfcoincidence(StiefelQuery(4_000_000, 2_000_000))
    assert b.mcc.value == 0 and "2SOeven" in b.mcc.trace
    b = stiefel_selfcoincidence(StiefelQuery(4_000_003, 2_000_001))
    assert b.mcc.value == 0 and "24SO" in b.mcc.trace


def test_examples():
    assert value(5, 2) == 0
    assert value(7, 3) == 1    # 7 odd, 7 != 1 mod 12
    assert value(13, 3) == 0   # 13 = 1 mod 12
    assert value(11, 5) == 1   # 11 = 5 mod 6
    assert value(23, 11) is UNKNOWN  # odd frame count, untabulated order
    assert value(22, 11) == 0  # Euler number vanishes outright


def test_traces():
    b = stiefel_selfcoincidence(StiefelQuery(5, 2))
    assert "Cor1.3" in b.mcc.trace
    assert "Prop5.1" in b.mcc.trace  # value 0: loose by small deformation
    b = stiefel_selfcoincidence(StiefelQuery(7, 3))
    assert "Cor1.4" in b.mcc.trace
    assert "Prop5.1" not in b.mcc.trace
    b = stiefel_selfcoincidence(StiefelQuery(11, 5))
    assert "Cor1.5" in b.mcc.trace
    b = stiefel_selfcoincidence(StiefelQuery(23, 11))
    assert "SO-order-open" in b.mcc.trace


def test_two_frames_always_vanish():
    for r in range(5, 41):
        assert value(r, 2) == 0


def test_three_frames_mod_twelve():
    for r in range(7, 50, 2):
        expected = 0 if r % 12 == 1 else 1
        assert value(r, 3) == expected, r
    for r in range(6, 50, 2):  # even r: Euler number vanishes
        assert value(r, 3) == 0


def test_five_frames_mod_six():
    for r in range(10, 41):
        expected = 0 if r % 6 != 5 else 1
        assert value(r, 5) == expected, r


def test_mod3_binomial_rule_by_enumeration():
    # 3 | binomial((r-1)/2, 2) iff r != 5 mod 6, for odd r
    for r in range(11, 41, 2):
        assert (comb((r - 1) // 2, 2) % 3 == 0) == (r % 6 != 5)


def test_orientation_irrelevant():
    for r, k in [(5, 2), (7, 3), (13, 3), (11, 5), (23, 11)]:
        assert value(r, k, oriented=False) == value(r, k, oriented=True)


def test_nz_unknown_and_validation():
    b = stiefel_selfcoincidence(StiefelQuery(7, 3))
    assert b.n_z.value is UNKNOWN
    assert b.reidemeister.value is UNKNOWN
    assert validate_bundle(b, 3 * (7 - 3)) == []


def test_query_invariant():
    with pytest.raises(DescriptorError):
        StiefelQuery(3, 2)  # r < 2k
    with pytest.raises(DescriptorError):
        StiefelQuery(5, 0)
