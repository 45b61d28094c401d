"""Property tests over random payloads of all seven families.

Every payload gets an answer or is refused as bad input (QueryError or
DescriptorError): no rule clash (ConsistencyError) and no other exception.
Every bundle an engine emits satisfies the inequality chain, and every
answer is written as json.dumps writes it.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coincalc import cli
from coincalc.errors import DescriptorError
from coincalc.lattice import IntMatrix
from coincalc.torus import TorusPairDescriptor, torus_invariants
from coincalc.verdict import validate_bundle

FACT = st.sampled_from(("yes", "no", "unknown", None))  # None: omitted
# a few malformed values, so that the readers' refusals are exercised too
JUNK = st.sampled_from((True, -1, 1.5, "7", [], {}))


def payload(required, facts=(), optional=()):
    """Payloads with the ``required`` fields (name -> strategy), each fact
    of ``facts`` present or omitted, each ``optional`` field (name ->
    strategy) present or omitted; one field at most holds junk."""
    names = list(required) + list(facts) + [name for name, _ in optional]

    @st.composite
    def build(draw):
        out = {name: draw(strategy) for name, strategy in required.items()}
        for name in facts:
            value = draw(FACT)
            if value is not None:
                out[name] = value
        for name, strategy in optional:
            if draw(st.booleans()):
                out[name] = draw(strategy)
        if draw(st.integers(0, 9)) == 0:
            out[draw(st.sampled_from(names))] = draw(JUNK)
        return out
    return build()


@st.composite
def torus_payloads(draw):
    n = draw(st.integers(1, 4))
    source_is_torus = draw(st.booleans())
    m = draw(st.integers(1, 4))
    cols = m if source_is_torus and draw(st.integers(0, 9)) else \
        draw(st.integers(1, 4))
    rows = n if draw(st.integers(0, 9)) else draw(st.integers(1, 4))
    h1 = [[draw(st.integers(-9, 9)) for _ in range(cols)]
          for _ in range(rows)]
    return draw(payload(
        {"m": st.just(m), "n": st.just(n), "h1": st.just(h1),
         "source_is_torus": st.just(source_is_torus)},
        facts=("top_pullback_nonzero", "det_kills_top")))


@st.composite
def sphere_payloads(draw):
    n = draw(st.integers(1, 20))
    m = n if draw(st.booleans()) else draw(st.integers(1, 40))
    required = {"m": st.just(m), "n": st.just(n)}
    if (m == n) == bool(draw(st.integers(0, 9))):  # degrees mostly iff m = n
        required["degrees"] = st.lists(st.integers(-9, 9), min_size=2,
                                       max_size=2)
    return draw(payload(
        required, facts=("f1_homotopic_a_f2", "in_suspension_image",
                         "stable_suspension_nonzero",
                         "some_stable_hopf_james_nonzero")))


@st.composite
def spaceform_payloads(draw):
    order = draw(st.sampled_from((1, 2, 2, 3, 4, 8)))
    n = draw(st.integers(1, 35))
    if order >= 3 and draw(st.integers(0, 9)):
        n |= 1  # mostly odd, the only spheres these groups act on freely
    return draw(payload(
        {"m": st.integers(1, 70), "n": st.just(n),
         "group_order": st.just(order)},
        facts=("homotopic", "del_zero", "e_del_zero", "kervaire_one",
               "in_psE_image"),
        optional=[("hopf_mod4", st.sampled_from((0, 2, 0, 2, 1)))]))


@st.composite
def stiefel_payloads(draw):
    k = draw(st.integers(1, 20))
    r = draw(st.integers(2 * k - 2, 2 * k + 60))  # mostly r >= 2k
    return draw(payload({"r": st.just(r), "k": st.just(k)},
                        optional=[("oriented_target", st.booleans())]))


PAYLOADS = {
    "torus": torus_payloads(),
    "sphere": sphere_payloads(),
    "spaceform": spaceform_payloads(),
    "projective": payload(
        {"field": st.sampled_from(("R", "C", "H")),
         "n_prime": st.integers(1, 12), "m": st.integers(1, 70)},
        facts=("fprime_homotopic", "lift2_in_ker_del", "lift2_in_ker_Edel",
               "lift2_antipodal_selfhomotopic", "lifts_differ_by_suspension",
               "lifts_equal")),
    "stiefel": stiefel_payloads(),
    "wecken": payload(
        {"m": st.integers(1, 300), "n": st.integers(1, 150)},
        facts=("noncompact_or_chi_zero",),
        optional=[("target_family",
                   st.sampled_from(cli.TARGET_FAMILIES))]),
    "fixedpoint": payload(
        {"dim": st.integers(-1, 12), "chi": st.integers(-12, 12)}),
}
BUNDLE_FAMILIES = ("torus", "sphere", "spaceform", "projective", "stiefel")


@pytest.mark.parametrize("family", sorted(PAYLOADS))
def test_every_payload_is_answered_or_refused(family):
    @settings(max_examples=200, deadline=None)
    @given(PAYLOADS[family])
    def check(payload):
        query = {"id": "p", "family": family, "payload": payload}
        try:
            answer = cli.run_query(query)
        except DescriptorError:  # QueryError is one too
            return
        assert answer["invariants"]
        if family in BUNDLE_FAMILIES:
            runner = getattr(cli, f"_run_{family}")
            bundle, target_dim, _ = runner(payload)
            assert validate_bundle(bundle, target_dim) == []
    check()


QUERIES = st.sampled_from(sorted(PAYLOADS)).flatmap(
    lambda family: st.fixed_dictionaries({
        "id": st.text(max_size=6), "family": st.just(family),
        "payload": PAYLOADS[family]}))


@settings(max_examples=300, deadline=None)
@given(st.lists(QUERIES, min_size=1, max_size=6))
def test_answers_of_every_family_are_written_as_json_dumps_writes_them(
        queries):
    answers = cli.run_batch(queries)  # refused payloads give error answers
    for answer in answers + [answers]:
        assert cli._dump(answer) == json.dumps(
            answer, indent=2, sort_keys=True) + "\n"
        assert json.loads(cli._dump(answer)) == answer


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@st.composite
def unimodular(draw, n):
    """A product of elementary matrices of size n: det +-1."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        e = [[int(r == c) for c in range(n)] for r in range(n)]
        if i == j:
            e[i][i] = -1
        else:
            e[i][j] = draw(st.integers(-3, 3))
        u = _mul(e, u)
    return u


@st.composite
def equivalent_matrices(draw):
    n, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a = [[draw(st.integers(-6, 6)) for _ in range(cols)] for _ in range(n)]
    u, v = draw(unimodular(n)), draw(unimodular(cols))
    return a, _mul(_mul(u, a), v)


@settings(max_examples=200, deadline=None)
@given(equivalent_matrices(), st.booleans())
def test_torus_invariants_are_unimodular_invariant(pair, source_is_torus):
    a, uav = pair
    n, cols = len(a), len(a[0])
    m = cols if source_is_torus else 3

    def bundle(rows):
        return torus_invariants(TorusPairDescriptor(
            m, n, IntMatrix.from_rows(rows), source_is_torus))
    assert bundle(uav) == bundle(a)
