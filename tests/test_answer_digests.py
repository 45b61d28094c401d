"""Every answer of seeds 1-3 of each perfbench workload, and every answer
of a fixed fact grid, pinned by digest.

For each workload and seed, one round of queries is answered twice: as one
batch, whose written text ``_dump(run_batch(round))`` is hashed, and one
query at a time, hashing the concatenated ``_dump(run_query(q))``.  Both
SHA-256 digests are pinned below, so a change that alters any answer byte
of these rounds fails here; a change that alters answers on purpose
updates the pins and says which answers changed.  The workload generators
are imported from perfbench and only read.

The fact grid (``grid_queries``) crosses the dimensions of the sphere,
space-form and projective engines with every yes/no/unknown assignment of
their facts, about 87,000 queries; one SHA-256 over each answer's text, or
its DescriptorError message, is pinned in GRID_DIGEST.

Print the digests of the current code in the form pinned below:

    PYTHONPATH=src python tests/test_answer_digests.py
"""

import hashlib
import itertools
import sys
from pathlib import Path

import pytest

from coincalc import DescriptorError
from coincalc.cli import _dump, run_batch, run_query

ROOT = Path(__file__).resolve().parents[1]

# (workload, seed): (digest of the batch text, digest of the query texts)
DIGESTS = {
    ('mixed-batch', 1): (
        "295d40215a6eb0bfaacb29a92086a0047feb1a3a7ea1a2845918191d809bbd99",
        "64d81cdd1e53b1d3dd51d5f350f9b66bc06e3389c3c8c5a58d350131c77ed403"),
    ('mixed-batch', 2): (
        "ae3b86801af3b35753012f39b7fb3a8d656ecacf1bd17360deff234df24e04a0",
        "9e3d273742432f575fc13e853557ed0d56f974c162f460bbde06846ca1bb43f4"),
    ('mixed-batch', 3): (
        "3560ed2d6817cacea8171aef7a7b1a0159f004a6f4cc988cf32341a28d8bd0a4",
        "3145043d9b728325506be2f8307bb922892df372641008e8a977ff068c1e65f9"),
    ('torus-lattice', 1): (
        "21feafd3d9f89ff4edfba5dad5a7f27d2879d4519169277194b00c2dcae297c6",
        "b1d4b495ddd260534fc64b36172c2122b9f8109c9c10bce3a24ad18204be08e6"),
    ('torus-lattice', 2): (
        "a35575229c8f9327980b9297201230251faa57790023f0e8848f90ec8784bc59",
        "8f6fe20ffa041d8c7fe05508f423182cd92f370a9c6e18be607da31547f23d01"),
    ('torus-lattice', 3): (
        "05b7062a8ba105c709ee3424238b33e88fee6911d1d12551002a6eb353cb020b",
        "13d10562e3059472777fa6985840fc0a143c55255771b30552237adc9e8175fc"),
    ('bigint', 1): (
        "9b3e518a17a1c09ac48e596a9797b1a5d918ee9b8806e084f00721bdc0be0b6b",
        "6bf6a5e707b93ba8c8314857d2aee2636d6762ed47812dffefa0d94088248557"),
    ('bigint', 2): (
        "33fc780f43553b603a26c6f221a37d9d50c349ddcab296e1ab0d38f5f1bdd0e3",
        "c41f80270fdcf966b6e8eaf8b436be0ef4cd1cc594e801a3673bc2c305b37d2f"),
    ('bigint', 3): (
        "3b29d21e9d1c39b3f5e0be757b7bc5e94206f10a2acb8d40103cf5c2afdc11a3",
        "b25cec7e4fde594e9f5faf0db8e2b2447cdfd7629bf7a344467f0c67fffee2d6"),
}

GRID_DIGEST = (
    "a05bed99547dbd06b4590e8b0e03e610862c10e759d9d5819c3635ee6289ea47")

FACTS = ("yes", "no", "unknown")
SPHERE_FACTS = ("f1_homotopic_a_f2", "in_suspension_image",
                "stable_suspension_nonzero", "some_stable_hopf_james_nonzero")
SPACEFORM_FACTS = ("homotopic", "del_zero", "e_del_zero", "in_psE_image")
PROJECTIVE_FACTS = ("fprime_homotopic", "lift2_in_ker_del",
                    "lift2_in_ker_Edel", "lift2_antipodal_selfhomotopic",
                    "lifts_differ_by_suspension", "lifts_equal")


def _assignments(names):
    return [dict(zip(names, values))
            for values in itertools.product(FACTS, repeat=len(names))]


def grid_queries():
    """The fact grid, in a fixed order: space form over m 1-10, 30, 31,
    n 1-7, 16, group orders 1-3 and hopf_mod4 omitted, 0 or 2; projective
    over the three fields at (n', m) = (3, 8); sphere over m, n 1-6, with
    both degrees in -2..2 at m = n.  Each crosses all its facts."""
    space_form = _assignments(SPACEFORM_FACTS)
    for m, n, order, hopf in itertools.product(
            (*range(1, 11), 30, 31), (*range(1, 8), 16), (1, 2, 3),
            (None, 0, 2)):
        base = {"m": m, "n": n, "group_order": order}
        if hopf is not None:
            base["hopf_mod4"] = hopf
        for facts in space_form:
            yield {"family": "spaceform", "payload": {**base, **facts}}
    for field, facts in itertools.product(
            ("R", "C", "H"), _assignments(PROJECTIVE_FACTS)):
        yield {"family": "projective",
               "payload": {"field": field, "n_prime": 3, "m": 8, **facts}}
    sphere = _assignments(SPHERE_FACTS)
    for m, n in itertools.product(range(1, 7), repeat=2):
        degrees = (itertools.product(range(-2, 3), repeat=2) if m == n
                   else [None])
        for pair, facts in itertools.product(degrees, sphere):
            payload = {"m": m, "n": n, **facts}
            if pair is not None:
                payload["degrees"] = list(pair)
            yield {"family": "sphere", "payload": payload}


def grid_digest() -> str:
    digest = hashlib.sha256()
    for query in grid_queries():
        try:
            text = _dump(run_query(query))
        except DescriptorError as exc:
            text = f"error: {exc}\n"
        digest.update(text.encode())
    return digest.hexdigest()


def workload_round(name: str, seed: int) -> list[dict]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import build
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return build(name, seed, ROOT).queries


def digests(queries: list[dict]) -> tuple[str, str]:
    batch = _dump(run_batch(queries))
    one_at_a_time = "".join(_dump(run_query(q)) for q in queries)
    return tuple(hashlib.sha256(text.encode()).hexdigest()
                 for text in (batch, one_at_a_time))


@pytest.mark.parametrize("name, seed", sorted(DIGESTS))
def test_workload_answers_are_unchanged(name, seed):
    assert digests(workload_round(name, seed)) == DIGESTS[name, seed]


def test_fact_grid_answers_are_unchanged():
    assert grid_digest() == GRID_DIGEST


if __name__ == "__main__":
    for name, seed in DIGESTS:
        batch, one_at_a_time = digests(workload_round(name, seed))
        print(f'    ({name!r}, {seed}): (\n        "{batch}",\n'
              f'        "{one_at_a_time}"),')
    print(f'GRID_DIGEST = "{grid_digest()}"')
