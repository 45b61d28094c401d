"""Each answer of the fact grid against the answers of its yes/no
completions.

An Unknown fact stands for "yes or no, not known which", so an answer to a
payload with Unknown facts should be what every accepted yes/no completion
of those facts agrees on.  Over the fact grid of
``test_answer_digests.grid_queries`` two properties hold exactly:

- sound values: no known value differs from the value of an accepted
  completion;
- sound acceptance: no accepted payload has all of its completions
  refused.

The converse gaps are pinned as counts, which a change that decides more
lowers and updates here:

- over-refused payloads: refused, though a completion is accepted;
- under-decided answers: accepted, with an Unknown value that every
  accepted completion decides alike, counted per family and field.

Every completion of a grid payload is a grid payload too, so each query
runs once.  Print the counts of the current code:

    PYTHONPATH=src python tests/test_coherence.py
"""

import itertools
from collections import Counter

from coincalc import DescriptorError
from coincalc.cli import run_query

from test_answer_digests import (
    PROJECTIVE_FACTS,
    SPACEFORM_FACTS,
    SPHERE_FACTS,
    grid_queries,
)

FACT_NAMES = {"sphere": SPHERE_FACTS, "spaceform": SPACEFORM_FACTS,
              "projective": PROJECTIVE_FACTS}

OVER_REFUSED = Counter({"sphere": 480})
ACCEPTED_PARTIAL = 23_394
UNDER_DECIDED = 2_202
UNDER_DECIDED_VALUES = Counter({
    ("spaceform", "mcc"): 1_662, ("spaceform", "n_sharp"): 1_488,
    ("spaceform", "mc"): 282,
    ("projective", "mcc"): 189, ("projective", "n_sharp"): 171,
    ("projective", "mc"): 63,
    ("sphere", "n_z"): 240, ("sphere", "n"): 150, ("sphere", "n_tilde"): 60,
})


def _split(query):
    """(family, the payload's other fields, its facts in grid order)."""
    family, payload = query["family"], query["payload"]
    names = FACT_NAMES[family]
    rest = tuple((k, str(v)) for k, v in payload.items() if k not in names)
    return family, rest, tuple(payload[name] for name in names)


def _values(query):
    """{field: value} of the answer, or None when the payload is refused."""
    try:
        answer = run_query(query)
    except DescriptorError:
        return None
    return {name: entry["value"]
            for name, entry in answer["invariants"].items()}


def coherence():
    """(unsound values, unsound acceptances, over-refused payloads per
    family, accepted partial answers, under-decided answers, under-decided
    values per (family, field)), each unsound one a list of its queries."""
    answers = {_split(q): (q, _values(q)) for q in grid_queries()}
    unsound_values, unsound_accepts = [], []
    over_refused, values = Counter(), Counter()
    partial = under = 0
    for (family, rest, facts), (query, own) in answers.items():
        unknown = [i for i, fact in enumerate(facts) if fact == "unknown"]
        if not unknown:
            continue
        completions = []
        for choice in itertools.product(("yes", "no"), repeat=len(unknown)):
            filled = list(facts)
            for i, fact in zip(unknown, choice):
                filled[i] = fact
            completions.append(answers[family, rest, tuple(filled)][1])
        accepted = [c for c in completions if c is not None]
        if own is None:
            if accepted:
                over_refused[family] += 1
            continue
        partial += 1
        if not accepted:
            unsound_accepts.append(query)
            continue
        decided = []
        for name, value in own.items():
            seen = {c[name] for c in accepted}
            if value != "unknown":
                if seen != {value}:
                    unsound_values.append((query, name))
            elif len(seen) == 1 and "unknown" not in seen:
                decided.append(name)
        values.update((family, name) for name in decided)
        under += bool(decided)
    return (unsound_values, unsound_accepts, over_refused, partial, under,
            values)


def test_answers_agree_with_their_completions():
    (unsound_values, unsound_accepts, over_refused, partial, under,
     values) = coherence()
    assert unsound_values == []
    assert unsound_accepts == []
    assert over_refused == OVER_REFUSED
    assert partial == ACCEPTED_PARTIAL
    assert under == UNDER_DECIDED
    assert values == UNDER_DECIDED_VALUES


if __name__ == "__main__":
    (unsound_values, unsound_accepts, over_refused, partial, under,
     values) = coherence()
    print(f"unsound values: {len(unsound_values)}")
    print(f"unsound acceptances: {len(unsound_accepts)}")
    print(f"over-refused payloads: {dict(over_refused)}")
    print(f"accepted partial answers: {partial:,}")
    print(f"under-decided answers: {under:,}")
    print("under-decided values:")
    for (family, name), count in sorted(values.items()):
        print(f"  {family:<10} {name:<8} {count:,}")
