"""Rule-id coverage of the query path.

The golden corpus and one round of each perfbench workload (seed 1) go
through ``run_query``.  Every rule id an answer emits must be registered,
and the registered ids that no answer emits must be exactly the pinned
list below, so that a rule that becomes reachable, or stops being
reached, shows up as a difference.  The workload generators are imported
from perfbench and only read.

Print the report (each id with its count, then the ids never emitted):

    PYTHONPATH=src python tests/test_rule_coverage.py
"""

import sys
from collections import Counter
from pathlib import Path

from coincalc.cli import QueryError, run_query
from coincalc.errors import DescriptorError
from coincalc.rules import REGISTRY

ROOT = Path(__file__).resolve().parents[1]
SEED = 1

# Registered ids that no query of the corpus reaches, in REGISTRY order:
# the ids only library functions emit (docs/rules.md names each function:
# Cor3.8, the Kervaire and Hopf cases Thm1.20 and Thm1.22 with Browder, HHR
# and HHR-open, Prop1.14, Thm1.26/Cond1.27, Thm1.33*, Thm1.34), and rules
# and needs: ids that queries reach but the generated payloads do not
# (tests/test_cli.py pins a query for each).
NEVER_EMITTED = frozenset({
    "Cor3.8", "Thm1.20", "Browder", "HHR", "HHR-open",
    "Thm1.22", "Prop1.14", "R6", "R7", "R8",
    "Thm1.26", "Cond1.27", "Thm1.33", "Thm1.33a", "Thm1.33b", "Thm1.33c",
    "Thm1.33d", "Thm1.34", "needs:homotopic", "needs:del_zero",
    "needs:e_del_zero",
})


def corpus() -> list[dict]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS, build
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    # mixed-batch ends with the golden corpus verbatim
    return [q for name in WORKLOADS for q in build(name, SEED, ROOT).queries]


def emitted_ids(queries: list[dict]) -> Counter:
    counts = Counter()
    for query in queries:
        try:
            answer = run_query(query)
        except (QueryError, DescriptorError):
            continue  # an error answer carries no trace
        for invariant in answer["invariants"].values():
            counts.update(invariant["trace"])
    return counts


def test_emitted_ids_are_registered_and_the_rest_pinned():
    emitted = emitted_ids(corpus())
    assert sorted(set(emitted) - set(REGISTRY)) == []
    never = set(REGISTRY) - set(emitted)
    assert never == NEVER_EMITTED, (
        f"now emitted: {sorted(NEVER_EMITTED - never)}; "
        f"no longer emitted: {sorted(never - NEVER_EMITTED)}")


def main() -> None:
    emitted = emitted_ids(corpus())
    for rule_id in REGISTRY:
        print(f"{emitted[rule_id]:8d}  {rule_id}")
    never = [rule_id for rule_id in REGISTRY if rule_id not in emitted]
    print(f"{len(never)} of {len(REGISTRY)} registered ids never emitted: "
          + ", ".join(never))


if __name__ == "__main__":
    main()
