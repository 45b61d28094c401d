"""Rule-id and public-name coverage of the query path.

The golden corpus and one round of each perfbench workload (seed 1) go
through ``run_query``.  Every rule id an answer emits must be registered,
and the registered ids that no answer emits must be exactly the pinned
list below, so that a rule that becomes reachable, or stops being
reached, shows up as a difference.  Likewise the public names of
``coincalc`` whose code no query runs are pinned, so that a new
library-only function shows up too.  Every answer must also be written
by ``cli._dump``'s answer template, not by its general writer.  The
workload generators are imported from perfbench and only read.

Print the report (each id with its count, the ids never emitted, then the
public names no query reaches):

    PYTHONPATH=src python tests/test_rule_coverage.py
"""

import inspect
import sys
from collections import Counter
from pathlib import Path

import coincalc
from coincalc.cli import _ITEM, _SINGLE, QueryError, _answer, run_query
from coincalc.errors import DescriptorError
from coincalc.rules import REGISTRY

ROOT = Path(__file__).resolve().parents[1]
SEED = 1

# Registered ids that no query of the corpus reaches, in REGISTRY order:
# the ids only library functions emit (docs/rules.md names each function:
# Cor3.8, the Kervaire and Hopf cases Thm1.20 and Thm1.22 with Browder, HHR
# and HHR-open, Prop1.14, Thm1.33*), and rules and needs: ids that queries
# reach but the generated payloads do not (tests/test_cli.py pins a query
# for each).
NEVER_EMITTED = frozenset({
    "Cor3.8", "Thm1.20", "Browder", "HHR", "HHR-open",
    "Thm1.22", "Prop1.14", "R6", "R7", "R8",
    "Thm1.33", "Thm1.33a", "Thm1.33b", "Thm1.33c", "Thm1.33d",
    "needs:homotopic", "needs:del_zero", "needs:e_del_zero",
})


# Public names of coincalc whose code no query of the corpus runs: the
# library functions whose ids docs/rules.md lists as library-only; the
# Smith form, the Grassmann Euler characteristic and the Wecken overlap
# scan, which tests, demos and perfbench call; and the fact base's
# installer, which cli.main calls outside run_query, and the error a bad
# fact file raises.  Names with no code of their own (plain exception
# classes, enums without methods, constants) are not counted.
LIBRARY_ONLY = frozenset({
    "circle_target_mcc", "kervaire_case", "hopf_case",
    "del_vanishes_by_dimension", "nsharp_restrictions",
    "SmithNormalForm", "smith_normal_form",
    "grassmann_euler", "overlap_disagreements",
    "set_factbase", "FactBaseError",
})
PACKAGE = Path(coincalc.__file__).parent


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


def reached_code(queries: list[dict]) -> set:
    """The code objects of every Python function called while the queries
    are answered."""
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        emitted_ids(queries)
    finally:
        sys.setprofile(previous)
    return reached


def own_code(obj) -> set:
    """The code that coincalc defines for a public name: a function's own,
    or that of each method, classmethod, staticmethod and property getter
    in a class body."""
    members = list(vars(obj).values()) if inspect.isclass(obj) else [obj]
    code = set()
    for member in members:
        if isinstance(member, (classmethod, staticmethod)):
            member = member.__func__
        elif isinstance(member, property):
            member = member.fget
        if (inspect.isfunction(member)
                and Path(member.__code__.co_filename).parent == PACKAGE):
            code.add(member.__code__)
    return code


def unreached_names(reached: set) -> set[str]:
    return {name for name in coincalc.__all__
            if (code := own_code(getattr(coincalc, name)))
            and not code & reached}


def test_public_names_no_query_reaches_are_pinned():
    unreached = unreached_names(reached_code(corpus()))
    assert unreached == LIBRARY_ONLY, (
        f"now reached: {sorted(LIBRARY_ONLY - unreached)}; "
        f"reached by no query: {sorted(unreached - LIBRARY_ONLY)}")


def test_emitted_ids_are_registered_and_the_rest_pinned():
    emitted = emitted_ids(corpus())
    assert sorted(set(emitted) - set(REGISTRY)) == []
    never = set(REGISTRY) - set(emitted)
    assert never == NEVER_EMITTED, (
        f"now emitted: {sorted(NEVER_EMITTED - never)}; "
        f"no longer emitted: {sorted(never - NEVER_EMITTED)}")


def test_every_answer_takes_the_template():
    # the template is the fast writer; an answer that misses it is still
    # written right, by cli._write, but several times slower
    missed = []
    for query in corpus():
        try:
            answer = run_query(query)
        except (QueryError, DescriptorError):
            continue  # run_batch's error answers go to cli._write
        if not (_answer(answer, _SINGLE, []) and _answer(answer, _ITEM, [])):
            missed.append(query.get("id"))
    assert missed == []


def main() -> None:
    queries = corpus()
    emitted = emitted_ids(queries)
    for rule_id in REGISTRY:
        print(f"{emitted[rule_id]:8d}  {rule_id}")
    never = [rule_id for rule_id in REGISTRY if rule_id not in emitted]
    print(f"{len(never)} of {len(REGISTRY)} registered ids never emitted: "
          + ", ".join(never))
    unreached = sorted(unreached_names(reached_code(queries)))
    print(f"{len(unreached)} of {len(coincalc.__all__)} public names no "
          "query reaches: " + ", ".join(unreached))


if __name__ == "__main__":
    main()
