"""Smoke test of the benchmark: every workload, one round, every check on.

No timing is asserted.  Runs in a subprocess because the benchmark installs
its own fact base and wrappers in the process it runs in.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import Checker  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402


def test_smoke_every_workload_passes_every_check():
    result = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                            capture_output=True, text=True, timeout=600,
                            cwd=ROOT)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] > 0


def test_workloads_repeat_for_a_seed_and_vary_across_seeds():
    for name in WORKLOADS:
        a, b, c = build(name, 7, ROOT), build(name, 7, ROOT), build(name, 8, ROOT)
        assert a.queries == b.queries
        assert [q["family"] for q in a.queries] == [q["family"]
                                                    for q in c.queries]
        assert a.queries != c.queries


def test_checker_rejects_altered_answers():
    from coincalc.cli import run_batch

    w = build("mixed-batch", 1, ROOT)
    checker = Checker(ROOT, w.notes)
    block = w.queries[:36] + w.queries[-36:]  # one generated block, golden
    answers = run_batch(block)
    for q, a in zip(block, answers):
        assert checker.check(q, a) == [], q["id"]
        altered = json.loads(json.dumps(a))
        entry = next(iter(altered["invariants"].values()))
        entry["value"] = 7 if entry["value"] != 7 else 8
        assert checker.check(q, altered), q["id"]
        altered = json.loads(json.dumps(a))
        next(iter(altered["invariants"].values()))["trace"].append("R9")
        assert checker.check(q, altered), q["id"]
