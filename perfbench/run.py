"""coincalc benchmark: end-to-end and per-layer metrics on seeded workloads.

    python3 perfbench/run.py --workload mixed-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; coincalc is imported from ./src and
never installed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
(prefixed ``#``) give the raw readings behind each metric.  ``--smoke`` runs
one round of every workload in both modes with every check on.  See
perfbench/README.md for the workloads, the metrics and the estimators.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, build  # noqa: E402

now = time.perf_counter

# the body of the ``coincalc`` console script
CLI_MAIN = "import sys; from coincalc.cli import main; sys.exit(main())"
MIN_TAIL_SAMPLES = 1000  # p99 needs at least ten samples beyond it
# Reported times are scaled to a host on which the reference loop takes this
# long (about its median on the 2-core host where the benchmark was written).
REF_MS = 7.5
CHILD_TIMEOUT_S = 60
FAMILIES = ("torus", "sphere", "spaceform", "projective", "stiefel",
            "wecken", "fixedpoint")


class HostClock:
    """The host reference loop (refloop.py) in an interpreter of its own.

    Its readings show how fast the host is running; the run's median reading
    scales every reported time to a host on which the loop takes REF_MS."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "refloop.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def read_ms(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def median(xs):
    return statistics.median(xs) if xs else 0.0


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


class Bench:
    def __init__(self, workload, seconds: float, trace: bool, smoke: bool,
                 work: Path):
        self.w = workload
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.work = work
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.query_rounds: list[list[float]] = []  # single-query ms per round
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def host(self) -> None:
        self.sample("host_ref_ms", self.clock.read_ms())

    def scale(self) -> float:
        """Factor from this run's host speed to the nominal one."""
        return REF_MS / median(self.samples["host_ref_ms"])

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def fail(self, message: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(message)

    # -- preparation (untimed) ---------------------------------------------

    def prepare(self) -> None:
        from checks import Checker
        from coincalc import cli, tables

        tables.set_factbase(tables.FactBase.load())
        queries = self.w.queries
        answers = cli.run_batch(queries)
        self.refs = [cli._dump(a) for a in answers]
        self.batch_ref = cli._dump(answers)
        self.round_errors = sum("error" in a for a in answers)
        checker = Checker(ROOT, self.w.notes)
        for q, a in zip(queries, answers):
            for problem in checker.check(q, a):
                self.fail(problem)

        self.first_path = self.work / "first.json"
        self.first = self.w.first_of_each_family()
        self.first_path.write_text(json.dumps(self.first))
        self.cli_paths = []
        for i in self.w.cli_index:
            path = self.work / f"query-{i}.json"
            path.write_text(json.dumps(queries[i]))
            self.cli_paths.append((path, self.refs[i]))
        self.rss_path = self.work / "chunk.json"
        self.rss_path.write_text(json.dumps([queries[i]
                                             for i in self.w.rss_index]))
        self.rss_ref = cli._dump([answers[i] for i in self.w.rss_index])
        self.family_counts = {f: sum(q["family"] == f for q in queries)
                              for f in FAMILIES}

    # -- child processes ----------------------------------------------------

    def child(self, args: list[str]):
        """Run python with args; returns (wall s, stdout, exit code)."""
        out_path = self.work / "stdout"
        with open(out_path, "wb") as out:
            t = now()
            proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                    stderr=subprocess.DEVNULL, cwd=ROOT,
                                    env=self.env)
            # a blocking wait: wait(timeout=...) polls in steps of up to
            # 50 ms, which would quantise the wall time
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
            wall = now() - t
        return wall, out_path.read_bytes(), code

    def probe(self) -> None:
        wall, out, code = self.child([str(HERE / "probe.py"), str(SRC),
                                      str(self.first_path),
                                      "1" if self.trace else "0"])
        self.attempted += len(self.first)
        if code != 0:
            self.failed += len(self.first)
            self.fail(f"set-up probe exited {code}")
            return
        reading = json.loads(out)
        for name in ("setup_s", "import_ms", "load_ms", "selfcheck_ms"):
            self.sample(name, reading[name])

    def cli_call(self, r: int) -> None:
        path, expected = self.cli_paths[r % len(self.cli_paths)]
        wall, out, code = self.child(["-c", CLI_MAIN, "query", str(path)])
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.fail(f"coincalc query {path.name} exited {code}")
        elif out != expected.encode():
            self.fail(f"coincalc query {path.name}: output differs from the "
                      f"in-process answer")
        self.sample("cli_ms", wall * 1e3)

    def rss_call(self) -> None:
        report = self.work / "rss_kb"
        wall, out, code = self.child(["-S", str(HERE / "peak_rss.py"),
                                      str(report), sys.executable, "-c",
                                      CLI_MAIN, "batch", str(self.rss_path)])
        self.attempted += len(self.w.rss_index)
        if code != 0:
            self.failed += len(self.w.rss_index)
            self.fail(f"coincalc batch exited {code}")
        elif out != self.rss_ref.encode():
            self.fail("coincalc batch: output differs from the in-process "
                      "answers")
        self.sample("peak_rss_mb", int(report.read_text()) / 1024)

    # -- in-process passes --------------------------------------------------

    def batch_pass(self) -> float:
        """run_batch plus the CLI's serialisation over one round."""
        from coincalc import cli
        t = now()
        out = cli._dump(cli.run_batch(self.w.queries))
        dt = now() - t
        self.attempted += len(self.w.queries)
        self.failed += self.round_errors
        if out != self.batch_ref:
            self.fail("batch pass: output differs from the checked answers")
        return dt

    def query_pass(self) -> None:
        from coincalc import cli
        run_query, dump = cli.run_query, cli._dump
        times = []
        self.query_rounds.append(times)
        for q, expected in zip(self.w.queries, self.refs):
            self.attempted += 1
            t = now()
            try:
                out = dump(run_query(q))
            except Exception as exc:  # counted, reported, and the run goes on
                self.failed += 1
                self.fail(f"{q['id']}: {type(exc).__name__}: {exc}")
                continue
            times.append((now() - t) * 1e3)
            if out != expected:
                self.fail(f"{q['id']}: answer differs from the checked one")

    def traced_pass(self, tracer) -> float:
        from spans import install_coincalc
        install_coincalc(tracer)
        try:
            return self.batch_pass()
        finally:
            tracer.uninstall()

    # -- the measured window ------------------------------------------------

    def run(self) -> dict:
        from spans import Tracer
        self.prepare()
        tracer = Tracer() if self.trace else None
        self.clock = HostClock()
        try:
            self.rounds = self.measure(tracer)
        finally:
            self.clock.close()
        if tracer is not None:
            tracer.dump(HERE / ".spans" / f"{self.w.name}.jsonl")
            return self.layer_metrics(tracer)
        return self.end_to_end_metrics()

    def measure(self, tracer) -> int:
        """Repeat rounds until the time is up; returns the round count."""
        deadline = now() + self.seconds
        rounds = 0
        while True:
            self.host()
            self.probe()
            if self.trace:
                self.host()
                self.sample("untraced_s", self.batch_pass())
                self.host()
                self.sample("traced_s", self.traced_pass(tracer))
            else:
                self.host()
                self.cli_call(rounds)
                self.host()
                self.rss_call()
                self.host()
                self.sample("batch_qps",
                            len(self.w.queries) / self.batch_pass())
                self.host()
                self.query_pass()
            rounds += 1
            if self.smoke:
                return rounds
            enough = (self.trace or sum(map(len, self.query_rounds))
                      >= MIN_TAIL_SAMPLES)
            if now() >= deadline and enough:
                return rounds

    # -- metrics ------------------------------------------------------------

    def tail_groups(self) -> list[list[float]]:
        """Consecutive whole rounds of single-query times, each group with
        at least MIN_TAIL_SAMPLES samples (a short last group joins the one
        before it)."""
        groups, current = [], []
        for times in self.query_rounds:
            current = current + times
            if len(current) >= MIN_TAIL_SAMPLES:
                groups.append(current)
                current = []
        if current and groups:
            groups[-1] += current
        return groups or [current]

    def end_to_end_metrics(self) -> dict:
        s, k = self.samples, self.scale()
        pooled = [t for times in self.query_rounds for t in times]
        # p99 of each group of >= 1,000 samples, then the median over the
        # groups: a slow spell inflates the tail of its own group only
        p99 = median([statistics.quantiles(g, n=100)[98]
                      for g in self.tail_groups()])
        return {
            "setup_s": (median(s["setup_s"]) * k, "s"),
            "cli_ms": (median(s["cli_ms"]) * k, "ms"),
            "batch_qps": (median(s["batch_qps"]) / k, "1/s"),
            "query_ms.p50": (median(pooled) * k, "ms"),
            "query_ms.p99": (p99 * k, "ms"),
            "peak_rss_mb": (median(s["peak_rss_mb"]), "MB"),
        }

    def layer_metrics(self, tracer) -> dict:
        from spans import SNF_BANDS
        s, c = self.samples, tracer.counts
        n_queries = len(self.w.queries) * self.rounds
        torus_queries = self.family_counts["torus"] * self.rounds
        busy = sum(s["traced_s"])

        def self_per(layer, count, unit=1e6):
            return _per(tracer.self_s[layer] * unit, count)

        m = {
            "import_ms": (median(s["import_ms"]), "ms"),
            "tables.load_ms": (median(s["load_ms"]), "ms"),
            "wecken.selfcheck_ms": (median(s["selfcheck_ms"]), "ms"),
            "cli.dispatch_us": (self_per("cli.dispatch", n_queries), "us"),
            "cli.payload_us": (self_per("cli.payload", n_queries), "us"),
            "verdict.validate_us": (
                self_per("verdict.validate",
                         tracer.calls["verdict.validate"]), "us"),
            "serialize.us": (self_per("serialize", n_queries), "us"),
            "serialize.share": (self_per("serialize", busy, 100), "%"),
            "serialize.bytes": (len(self.batch_ref) / len(self.w.queries),
                                "bytes"),
        }
        for f in FAMILIES:
            m[f"engine.us.{f}"] = (
                _per(tracer.incl_s[f"engine.{f}"] * 1e6,
                     self.family_counts[f] * self.rounds), "us")
            m[f"engine.calls.{f}"] = (self.family_counts[f], "count")
        m["lattice.snf_calls_per_query"] = (
            _per(tracer.calls["lattice.snf"], torus_queries), "count")
        for band in SNF_BANDS:
            m[f"lattice.snf_ms.{band}"] = (
                _per(c["snf_s." + band] * 1e3, c["snf_calls." + band]), "ms")
        m["lattice.snf_share"] = (self_per("lattice.snf", busy, 100), "%")
        m["lattice.intmatrix_us"] = (
            self_per("lattice.intmatrix", torus_queries), "us")
        m["lattice.transform_digits"] = (
            _per(c["transform_digits"], c["transform_calls"]), "digits")
        m["stiefel.chi_digits"] = (
            _per(c["chi_digits"], tracer.calls["stiefel.chi"]), "digits")
        m["stiefel.chi_us"] = (
            self_per("stiefel.chi", tracer.calls["stiefel.chi"]), "us")
        k = self.scale()
        m = {name: (value * k if unit in ("ms", "us") else value, unit)
             for name, (value, unit) in m.items()}
        m["trace.overhead_pct"] = (
            (median(s["traced_s"]) / median(s["untraced_s"]) - 1) * 100, "%")
        m["trace.bookkeeping_pct"] = (_per(tracer.overhead_s * 100, busy), "%")
        m["host.ref_ms"] = (median(s["host_ref_ms"]), "ms")  # unscaled
        return m

    def report_lines(self) -> list[str]:
        lines = [f"# workload {self.w.name}: {len(self.w.queries)} queries "
                 f"per round, {self.rounds} rounds, trace={int(self.trace)}, "
                 f"times scaled by {self.scale():.6g} to a {REF_MS} ms "
                 f"reference loop"]
        series = dict(self.samples)
        if self.query_rounds:
            series["query_ms"] = [t for ts in self.query_rounds for t in ts]
            series["query_ms.group_p99"] = [
                statistics.quantiles(g, n=100)[98] for g in self.tail_groups()]
        for name, xs in sorted(series.items()):
            if xs:
                q = (statistics.quantiles(xs, n=4) if len(xs) > 1
                     else [xs[0]] * 3)
                lines.append(f"# {name}: n={len(xs)} median={median(xs):.6g} "
                             f"q1={q[0]:.6g} q3={q[2]:.6g} min={min(xs):.6g} "
                             f"max={max(xs):.6g}")
        return lines


def run_one(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    work = HERE / ".tmp" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(build(name, seed, ROOT), seconds, trace, smoke, work)
        metrics = bench.run()
        for line in bench.report_lines():
            print(line)
        for problem in bench.problems:
            print(f"# problem: {problem}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": not bench.problems, "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def import_coincalc() -> str | None:
    """Import coincalc from this checkout's src/; an error message if not."""
    if not (SRC / "coincalc" / "cli.py").is_file():
        return f"no coincalc sources under {SRC}"
    if not (ROOT / "tests" / "data" / "golden_answers.json").is_file():
        return "no golden corpus under tests/data"
    sys.path.insert(0, str(SRC))
    os.environ.pop("NIELSEN_FACTBASE", None)  # always the bundled fact base
    import coincalc
    if SRC.resolve() not in Path(coincalc.__file__).resolve().parents:
        return f"coincalc was imported from {coincalc.__file__}, not {SRC}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of every workload (or of --workload) "
                             "in both modes, every check on, no timing gate")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    error = import_coincalc()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    if args.smoke:
        names = [args.workload] if args.workload else list(WORKLOADS)
        results = [run_one(name, args.seed, 0, trace, smoke=True)
                   for name in names for trace in (False, True)]
        ok = all(r["correct"] and r["failed"] == 0 for r in results)
        print(json.dumps({"correct": ok,
                          "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results),
                          "metrics": {}}))
        return 0 if ok else 1

    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
