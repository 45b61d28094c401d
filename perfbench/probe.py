"""Set-up probe, run in a fresh interpreter by run.py.

    python3 perfbench/probe.py SRC_DIR FIRST_QUERIES_JSON TRACE

Times what a new coincalc process pays before its answers are cheap:
``import coincalc.cli``, the fact-base load and lint, and the first query of
each family (the first Wecken query pays the overlap self-check).  Prints one
JSON object.  With TRACE = 1 the self-check is timed on its own by wrapping
``wecken.overlap_disagreements``.
"""

import sys
import time

T0 = time.perf_counter()


def main() -> None:
    src, first_path, traced = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    sys.path.insert(0, src)
    t = time.perf_counter()
    import coincalc.cli as cli
    from coincalc import tables, wecken
    t_import = time.perf_counter()
    tables.set_factbase(tables.FactBase.load())
    t_load = time.perf_counter()

    selfcheck = [0.0]
    if traced:
        scan = wecken.overlap_disagreements

        def timed_scan(*args, **kwargs):
            start = time.perf_counter()
            try:
                return scan(*args, **kwargs)
            finally:
                selfcheck[0] += time.perf_counter() - start

        wecken.overlap_disagreements = timed_scan

    import json
    with open(first_path, encoding="utf-8") as handle:
        queries = json.load(handle)
    for q in queries:
        cli._dump(cli.run_query(q))
    t_end = time.perf_counter()
    print(json.dumps({"setup_s": t_end - T0,
                      "import_ms": (t_import - t) * 1e3,
                      "load_ms": (t_load - t_import) * 1e3,
                      "selfcheck_ms": selfcheck[0] * 1e3}))


if __name__ == "__main__":
    main()
