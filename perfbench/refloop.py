"""Host reference loop, run by run.py in an interpreter of its own.

    python3 -S perfbench/refloop.py

For each line read from standard input, times one pass of a fixed
pure-Python loop and prints the time in ms.  The interpreter never imports
coincalc and collection is off, so nothing the program under test does to
its own heap can move this yardstick; only the speed of the host does.
"""

import gc
import sys
import time


def loop_ms() -> float:
    t = time.perf_counter()
    acc, rows = 0, []
    for i in range(8000):
        item = {"id": i, "value": (acc * 31 + i) % 1_000_003, "pair": [i, -i]}
        acc = item["value"]
        rows.append(f"{item['id']}:{acc}")
        if len(rows) == 64:
            rows = []
    return (time.perf_counter() - t) * 1e3


def main() -> None:
    gc.disable()
    while sys.stdin.readline():
        print(f"{loop_ms():.6f}", flush=True)


if __name__ == "__main__":
    main()
