"""Run a command and write its peak resident set size (KB) to a file.

    python3 -S perfbench/peak_rss.py REPORT_FILE COMMAND [ARGS...]

Linux keeps the high-water mark of the address space a process had before
exec, so a child started straight from the (large) benchmark process would
report the benchmark's own size.  This small launcher forks the command
itself, so the figure is the command's alone.  Exits with its exit code.
"""

import os
import sys


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    with open(report, "w", encoding="ascii") as handle:
        handle.write(str(usage.ru_maxrss))
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main())
