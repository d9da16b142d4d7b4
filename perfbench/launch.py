"""Run one command; report its wall time, its peak RSS and its exit code.

    python3 perfbench/launch.py LOG -- COMMAND [ARG ...]

The command's output goes to LOG, and one JSON line
``{"wall_s": ..., "maxrss_kb": ..., "exit": ...}`` goes to standard output.
Linux carries a parent's peak RSS over into the peak its child reports
after ``exec``, so the benchmark driver, which grows large while it builds
inputs and reads outputs, starts this small process for every operation
and lets it be the command's parent.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    log_path, sep, *command = sys.argv[1:]
    if sep != "--" or not command:
        print(__doc__, file=sys.stderr)
        return 2
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "exit": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
