"""Runs the command-line steps of the cli-pg31 workload on request.

A child started straight from the benchmark process would inherit that
process's peak RSS: Linux carries the peak of the memory it forked from over
``exec``, and the benchmark holds grasspack, numpy and checked outputs. This
process stays small, so the peak RSS that ``wait4`` reports for each child is
the child's own.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": ..., "env": {...}, "stderr": path, "timeout": s}``;
one JSON reply per line on stdout, ``{"code": int, "rss_mb": float}``.
The process exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading


def run(request: dict) -> dict:
    with open(request["stderr"], "wb") as err:
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
