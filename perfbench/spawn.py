"""Launcher that runs the benchmark's child processes and times them.

Linux gives an exec'd process the peak RSS of the memory image it replaced,
so a child spawned straight from the benchmark would report at least the
benchmark's own peak RSS.  This launcher stays small (it imports only
os, sys, time, json and signal) and spawns every child, so a child's max RSS
is its own, floored at the launcher's few megabytes.

Protocol: one JSON object per line on stdin,
    {"argv": [...], "timeout": seconds, "stdout": path, "stderr": path}
and one JSON object per line on stdout,
    {"seconds", "status", "cpu_s", "rss_kb", "timed_out"}
where seconds is the wall time from spawn to exit.  Exits at end of input.
"""

import json
import os
import signal
import sys
import time

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def run(req: dict) -> dict:
    actions = [(os.POSIX_SPAWN_OPEN, 1, req["stdout"], FLAGS, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, req["stderr"], FLAGS, 0o644)]
    timed_out = []

    def kill(signum, frame):
        timed_out.append(True)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:  # exited just as the timer fired
            pass

    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *req["argv"]], os.environ,
                         file_actions=actions)
    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, req["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "status": os.waitstatus_to_exitcode(status),
            "cpu_s": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss,
            "timed_out": bool(timed_out)}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
