"""
A small resident process that runs the benchmark's commands one at a time.

Linux starts a child's peak-RSS figure at the size of the process that
forked it, so jobs forked by the benchmark itself, which grows as it works,
would report the benchmark's memory instead of their own.  The benchmark
starts this process once and sends it the commands instead.

    python3 launcher.py OUT_DIR TIMEOUT_S

Reads one JSON argv list per line on stdin.  Runs it with stdout and stderr
in OUT_DIR/job.out and OUT_DIR/job.err and answers with one JSON line: exit
code, wall seconds, CPU seconds and peak RSS in MB, the last two including
the children the command waited for.  A command still running after
TIMEOUT_S is killed with its process group.  Exits at end of input.
"""
import json
import os
import signal
import subprocess
import sys
import threading
import time


def main() -> int:
    out_dir, timeout = sys.argv[1], float(sys.argv[2])
    for line in sys.stdin:
        argv = json.loads(line)
        with open(os.path.join(out_dir, "job.out"), "wb") as out, \
                open(os.path.join(out_dir, "job.err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, start_new_session=True)
            watchdog = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                          "rss_mb": usage.ru_maxrss / 1024}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
