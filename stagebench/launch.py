"""Runs the CLI for the benchmark from a process that stays small.

A child's maximum RSS, as wait4 reports it, starts at the RSS of the
process it was forked from, and the benchmark process holds whole reports.
This launcher is started before the benchmark grows and starts every CLI
run, so `peak_rss_mb` is the CLI's own and start-up cost does not depend on
the benchmark's size.

Protocol: one JSON argv list per line on stdin; one JSON line back with the
wall time from spawn to reap, the exit code, the maximum RSS in KiB and the
SHA-256 and size of the child's stdout, which is drained in small chunks.
The launcher exits at end of input.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

CHUNK = 1 << 16


def run(argv: list[str]) -> dict:
    digest = hashlib.sha256()
    size = 0
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
    try:
        while chunk := proc.stdout.read(CHUNK):
            digest.update(chunk)
            size += len(chunk)
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": time.perf_counter() - started, "returncode": proc.returncode,
            "maxrss_kib": usage.ru_maxrss, "sha256": digest.hexdigest(), "size": size}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
