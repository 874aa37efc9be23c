#!/usr/bin/env python3
"""
Record the coefficient vectors that oracle.py compares against.

Run from the repository root, only when a job's expected output is meant
to change:

    python3 perfbench/record_references.py

It runs every job with a coefficient vector through the CLI and writes
references.json.  perfbench/test_perfbench.py cross-checks the recorded
vectors against the oracle's growth enumeration wherever that can run.
"""
import json
import subprocess
import sys

import oracle
from run import ROOT, Launcher
from workloads import PROBE_JOBS, WORKLOADS


def main() -> int:
    jobs = [j for js in WORKLOADS.values() for j in js] + PROBE_JOBS
    coefficients = {}
    with Launcher() as launcher:
        for job in jobs:
            if job.cmd == "poly" or job.params.get("target") in ("theorem8", "corollary9"):
                out, stderr, outcome = launcher.run(
                    [sys.executable, "-m", "permstat", *job.argv(), "--format", "json"])
                if outcome.code != 0:
                    sys.exit(f"{job.name}: {stderr.decode()}")
                coefficients[oracle.reference_key(job)] = json.loads(out)["result"]["coefficients"]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in coefficients.items()]
    oracle.REFERENCES.write_text(
        f'{{\n "recorded_at": {json.dumps(commit.stdout.strip())},\n "coefficients": {{\n'
        + ",\n".join(lines) + "\n }\n}\n")
    print(f"wrote {len(coefficients)} vectors to {oracle.REFERENCES.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
