#!/usr/bin/env python3
"""
permstat benchmark: one workload through the `permstat` CLI, checked and timed.

Run from the repository root:

    python3 perfbench/run.py --workload dense-poly --seed 1 --seconds 40 --trace 0

A single closed-loop client runs the workload's jobs one at a time, each as
its own `python -m permstat ... --format json` process, and checks every
output against the independent oracle in oracle.py.

--trace 0 reports the end-to-end metrics: it repeats passes over the jobs
until --seconds would be exceeded, each pass after two no-op invocations
(setup_s), and reports medians over passes: per job for wall_s, cpu_s and
peak_rss_mb, over all no-ops for setup_s.

--trace 1 reports the per-layer metrics: each pass runs every job once
through the CLI and replays it through the library's public functions with
a span around each call (spans.py).  Spans and per-pass details are written
to .perfbench/ under the repository root.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; failed / attempted is the share of jobs that
exited non-zero or failed their oracle.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics as stats
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path[:0] = [str(HERE), str(SRC)]

import oracle  # noqa: E402
from workloads import PAR, SETUP_JOB, WORKLOADS, jobs_for  # noqa: E402

SETUP_PER_PASS = 2
IMPORT_REPEATS = 5
JOB_TIMEOUT_S = 120

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import permstat.cli; "
    "print(time.perf_counter() - t)"
)
# The CLI's pool as `_parallel_polynomial` builds it, started, used once and shut down.
POOL_PROBE = (
    "import time, permstat.cli; from concurrent.futures import ProcessPoolExecutor; "
    "t = time.perf_counter()\n"
    "with ProcessPoolExecutor(max_workers={par}) as pool: list(pool.map(abs, range({par})))\n"
    "print(time.perf_counter() - t)"
)


@dataclass
class Outcome:
    """One CLI process: its parsed result and what it cost."""

    code: int
    wall: float
    cpu: float
    rss_mb: float
    result: dict | None = None
    elapsed: float | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class Launcher:
    """The resident process (launcher.py) that forks every command the benchmark runs."""

    def __init__(self):
        OUT.mkdir(exist_ok=True)
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), str(OUT), str(JOB_TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)))

    def run(self, argv: list[str]) -> tuple[bytes, bytes, Outcome]:
        """Run one command to exit: its stdout, its stderr and what it cost."""
        self._proc.stdin.write(json.dumps(argv) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self._proc.wait()}")
        outcome = Outcome(**json.loads(reply))
        return (OUT / "job.out").read_bytes(), (OUT / "job.err").read_bytes(), outcome

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=JOB_TIMEOUT_S)
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_cli(launcher: Launcher, job) -> Outcome:
    """One job through the CLI, its JSON result checked against the oracle."""
    out, stderr, outcome = launcher.run([sys.executable, "-m", "permstat", *job.argv(), "--format", "json"])
    if outcome.code != 0:
        outcome.problems.append(f"exit code {outcome.code}: {stderr.decode(errors='replace').strip()[-300:]}")
        return outcome
    try:
        record = json.loads(out)
        outcome.result, outcome.elapsed = record["result"], record["elapsed_ms"] / 1000
    except (ValueError, KeyError, TypeError) as exc:
        outcome.problems.append(f"unreadable output: {exc!r}")
        return outcome
    outcome.problems += oracle.check(job, outcome.result)
    return outcome


def _timed_snippet(launcher: Launcher, code: str) -> float:
    out, stderr, outcome = launcher.run([sys.executable, "-c", code])
    if outcome.code != 0:
        raise RuntimeError(f"probe failed: {stderr.decode(errors='replace').strip()}")
    return float(out)


def measure(launcher: Launcher, jobs, seconds: float):
    """The untraced run: passes over the jobs, each after SETUP_PER_PASS no-op probes.

    Returns (metrics, attempted, failed, problems, document).
    """
    setup: list[Outcome] = []
    samples: dict[str, list[Outcome]] = {job.name: [] for job in jobs}
    start = perf_counter()
    while True:
        t0 = perf_counter()
        setup += [run_cli(launcher, SETUP_JOB) for _ in range(SETUP_PER_PASS)]
        for job in jobs:
            samples[job.name].append(run_cli(launcher, job))
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            break
    per_job = samples.values()
    metrics = {
        "wall_s": sum(stats.median(o.wall for o in runs) for runs in per_job),
        "cpu_s": sum(stats.median(o.cpu for o in runs) for runs in per_job),
        "setup_s": stats.median(o.wall for o in setup),
        "peak_rss_mb": max(stats.median(o.rss_mb for o in runs) for runs in per_job),
    }
    outcomes = [(SETUP_JOB.name, o) for o in setup] + [
        (name, o) for name, runs in samples.items() for o in runs]
    problems = [f"{name}: {msg}" for name, o in outcomes for msg in o.problems]
    document = {"runs": [{"job": name, "wall": o.wall, "cpu": o.cpu, "rss_mb": o.rss_mb,
                          "elapsed": o.elapsed, "code": o.code} for name, o in outcomes]}
    return metrics, len(outcomes), sum(o.failed for _, o in outcomes), problems, document


def run_traced(launcher: Launcher, jobs, seconds: float, seed: int, wanted: list[str]):
    """The traced run; returns (metrics, attempted, failed, problems, document)."""
    import spans  # imports permstat, which main() has checked is present

    metrics, records, filled = spans.traced_run(
        jobs, seconds, seed, functools.partial(run_cli, launcher),
        [w for w in wanted if w not in ("cli.import_s", "cli.pool_start_s")])
    metrics["cli.import_s"] = stats.median(_timed_snippet(launcher, IMPORT_PROBE) for _ in range(IMPORT_REPEATS))
    metrics["cli.pool_start_s"] = stats.median(
        _timed_snippet(launcher, POOL_PROBE.format(par=PAR)) for _ in range(IMPORT_REPEATS))
    problems = [msg for r in records for msg in r.problems]
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    document = {"filled_from_probe_jobs": filled, "passes": spans.trace_document(records)}
    return metrics, attempted, failed, problems, document


def metadata(args) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
        "commit": commit, "threads": PAR,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "permstat" / "cli.py").is_file():
        print(f"perfbench: no permstat sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    jobs = jobs_for(args.workload, args.seed)
    meta = metadata(args)
    with Launcher() as launcher:
        if args.trace:
            metrics, attempted, failed, problems, document = run_traced(
                launcher, jobs, args.seconds, args.seed, list(units))
        else:
            metrics, attempted, failed, problems, document = measure(launcher, jobs, args.seconds)

    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 3
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(
        {"meta": meta, "metrics": metrics, "attempted": attempted, "failed": failed,
         "problems": problems, **document}, indent=1, default=repr))

    for msg in problems:
        print(f"FAILED {msg}")
    for key in sorted(metrics):
        print(f"{key:48s} {metrics[key]:14.6g} {units[key]}")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4g}")
    print("meta " + json.dumps(meta))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
