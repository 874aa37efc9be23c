"""
The benchmark's jobs: each one is a single `permstat` CLI invocation.

Job sizes are fixed; the seed only permutes the order in which a workload's
jobs run, so every seed does the same work and run-to-run spread measures
the machine, not the inputs.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

# Pool width for the jobs that shard: at most two workers, never more than the machine has.
PAR = min(2, os.cpu_count() or 1)


@dataclass(frozen=True, eq=False)
class Job:
    cmd: str
    params: dict = field(default_factory=dict)

    def argv(self, threads: bool = True) -> list[str]:
        """CLI arguments after `permstat`; threads=False drops --threads (reference keys)."""
        out = [self.cmd]
        for key, value in self.params.items():
            if key == "target":
                out.append(value)
            elif key == "threads" and not threads:
                continue
            elif value is True:
                out.append(f"--{key}")
            elif isinstance(value, list):
                for item in value:
                    out += [f"--{key}", item]
            else:
                out += [f"--{key}", str(value)]
        return out

    @property
    def name(self) -> str:
        return " ".join(self.argv())


def poly(n, avoid, stat, threads=PAR):
    return Job("poly", {"n": n, "avoid": [avoid], "stat": stat, "threads": threads})


WORKLOADS = {
    # Avoidance sets with many avoiders: the search is nearly all of the time,
    # every statistic, the pool and the shard merge run, tableaux never do.
    "dense-poly": [
        poly(10, "321", "ch"),
        poly(10, "132", "maj"),
        poly(8, "1234", "inv"),  # the generic backtracking matcher
        Job("avoid", {"n": 10, "avoid": ["231"], "threads": PAR}),  # rendering and memory
        poly(10, "321", "ch", threads=1),  # single-process baseline of the first job
    ],
    # Many small length-3 sets at every n up to n_max in one process, and
    # searches where almost every avoiding prefix is a dead end.  No pool:
    # a single process per job keeps its wall time steady on a shared host.
    "sparse-classes": [
        Job("classes", {"stat": "ch", "size": 2, "nmax": 9}),
        Job("classes", {"stat": "maj", "size": 3, "nmax": 10}),
        Job("avoid", {"n": 15, "avoid": ["12"], "count": True}),
        Job("avoid", {"n": 12, "avoid": ["123", "132", "213"], "count": True}),
    ],
    # No avoidance search: ballot words, tableaux, reading-word charge, rank/unrank.
    "tableau-route": [
        Job("poly", {"fast": True, "n": 19, "avoid": ["321"], "stat": "ch"}),
        Job("verify", {"target": "theorem8", "k": 4}),
        Job("verify", {"target": "corollary9", "k": 4}),
        Job("verify", {"target": "involution", "n": 15}),
        Job("verify", {"target": "lemma5", "k": 10}),
    ],
}

# Small jobs covering every layer.  The traced run takes from them the
# per-layer metrics of the layers a workload's own jobs never reach.
PROBE_JOBS = [
    poly(8, "321", "ch"),
    poly(8, "321", "ch", threads=1),
    Job("classes", {"stat": "ch", "size": 1, "nmax": 7}),
    Job("poly", {"fast": True, "n": 13, "avoid": ["321"], "stat": "ch"}),
    Job("verify", {"target": "involution", "n": 7}),
]

# A no-op invocation: interpreter start-up plus `import permstat.cli`.
SETUP_JOB = Job("stat", {"perm": "1", "stat": "maj"})


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's jobs in the order the seed fixes."""
    jobs = list(WORKLOADS[workload])
    random.Random(seed).shuffle(jobs)
    return jobs
