"""
Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q

The end-to-end tests run every workload with --seconds 0 (one pass each)
and take about two minutes.
"""
import io
import itertools
import json
import sys
from contextlib import redirect_stdout
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import PROBE_JOBS, WORKLOADS, Job, jobs_for  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_declared_metric_is_emitted(workload, trace):
    line = _bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace))
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))


@pytest.mark.parametrize("trace", [0, 1])
def test_corrupted_result_raises_failed(monkeypatch, trace):
    job = Job("verify", {"target": "theorem8", "k": 4})
    real = run.Launcher.run

    def corrupting(self, argv):
        out, err, outcome = real(self, argv)
        if job.argv() == argv[3:-2]:
            out = out.replace(b'"coefficient_sum": 9694845', b'"coefficient_sum": 9694846')
        return out, err, outcome

    monkeypatch.setattr(run.Launcher, "run", corrupting)
    line = _bench("--workload", "tableau-route", "--seed", "1", "--seconds", "0", "--trace", str(trace))
    assert not line["correct"]
    assert 1 <= line["failed"] < line["attempted"]


def test_corrupted_coefficients_fail_the_oracle():
    job = WORKLOADS["dense-poly"][0]
    result = {"coefficients": list(oracle.references()[oracle.reference_key(job)]),
              "coefficient_sum": oracle.catalan(10)}
    assert oracle.check(job, result) == []
    result["coefficients"][3] += 1
    result["coefficients"][4] -= 1
    assert oracle.check(job, result)
    assert oracle.check(job, {"count": 1})


def test_traced_and_untraced_outputs_are_identical():
    jobs = {j.name: j for js in WORKLOADS.values() for j in js}
    jobs.update((j.name, j) for j in PROBE_JOBS)
    with run.Launcher() as launcher:
        outcomes = {name: run.run_cli(launcher, job) for name, job in jobs.items()}
    for job in jobs.values():
        cli = outcomes[job.name]
        assert cli.problems == [], job.name
        traced = spans.replay(job, spans.Tracer())
        assert traced == cli.result, job.name
        assert spans.replay(job, spans.NullTracer()) == traced, job.name


def test_seed_fixes_job_order_only():
    for name, jobs in WORKLOADS.items():
        assert [j.name for j in jobs_for(name, 3)] == [j.name for j in jobs_for(name, 3)]
        assert sorted(j.name for j in jobs_for(name, 4)) == sorted(j.name for j in jobs)


def test_growth_enumeration_matches_brute_force():
    sets = [frozenset(c) for k in (1, 2, 3) for c in itertools.combinations(oracle.S3, k)]
    sets += [frozenset({(1, 2, 3, 4)}), frozenset({(2, 4, 1, 3)}), frozenset({(1, 2)})]
    for pats in sets:
        levels = oracle.avoider_levels(6, pats)
        for n in range(7):
            brute = [p for p in itertools.permutations(range(1, n + 1))
                     if not any(oracle.contains(p, t) for t in pats)]
            assert list(levels[n]) == brute, (pats, n)


def test_references_match_growth_enumeration():
    checked = 0
    for job in [j for js in WORKLOADS.values() for j in js] + PROBE_JOBS:
        key = oracle.reference_key(job)
        if job.cmd != "poly" or job.params.get("fast"):
            continue
        n, pats = job.params["n"], frozenset(oracle.parse_pattern(t) for t in job.params["avoid"])
        perms = oracle.avoider_levels(n, pats)[n]
        assert oracle.polynomial(perms, job.params["stat"]) == oracle.references()[key], key
        checked += 1
    assert checked >= 4


def test_closed_counts_match_growth():
    assert [oracle.catalan(n) for n in range(12)] == [comb(2 * n, n) // (n + 1) for n in range(12)]
    assert oracle.avoider_counts(8, frozenset({(1, 2, 3, 4)})) == \
        [len(level) for level in oracle.avoider_levels(8, frozenset({(1, 2, 3, 4)}))]
    assert all(oracle.stack_sortable(p) == (not oracle.contains(p, (2, 3, 1)))
               for p in itertools.permutations(range(1, 8)))


def test_search_counts_are_the_avoiding_prefixes():
    for pats in (frozenset({(3, 2, 1)}), frozenset({(1, 2)}), frozenset({(1, 2, 3), (1, 3, 2), (2, 1, 3)})):
        n = 6
        prefixes = sum(1 for k in range(n + 1)
                       for q in itertools.permutations(range(1, n + 1), k)
                       if not any(oracle.contains(q, t) for t in pats))
        leaves = len(oracle.avoider_levels(n, pats)[n])
        assert oracle.search_counts(n, pats) == {"prefixes": prefixes, "leaves": leaves}


def test_self_time_subtracts_children():
    tr = spans.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(10000))
    self_times = tr.self_times()
    outer, inner = tr.spans
    assert self_times["inner"] == inner.duration
    assert self_times["outer"] == pytest.approx(outer.duration - inner.duration)
    assert inner.parent == 0 and outer.parent is None


def test_refuses_to_run_without_the_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "dense-poly", "--seed", "1", "--seconds", "1"]) == 2
