"""
The traced run: every job replayed through the library's public functions,
with a span around each call, plus probes that time one layer at a time.

A span records its name, start, end, parent span, job and phase ("job" for
the replay of a CLI job, "probe" for the extra calls that isolate a layer).
Spans stay in memory and are written out when the run ends.  Each replay
must return exactly the `result` the CLI printed for the same job, so a
traced run also checks that tracing changes no output.
"""
from __future__ import annotations

import itertools
import random
import statistics as stats
from contextlib import contextmanager
from time import perf_counter

from permstat import tableaux, wilf_engine
from permstat.perm_core import contains_pattern, enumerate_avoiders
from permstat.statistics import charge, inversions, major_index, merge_polynomials, stat_polynomial

from oracle import S3, contains, fmt_perm, fmt_set, parse_pattern, search_counts
from workloads import PROBE_JOBS

CONTAINS_SAMPLES = 2000
CONTAINS_CHECKED = 100
BALLOT_SAMPLES = 2000


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "phase", "attrs")

    def __init__(self, name, parent, job, phase, attrs):
        self.name, self.parent, self.job, self.phase, self.attrs = name, parent, job, phase, attrs
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end, "parent": self.parent,
                "job": self.job, "phase": self.phase,
                **{k: v if isinstance(v, (int, float, str)) else repr(v) for k, v in self.attrs.items()}}


class Tracer:
    """Records spans in memory; `job` and `phase` label the spans opened next."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self.phase = "job"
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        s = Span(name, self._open[-1] if self._open else None, self.job, self.phase, attrs)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        s.start = perf_counter()
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._open.pop()

    def select(self, name: str, phase: str | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name and phase in (None, s.phase)]

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.duration
            if s.parent is not None:
                parent = self.spans[s.parent].name
                out[parent] = out.get(parent, 0.0) - s.duration
        return out


class NullTracer:
    """Same interface, records nothing: the untraced side of the overhead comparison."""

    @contextmanager
    def span(self, name: str, **attrs):
        yield Span(name, None, None, None, attrs)


def _patterns(job) -> frozenset:
    return frozenset(parse_pattern(t) for t in job.params["avoid"])


def _shards(job) -> list:
    """The `first` argument of each call the CLI makes for the job: one per shard, or None."""
    n = job.params["n"]
    return list(range(1, n + 1)) if min(job.params.get("threads", 1), n) > 1 else [None]


def _replay_poly(job, tr):
    p = job.params
    if p.get("fast"):
        with tr.span("tableaux.fast_ch_321"):
            return tableaux.fast_ch_321(p["n"])
    n, pats = p["n"], _patterns(job)
    parts = []
    for first in _shards(job):
        with tr.span("statistics.stat_polynomial", input=(n, pats), group=job.name, shard=first):
            parts.append(stat_polynomial(n, pats, p["stat"], first=first))
    if len(parts) == 1:
        return parts[0]
    with tr.span("statistics.merge_polynomials"):
        return merge_polynomials(parts)


def replay(job, tr) -> dict:
    """Compute the job's CLI `result` from library calls, one span per call."""
    p = job.params
    with tr.span(f"job.{job.cmd}"):
        if job.cmd == "poly":
            poly = _replay_poly(job, tr)
            return {"coefficients": list(poly.coeffs), "coefficient_sum": poly.total()}

        if job.cmd == "avoid":
            n, pats = p["n"], _patterns(job)
            perms = []
            for first in _shards(job):
                with tr.span("perm_core.enumerate_avoiders", shard=first) as s:
                    part = list(enumerate_avoiders(n, pats, first=first))
                    s.attrs["items"] = len(part)
                perms += part
            if p.get("count"):
                return {"count": len(perms)}
            return {"count": len(perms), "permutations": [fmt_perm(q) for q in perms]}

        if job.cmd == "classes":
            candidates = [frozenset(c) for c in itertools.combinations(S3, p["size"])]
            with tr.span("wilf_engine.st_wilf_classes"):
                report = wilf_engine.st_wilf_classes(candidates, p["stat"], p["nmax"])
            return {
                "n_range": list(report.n_range),
                "classes": [[fmt_set(m) for m in cls] for cls in report.classes],
                "witness_polynomials": {
                    fmt_set(pi): [list(poly.coeffs) for poly in polys]
                    for pi, polys in report.witness_polynomials.items()
                },
            }

        if job.cmd == "verify":
            target = p["target"]
            with tr.span(f"tableaux.verify_{target}"):
                passed = getattr(tableaux, f"verify_{target}")(p.get("k", p.get("n")))
            if target == "involution":
                return {"passed": passed, "two_row_words": tableaux.count_two_row(p["n"])}
            n = 2 ** p["k"] - 1
            if target == "lemma5":
                total = 1 + sum(tableaux.syt_count_two_row_shape(n, r) ** 2 for r in range(1, n // 2 + 1))
                return {"passed": passed, "n": n, "avoider_count": total}
            if target == "corollary9" and p["k"] <= 3:
                poly = stat_polynomial(n, [(3, 2, 1)], "maj")
            else:
                poly = tableaux.fast_ch_321(n)
            return {"passed": passed, "n": n, "coefficients": list(poly.coeffs),
                    "coefficient_sum": poly.total()}
    raise ValueError(f"no replay for job {job.name!r}")


def _search_probe(tr, n, pats, counts):
    """One full enumeration of a search input, then each statistic over its avoiders."""
    key = (n, pats)
    if key in counts:
        return
    counts[key] = search_counts(n, pats)
    with tr.span("perm_core.enumerate_avoiders", input=key) as s:
        perms = list(enumerate_avoiders(n, pats))
        s.attrs["items"] = len(perms)
    for fn in (major_index, charge, inversions):
        with tr.span(f"statistics.{fn.__name__}", items=len(perms)):
            for q in perms:
                fn(q)


def probe(job, tr, counts, rng) -> list[str]:
    """Per-layer probes for one job; returns problems found on the way."""
    p = job.params
    problems = []
    if job.cmd in ("poly", "avoid") and not p.get("fast"):
        _search_probe(tr, p["n"], _patterns(job), counts)
    elif job.cmd == "poly":
        n = p["n"]
        with tr.span("tableaux.enumerate_two_row_syt") as s:
            words = list(tableaux.enumerate_two_row_syt(n))
            s.attrs["items"] = len(words)
        with tr.span("tableaux.ballot_to_tableau", items=len(words)):
            tabs = [tableaux.ballot_to_tableau(w) for w in words]
        with tr.span("tableaux.reading_word", items=len(tabs)):
            rws = [tableaux.reading_word(t) for t in tabs]
        with tr.span("tableaux.reading_word_charge", items=len(rws)):
            for w in rws:
                charge(w)
    elif job.cmd == "classes":
        with tr.span("wilf_engine.witness", nmax=p["nmax"]):
            for c in itertools.combinations(S3, p["size"]):
                for n in range(p["nmax"] + 1):
                    key = (n, frozenset(c))
                    with tr.span("statistics.stat_polynomial", input=key, group=key,
                                 below_nmax=n < p["nmax"]):
                        stat_polynomial(n, c, p["stat"])
        for c in itertools.combinations(S3, p["size"]):
            for n in range(p["nmax"] + 1):
                _search_probe(tr, n, frozenset(c), counts)
    elif job.cmd == "verify" and p["target"] == "involution":
        n = p["n"]
        ranks = [rng.randrange(tableaux.count_two_row(n)) for _ in range(BALLOT_SAMPLES)]
        with tr.span("tableaux.ballot_unrank", items=len(ranks)):
            words = [tableaux.ballot_unrank(n, r) for r in ranks]
        with tr.span("tableaux.ballot_rank", items=len(words)):
            back = [tableaux.ballot_rank(w) for w in words]
        if back != ranks:
            problems.append(f"ballot_rank does not invert ballot_unrank at n={n}")
    return problems


def contains_probe(tr, rng) -> list[str]:
    """Library containment per call over seeded random permutations of size 11."""
    problems = []
    s4 = list(itertools.permutations(range(1, 5)))
    for m, pool in ((3, S3), (4, s4)):
        cases = [(tuple(rng.sample(range(1, 12), 11)), rng.choice(pool)) for _ in range(CONTAINS_SAMPLES)]
        with tr.span(f"perm_core.contains_pattern.len{m}", items=len(cases)):
            got = [contains_pattern(q, t) for q, t in cases]
        if any(got[i] != contains(*cases[i]) for i in range(CONTAINS_CHECKED)):
            problems.append(f"contains_pattern disagrees with the oracle on length-{m} patterns")
    return problems


class PassRecord:
    """What one traced pass over a job list produced."""

    def __init__(self, jobs, tracer):
        self.jobs, self.tracer = jobs, tracer
        self.cli: dict = {}  # job name -> Outcome of its CLI run
        self.counts: dict = {}  # (n, patterns) -> computed search counts
        self.traced_s = self.untraced_s = 0.0  # replay time with and without spans
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def tally(self, what: str, problems: list[str]) -> None:
        """Count one operation, failed when it reported any problem."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{what}: {msg}" for msg in problems]


def traced_pass(jobs, rng, runner) -> PassRecord:
    """Each job once through the CLI (untraced) and once replayed with spans.

    Operations counted: each CLI run, each replay (failed when it raises,
    differs from the CLI output or its probes find a fault) and the
    containment probe.
    """
    tr, null = Tracer(), NullTracer()
    rec = PassRecord(jobs, tr)
    for job in jobs:
        outcome = rec.cli[job.name] = runner(job)
        rec.tally(job.name, outcome.problems)
        tr.job, tr.phase = job.name, "job"
        try:
            start = perf_counter()
            result = replay(job, tr)
            rec.traced_s += perf_counter() - start
            start = perf_counter()
            replay(job, null)
            rec.untraced_s += perf_counter() - start
            tr.phase = "probe"
            problems = probe(job, tr, rec.counts, rng)
        except Exception as exc:  # a library failure is a failed job, not a crashed benchmark
            problems = [f"replay raised {exc!r}"]
        else:
            if outcome.result is not None and result != outcome.result:
                problems.append("traced output differs from the CLI output")
        rec.tally(f"{job.name} (replay)", problems)
    tr.job, tr.phase = None, "probe"
    rec.tally("contains_pattern probe", contains_probe(tr, rng))
    return rec


def _busy(rec, name, phase=None) -> float | None:
    spans = rec.tracer.select(name, phase)
    return sum(s.duration for s in spans) if spans else None


def _per_item_us(rec, name) -> float | None:
    spans = rec.tracer.select(name)
    items = sum(s.attrs.get("items", 0) for s in spans)
    return 1e6 * sum(s.duration for s in spans) / items if items else None


def shard_times(rec) -> dict[str, list[float]]:
    """Per sharded job, the time of each shard, run one after another in the replay."""
    out: dict[str, list[float]] = {}
    for s in rec.tracer.spans:
        if s.phase == "job" and s.attrs.get("shard"):
            out.setdefault(s.job, []).append(s.duration)
    return out


def _shard_imbalance(rec) -> float | None:
    """Slowest shard over mean shard, summed over the sharded jobs (time-weighted max/mean)."""
    times = shard_times(rec).values()
    if not times:
        return None
    return sum(max(t) for t in times) / sum(stats.fmean(t) for t in times)


def _pool_speedup(rec) -> float | None:
    """--threads 1 wall over --threads N wall, for jobs listed at both widths."""
    by_name = {job.name: job for job in rec.jobs}
    ratios = []
    for name, job in by_name.items():
        if job.params.get("threads", 1) > 1:
            twin = job.name.replace(f"--threads {job.params['threads']}", "--threads 1")
            if twin in by_name:
                ratios.append(rec.cli[twin].wall / rec.cli[name].wall)
    return stats.fmean(ratios) if ratios else None


def _tally_share(rec) -> float | None:
    """Share of stat_polynomial time not spent enumerating its input."""
    polys = rec.tracer.select("statistics.stat_polynomial")
    enum = {s.attrs["input"]: s.duration
            for s in rec.tracer.select("perm_core.enumerate_avoiders", "probe")}
    groups = {s.attrs["group"]: s.attrs["input"] for s in polys}
    total = sum(s.duration for s in polys)
    if not total:
        return None
    return 1 - sum(enum[key] for key in groups.values()) / total


def layer_metrics(rec) -> dict[str, float]:
    """Per-layer metrics of one pass; a metric whose layer did not run is left out."""
    m: dict[str, float | None] = {}
    enum_busy = _busy(rec, "perm_core.enumerate_avoiders", "probe")
    prefixes = sum(c["prefixes"] for c in rec.counts.values())
    leaves = sum(c["leaves"] for c in rec.counts.values())
    m["perm_core.enumerate_avoiders.busy_s"] = enum_busy
    if enum_busy:
        m["perm_core.enumerate_avoiders.prefixes_per_s"] = prefixes / enum_busy
        m["perm_core.enumerate_avoiders.prefixes"] = prefixes
        m["perm_core.enumerate_avoiders.leaves"] = leaves
        m["perm_core.enumerate_avoiders.leaf_ratio"] = leaves / prefixes
    for m_len in (3, 4):
        m[f"perm_core.contains_pattern.len{m_len}_us"] = _per_item_us(rec, f"perm_core.contains_pattern.len{m_len}")
    for fn in ("major_index", "charge", "inversions"):
        m[f"statistics.{fn}.us_per_perm"] = _per_item_us(rec, f"statistics.{fn}")
    m["statistics.stat_polynomial.busy_s"] = _busy(rec, "statistics.stat_polynomial")
    m["statistics.tally_share"] = _tally_share(rec)
    m["statistics.merge_polynomials.busy_s"] = _busy(rec, "statistics.merge_polynomials")
    for step in ("fast_ch_321", "enumerate_two_row_syt", "ballot_to_tableau", "reading_word",
                 "reading_word_charge", "verify_involution"):
        m[f"tableaux.{step}.busy_s"] = _busy(rec, f"tableaux.{step}")
    for step in ("ballot_rank", "ballot_unrank"):
        m[f"tableaux.{step}.us_per_call"] = _per_item_us(rec, f"tableaux.{step}")
    classes = _busy(rec, "wilf_engine.st_wilf_classes")
    m["wilf_engine.st_wilf_classes.busy_s"] = classes
    witness = [s for s in rec.tracer.select("statistics.stat_polynomial") if "below_nmax" in s.attrs]
    if classes and witness:
        witness_s = sum(s.duration for s in witness)
        m["wilf_engine.witness_share"] = witness_s / classes
        m["wilf_engine.below_nmax_share"] = sum(s.duration for s in witness if s.attrs["below_nmax"]) / witness_s
    m["cli.overhead_s"] = sum(o.wall - o.elapsed for o in rec.cli.values() if o.elapsed is not None)
    m["cli.pool_speedup"] = _pool_speedup(rec)
    m["cli.shard_imbalance"] = _shard_imbalance(rec)
    m["trace.overhead_frac"] = rec.traced_s / rec.untraced_s - 1 if rec.untraced_s else None
    return {k: v for k, v in m.items() if v is not None}


def median_metrics(records) -> dict[str, float]:
    per_pass = [layer_metrics(r) for r in records]
    names = set.intersection(*(set(m) for m in per_pass))
    return {k: stats.median(m[k] for m in per_pass) for k in names}


def traced_run(jobs, seconds, seed, runner, wanted):
    """Passes over the jobs until `seconds` would be exceeded; at least one.

    Returns (metrics, records, filled): per-layer medians over the passes,
    the pass records, and the names taken from PROBE_JOBS because the
    workload's own jobs never reach that layer.
    """
    rng = random.Random(seed)
    records, start = [], perf_counter()
    while True:
        t0 = perf_counter()
        records.append(traced_pass(jobs, rng, runner))
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            break
    metrics = median_metrics(records)
    filled = sorted(set(wanted) - set(metrics))
    if filled:
        extra = traced_pass(PROBE_JOBS, rng, runner)
        records.append(extra)
        fill = layer_metrics(extra)
        metrics.update({k: fill[k] for k in filled if k in fill})
    return metrics, records, filled


def trace_document(records) -> list[dict]:
    """Spans, self times and computed search counts of every pass, for the trace file."""
    return [
        {
            "jobs": [job.name for job in r.jobs],
            "self_time_s": r.tracer.self_times(),
            "shard_times_s": shard_times(r),
            "search_counts": [
                {"n": n, "avoid": sorted(fmt_perm(t) for t in pats), **c}
                for (n, pats), c in r.counts.items()
            ],
            "spans": [s.as_dict() for s in r.tracer.spans],
        }
        for r in records
    ]
