"""
Command-line front end.

Every subcommand parses its arguments, calls one library computation
and writes one record, a dict with the keys command, parameters,
result and elapsed_ms, in the chosen format, to stdout.  Nothing is
written before the computation finishes.  Then a listing is written
block by block, and any other record in one write.  A listing is held
once, as newline-separated text blocks of about 64 KiB (about 30 bytes
per permutation), and spliced into the rendered record one block at a
time.
The library validates permutations and ballot words; argparse checks
every other flag.  JSON output is deterministic: keys keep that fixed
order (only elapsed_ms varies between identical runs), and polynomial
coefficients are listed lowest degree first.

Enumeration runs in this process unless --threads N >= 2 forks
min(N, n, max(2, CPUs)) workers (POSIX only) over interleaved
first-entry shards, merged back in first-entry order so the output does
not depend on N.  --fast excludes --threads, --candidate excludes
--size, and each verify target takes only its own flag, with --format
after it.  Every parser's flags are declared in one table, in usage
order: _COMMANDS for the commands, _VERIFY_TARGETS for the verify
targets; build_parser() adds --format last.

Exit codes: 0 on success, 2 when a verification ran and failed, 1 for
usage, parse, and resource errors.  Refused input, a size above a named
bound included, is a ValueError, and what the environment denies is a
MemoryError, OverflowError or OSError; main() prints each as one error
line.

Each command imports only the library it runs: this module loads
perm_core and statistics, and the handlers that call tableaux or
wilf_engine import them.  main() changes no process-wide state, so
in-process callers may call it repeatedly; run(), the program entry,
adds the exit-time gc.freeze().
"""
from __future__ import annotations

import argparse
import functools
import gc
import io
import itertools
import json
import os
import sys
import time
from math import factorial

from .errors import VerificationError
from .perm_core import check_permutation, enumerate_avoiders
from .statistics import (
    CHARGE,
    MAJOR_INDEX,
    StatPolynomial,
    charge_values,
    merge_polynomials,
    parse_stat,
    stat_function,
    stat_polynomial,
)

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, reserving 2 for verified failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def parse_word(text: str) -> tuple[int, ...]:
    """Split '3,1,2' or the digit form '312' into integers; the library validates them."""
    tokens = text.split(",") if "," in text else list(text)
    values = []
    for token in tokens:
        token = token.strip()
        if not token.isdigit():
            raise ValueError(f"invalid token {token!r} in {text!r}")
        values.append(int(token))
    return tuple(values)


def parse_permutation(text: str) -> tuple[int, ...]:
    """Parse '3,1,2' or (below size 10) the digit form '312'."""
    return check_permutation(parse_word(text))


def _stat_name(text: str) -> str:
    try:
        return parse_stat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _parse_pattern_flags(avoid: list[str] | None) -> frozenset[tuple[int, ...]]:
    return frozenset(parse_permutation(text) for text in (avoid or []))


def _parse_patternset(text: str) -> frozenset[tuple[int, ...]]:
    """A pattern set literal: patterns joined by '+', e.g. '132+213'."""
    return frozenset(parse_permutation(part) for part in text.split("+"))


def _fmt_perm(p) -> str:
    return ",".join(map(str, p))


def _fmt_word(w) -> str:
    return "".join(map(str, w))


def _fmt_patterns(patterns) -> list[str]:
    return [_fmt_perm(t) for t in sorted(patterns)]


def _fmt_set(patterns) -> str:
    return "+".join(_fmt_perm(t) for t in sorted(patterns))


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _text_chunks(value, indent: str):
    """The text lines of value, each ending in a newline; a flat list is one line."""
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                yield f"{indent}{k}:\n"
                yield from _text_chunks(v, indent + "  ")
            else:
                yield f"{indent}{k}: {v}\n"
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            yield indent + " ".join(map(str, value)) + "\n"
        else:
            for v in value:
                yield from _text_chunks(v, indent)
    else:
        yield f"{indent}{value}\n"


def _text_record(record: dict):
    yield f"command: {record['command']}\n"
    yield from _text_chunks(record["parameters"], "  ")
    yield "result:\n"
    yield from _text_chunks(record["result"], "  ")
    yield f"elapsed_ms: {record['elapsed_ms']}\n"


def _csv_rows(result: dict):
    """A verdict (a result with `passed`, as every verify result has) or a result with no
    table flattens to field,value rows, so the verdict is kept; any other result is its table."""
    if "passed" in result or not result.keys() & {"coefficients", "permutations", "classes"}:
        yield ["field", "value"]
        for k, v in result.items():
            yield k, json.dumps(_json_safe(v)) if isinstance(v, (dict, list)) else v
    elif "coefficients" in result:
        yield ["degree", "coefficient"]
        yield from enumerate(result["coefficients"])
    elif "permutations" in result:
        yield ["permutation"]
        yield from zip(result["permutations"])
    else:
        yield ["class_index", "pattern_set"]
        for i, cls in enumerate(result["classes"]):
            for member in cls:
                yield i, member


def _csv_text(rows) -> str:
    """rows as csv text, every row ending in a newline."""
    import csv  # only here, so JSON and text output do not pay for it

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


# stands in for a listing's lines while the rest of its record renders; no other value holds it,
# and csv writes it as it is on every supported Python (3.10's csv refuses a NUL)
_MARK = "\x01"


def _record_chunks(record: dict, fmt: str):
    """The record in fmt as consecutive strings, ending in a newline: the whole record
    in one string, or, for a listing (result.permutations, newline-separated text
    blocks), the rest of the record and then one string per block.

    The rest renders once around two stand-in lines, and what the renderer puts
    between them separates the blocks.  JSON and text put that separator in place
    of each block's newlines (lines are digits and commas, so JSON needs no
    escaping for them); csv writes each block's rows, quoted as csv quotes them.
    """
    result = record["result"]
    blocks = result.get("permutations")
    if blocks:
        record = {**record, "result": {**result, "permutations": [_MARK, _MARK]}}
    if fmt == "json":  # json.dumps escapes the stand-in
        whole, mark = json.dumps(record, indent=2) + "\n", "\\u0001"
    elif fmt == "csv":
        whole, mark = _csv_text(_csv_rows(record["result"])), _MARK
    else:
        whole, mark = "".join(_text_record(record)), _MARK
    if not blocks:
        return (whole,)
    head, sep, tail = whole.split(mark)
    if fmt == "csv":  # every row ends in sep, so the block's last row leaves its own to sep or tail
        texts = (_csv_text(zip(block.split("\n")))[:-1] for block in blocks)
    else:
        texts = (block.replace("\n", sep) for block in blocks)
    return itertools.chain((head, next(texts)), (sep + text for text in texts), (tail,))


_BLOCK_CHARS = 1 << 16


def _avoiders(n, patterns, count, first=None):
    """The count of the avoiders, or their listing: each avoider's line, formatted as the walk
    yields it, joined into newline-separated text blocks of about _BLOCK_CHARS characters."""
    found = enumerate_avoiders(n, patterns, first=first)
    if count:
        return sum(1 for _ in found)
    names = [str(v) for v in range(n + 1)]  # value -> its text, so no int is formatted twice
    lines = (",".join(map(names.__getitem__, p)) for p in found)
    per_block = _BLOCK_CHARS // (len(",".join(names[1:])) + 1)  # every line of size n is as long
    blocks = []
    while held := list(itertools.islice(lines, per_block)):
        blocks.append("\n".join(held))
    return blocks


def _map_shards(shard, n, threads) -> list:
    """[shard(first=None)] here or, if threads >= 2, shard(first=f) for f = 1..n
    in order from W = min(threads, n, max(2, CPUs this process may use))
    forked workers (POSIX only; the CLI starts no threads, so forking is
    safe).  Worker w takes the interleaved f = w + 1, w + 1 + W, ... and
    pickles them back through a pipe.  Each reply is unpickled as it is
    read, one worker at a time, so no pickled reply is held whole.  The
    first failure found (a worker's exception, or OSError for a worker that
    died) is raised once the other workers have been stopped and reaped.  A worker whose
    fork fails leaves neither end of its pipe open.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(threads, n, max(2, cpus))
    if workers < 2:
        return [shard(first=None)]
    if getattr(os, "fork", None) is None:
        raise OSError("--threads N >= 2 needs os.fork, which this platform lacks; use --threads 1")
    import pickle  # only here, so single-process commands do not pay for it

    parts, running, unclaimed = [None] * n, [], ()  # running: (pid, read end) of each worker not yet reaped
    try:
        for w in range(workers):
            unclaimed = read_fd, write_fd = os.pipe()  # closed below if the fork fails
            if (pid := os.fork()) == 0:  # the worker: pickle (error, its shards), then exit
                try:
                    try:
                        reply = None, [shard(first=f) for f in range(w + 1, n + 1, workers)]
                    except Exception as exc:
                        reply = exc, None
                    with os.fdopen(write_fd, "wb") as pipe:
                        pickle.dump(reply, pipe)  # a listing's memo holds an entry per text block, not per line
                    os._exit(0)
                finally:
                    os._exit(1)  # never return into the parent's code
            unclaimed = ()
            os.close(write_fd)
            running.append((pid, os.fdopen(read_fd, "rb")))
        for w in range(workers):  # load, reap and check one worker at a time
            pid, pipe = running[0]
            with pipe:
                try:
                    reply = pickle.load(pipe)  # unpickled as it streams in, never held as bytes
                except (EOFError, pickle.UnpicklingError):
                    reply = None  # cut short: the worker died, as its wait status shows
            status = os.waitpid(pid, 0)[1]
            del running[0]
            if status or reply is None:
                raise OSError(f"shard worker {w + 1} of {workers} ended with wait status {status}")
            error, got = reply
            if error is not None:
                raise error
            parts[w::workers] = got
    finally:
        for fd in unclaimed:  # the pipe of a worker whose fork failed
            os.close(fd)
        if running:  # a failure, raised once the workers still running are stopped and reaped
            import signal

            for pid, pipe in running:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return parts


def _cmd_stat(args):
    p = parse_permutation(args.perm)
    params = {"perm": _fmt_perm(p), "stat": args.stat}
    result = {"value": stat_function(args.stat)(p)}
    if args.stat == CHARGE:
        result["charge_values"] = {str(v): c for v, c in sorted(charge_values(p).items())}
    return params, result, EXIT_PASS


def _cmd_poly(args):
    patterns = _parse_pattern_flags(args.avoid)
    params = {
        "n": args.n,
        "avoid": _fmt_patterns(patterns),
        "stat": args.stat,
        "fast": bool(args.fast),
        "threads": args.threads,
    }
    if args.fast:  # the route and bound classes takes, at this one size
        from .wilf_engine import polynomial_route

        (poly,) = polynomial_route(patterns, args.stat, args.n)(range(args.n, args.n + 1))
    else:
        shard = functools.partial(stat_polynomial, args.n, patterns, args.stat)
        poly = merge_polynomials(_map_shards(shard, args.n, args.threads))
    return params, _coefficients(poly), EXIT_PASS


def _cmd_avoid(args):
    patterns = _parse_pattern_flags(args.avoid)
    params = {
        "n": args.n,
        "avoid": _fmt_patterns(patterns),
        "count_only": bool(args.count),
        "threads": args.threads,
    }
    shard = functools.partial(_avoiders, args.n, patterns, args.count)
    parts = _map_shards(shard, args.n, args.threads)
    if args.count:
        result = {"count": sum(parts)}
    else:
        blocks = list(itertools.chain.from_iterable(parts))  # the shards' blocks, in first-entry order
        result = {"count": sum(block.count("\n") + 1 for block in blocks), "permutations": blocks}
    return params, result, EXIT_PASS


def _cmd_classes(args):
    from .wilf_engine import S3, st_wilf_classes

    if args.candidate:
        candidates = [_parse_patternset(text) for text in args.candidate]
    else:
        candidates = [frozenset(c) for c in itertools.combinations(S3, args.size)]
    params = {
        "stat": args.stat,
        "nmax": args.nmax,
        "candidates": sorted(_fmt_set(c) for c in candidates),
    }
    report = st_wilf_classes(candidates, args.stat, args.nmax)
    return params, _report_payload(report), EXIT_PASS


def _coefficients(poly: StatPolynomial) -> dict:
    return {"coefficients": list(poly.coeffs), "coefficient_sum": poly.total()}


def _report_payload(report) -> dict:
    return {
        "n_range": list(report.n_range),
        "classes": [[_fmt_set(member) for member in cls] for cls in report.classes],
        "witness_polynomials": {
            _fmt_set(pi): [list(poly.coeffs) for poly in polys]
            for pi, polys in sorted(report.witness_polynomials.items(), key=lambda kv: sorted(kv[0]))
        },
    }


def _verify_lemma1(n):
    from .wilf_engine import verify_lemma1

    return {"passed": verify_lemma1(n), "permutations_checked": factorial(n)}


def _verify_lemma2(n):
    from .wilf_engine import verify_lemma2

    mapping = verify_lemma2(n)
    correspondence = {_fmt_perm(s): _fmt_perm(t) for s, t in sorted(mapping.items())}
    return {"passed": True, "correspondence": correspondence}


def _verify_report(check, nmax, stat):
    """The report of a class check, passed or failed (whose witness is the report)."""
    from . import wilf_engine

    try:
        return {"passed": True, **_report_payload(getattr(wilf_engine, check)(nmax, stat))}
    except VerificationError as exc:
        return {"passed": False, "error": str(exc), **_report_payload(exc.witness)}


def _verify_lemma5(k):
    from .tableaux import lemma5_count

    count = lemma5_count(k)
    return {"passed": count % 2 == 1, "n": 2**k - 1, "avoider_count": count}


def _verify_parity(stat, k):
    from .tableaux import has_parity_pattern, parity_polynomial

    poly = parity_polynomial(k, stat)
    return {"passed": has_parity_pattern(poly), "n": poly.n, **_coefficients(poly)}


def _verify_involution(n):
    from .tableaux import count_two_row, verify_involution

    return {"passed": verify_involution(n), "two_row_words": count_two_row(n)}


_INT = {"type": int, "required": True}
_STAT = {"type": _stat_name, "default": "ch", "help": "maj | ch (default ch)"}
_ANY_STAT = {"required": True, "type": _stat_name, "help": "maj | ch | inv"}
_PATTERNS = {"action": "append", "metavar": "PATTERN"}
# argparse converts a string default only when the flag is absent, so a
# given --threads 1 still counts as given where another flag excludes it
_THREADS = {"type": _positive_int, "default": "1", "metavar": "N",
            "help": "run enumeration shards in up to N forked processes, at most max(2, CPUs) (default 1: none)"}
_FORMAT = {"choices": ("text", "json", "csv"), "default": "text", "help": "output format (default text)"}

# target -> (the flags its check reads, in record order, with their declarations; the check)
_VERIFY_TARGETS = {
    "lemma1": ({"n": _INT}, _verify_lemma1),
    "lemma2": ({"n": _INT}, _verify_lemma2),
    "theorem3": ({"nmax": _INT, "stat": _STAT}, functools.partial(_verify_report, "verify_theorem3")),
    "theorem4": ({"nmax": _INT, "stat": _STAT}, functools.partial(_verify_report, "verify_theorem4")),
    "lemma5": ({"k": _INT}, _verify_lemma5),
    "theorem8": ({"k": _INT}, functools.partial(_verify_parity, CHARGE)),
    "corollary9": ({"k": _INT}, functools.partial(_verify_parity, MAJOR_INDEX)),
    "involution": ({"n": _INT}, _verify_involution),
}


def _cmd_verify(args):
    flags, check = _VERIFY_TARGETS[args.target]
    values = {flag: getattr(args, flag) for flag in flags}
    try:
        result = check(**values)
    except VerificationError as exc:
        result = {"passed": False, "error": str(exc)}
        if exc.witness is not None:
            result["witness"] = _json_safe(exc.witness)
    return {"target": args.target, **values}, result, EXIT_PASS if result["passed"] else EXIT_FAIL


def _cmd_rsk(args):
    from .tableaux import rsk_insert, tableau_shape

    p = parse_permutation(args.perm)
    P, Q = rsk_insert(p)
    params = {"perm": _fmt_perm(p)}
    result = {
        "shape": list(tableau_shape(P)),
        "p_rows": [list(row) for row in P],
        "q_rows": [list(row) for row in Q],
    }
    return params, result, EXIT_PASS


def _cmd_involution(args):
    from .tableaux import ballot_rank, involution_phi

    word = parse_word(args.word)
    image = involution_phi(word)  # validates the ballot word
    params = {"word": _fmt_word(word)}
    result = {
        "rank": ballot_rank(word),
        "image": _fmt_word(image),
        "image_rank": ballot_rank(image),
    }
    return params, result, EXIT_PASS


# command -> (its help; its flags in usage order, with their declarations, before --format; the
# flags among them that exclude one another).  verify's flags are its targets', in _VERIFY_TARGETS
_COMMANDS = {
    "stat": ("evaluate a statistic on one permutation", {
        "perm": {"required": True, "help": "permutation, e.g. 3,2,8,5,7,4,6,1,9 (digit form ok below size 10)"},
        "stat": _ANY_STAT,
    }, ()),
    "poly": ("statistic generating polynomial over an avoidance set", {
        "n": _INT,
        "avoid": {**_PATTERNS, "help": "forbidden pattern (repeatable)"},
        "stat": _ANY_STAT,
        "fast": {"action": "store_true", "help": "compute as classes does: the closed form for 321 under ch or maj, the length-3 sweep, or enumeration"},
        "threads": _THREADS,
    }, ("fast", "threads")),
    "avoid": ("list or count an avoidance set", {
        "n": _INT,
        "avoid": _PATTERNS,
        "count": {"action": "store_true", "help": "emit the count only"},
        "threads": _THREADS,
    }, ()),
    "classes": ("st-Wilf equivalence classes of pattern sets", {
        "stat": _ANY_STAT,
        "nmax": _INT,
        # a string default for the same reason as --threads'
        "size": {"type": int, "choices": range(1, 7), "default": "1", "help": "use all size-k subsets of S_3 (default 1)"},
        "candidate": {"action": "append", "metavar": "SET",
                      "help": "explicit pattern set, patterns joined by '+', e.g. 132+213 (repeatable)"},
    }, ("size", "candidate")),
    "verify": ("run a named verification", {}, ()),
    "rsk": ("insertion and recording tableaux of a permutation", {"perm": {"required": True}}, ()),
    "involution": ("apply the two-row pairing involution to a ballot word", {
        "word": {"required": True, "help": "ballot word over {1,2}, e.g. 1121"},
    }, ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="permstat",
        description="Permutation statistics, avoidance sets, and equivalence checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tables = []  # (a parser that takes flags, its flags, those in its mutually exclusive group)
    for command, (help_text, flags, exclusive) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(handler=globals()[f"_cmd_{command}"])  # looked up per build, so a patched one runs
        if command == "verify":  # its targets take no abbreviations, else --n passes for --nmax
            targets = p.add_subparsers(dest="target", required=True)
            tables += [(targets.add_parser(t, allow_abbrev=False), f, ()) for t, (f, _) in _VERIFY_TARGETS.items()]
        else:
            tables.append((p, flags, exclusive))
    for p, flags, exclusive in tables:
        group = exclusive and p.add_mutually_exclusive_group()  # none empty: 3.11 cannot print one
        for flag, declaration in {**flags, "format": _FORMAT}.items():
            (group if flag in exclusive else p).add_argument(f"--{flag}", **declaration)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        params, result, code = args.handler(args)
    # bad input (a refused size too), and what the environment denies: memory, an index-sized
    # integer, a fork or pipe, a worker that died (OSError); programming errors still raise
    except (ValueError, MemoryError, OverflowError, OSError) as exc:
        print(f"permstat: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_ERROR
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    record = {"command": args.command, "parameters": params, "result": result, "elapsed_ms": elapsed_ms}
    for chunk in _record_chunks(record, args.format):
        sys.stdout.write(chunk)
    return code


def run() -> int:
    """The program entry of ``python -m permstat``, ``python -m permstat.cli`` and
    the ``permstat`` script: main(), then gc.freeze().

    gc.freeze() spares the interpreter's collections at exit a scan of every
    object the command left, all of which the OS reclaims anyway.  Normal
    finalization (stream flushes, atexit handlers) still runs.  main() itself
    changes no collector state, so in-process callers keep theirs.

    A reader that closes stdout early (``permstat avoid ... | head -2``) makes
    the command exit 1 with nothing on stderr: run() flushes stdout itself, so
    the broken pipe surfaces here rather than at exit, and then points stdout
    at os.devnull so the interpreter's own flush at exit cannot fail again.
    main() still raises BrokenPipeError to in-process callers.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
