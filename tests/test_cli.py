import csv
import errno
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time

import pytest

import permstat.cli as cli


def run_cli(*args, env=None, preexec_fn=None):
    merged = dict(os.environ)
    merged.update(env or {})
    return subprocess.run(
        [sys.executable, "-m", "permstat", *args],
        capture_output=True,
        text=True,
        env=merged,
        preexec_fn=preexec_fn,
    )


def run_json(*args, env=None):
    proc = run_cli(*args, "--format", "json", env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_stat_charge_worked_example():
    record = run_json("stat", "--perm", "3,2,8,5,7,4,6,1,9", "--stat", "ch")
    assert record["command"] == "stat"
    assert record["result"]["value"] == 25
    assert record["result"]["charge_values"]["3"] == 7
    assert record["result"]["charge_values"]["2"] == 8
    assert record["result"]["charge_values"]["9"] == 0


def test_stat_major_index_and_digit_form():
    assert run_json("stat", "--perm", "3,2,8,5,7,4,6,1,9", "--stat", "maj")["result"]["value"] == 16
    assert run_json("stat", "--perm", "123", "--stat", "maj")["result"]["value"] == 0
    assert run_json("stat", "--perm", "321", "--stat", "inv")["result"]["value"] == 3


def test_stat_text_format():
    proc = run_cli("stat", "--perm", "1,2,3", "--stat", "maj")
    assert proc.returncode == 0
    assert "value: 0" in proc.stdout


def test_parse_error_names_the_token():
    proc = run_cli("stat", "--perm", "3,x,1", "--stat", "maj")
    assert proc.returncode == 1
    assert "'x'" in proc.stderr


def test_invalid_permutation_diagnostics_are_distinct():
    dup = run_cli("stat", "--perm", "1,3,3", "--stat", "maj")
    assert dup.returncode == 1
    assert "more than once" in dup.stderr
    gap = run_cli("stat", "--perm", "1,5,3", "--stat", "maj")
    assert gap.returncode == 1
    assert "missing" in gap.stderr


def test_unknown_statistic_is_rejected():
    proc = run_cli("stat", "--perm", "1,2,3", "--stat", "denert")
    assert proc.returncode == 1


def test_poly_basic():
    record = run_json("poly", "--n", "3", "--avoid", "321", "--stat", "ch", "--threads", "1")
    assert record["result"]["coefficients"] == [1, 2, 2]
    assert record["result"]["coefficient_sum"] == 5
    empty = run_json("poly", "--n", "0", "--avoid", "321", "--stat", "maj", "--threads", "1")
    assert empty["result"]["coefficients"] == [1]


def test_poly_fast_path():
    record = run_json("poly", "--n", "15", "--avoid", "321", "--stat", "ch", "--fast")
    assert record["result"]["coefficient_sum"] == 9694845
    assert record["result"]["coefficients"][0] == 1
    proc = run_cli("poly", "--n", "128", "--avoid", "321", "--stat", "ch", "--fast")
    assert proc.returncode == 1
    assert "127" in proc.stderr


def test_poly_fast_flag_misuse():
    proc = run_cli("poly", "--n", "5", "--avoid", "321", "--stat", "inv", "--fast")
    assert proc.returncode == 1
    assert "charge and major_index" in proc.stderr
    proc = run_cli("poly", "--n", "5", "--avoid", "132", "--stat", "ch", "--fast")
    assert proc.returncode == 1
    assert "--fast" in proc.stderr


def test_poly_fast_answers_maj_as_enumeration_and_corollary9_do(capsys):
    from permstat.statistics import stat_polynomial

    def fast_maj(n):
        assert cli.main(["poly", "--fast", "--n", str(n), "--avoid", "321", "--stat", "maj", "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["parameters"]["stat"] == "major_index"
        return record["result"]

    for n in range(10):
        assert fast_maj(n)["coefficients"] == list(stat_polynomial(n, [(3, 2, 1)], "maj").coeffs), n
    assert cli.main(["verify", "corollary9", "--k", "4", "--format", "json"]) == 0
    corollary9 = json.loads(capsys.readouterr().out)["result"]
    assert fast_maj(15) == {key: corollary9[key] for key in ("coefficients", "coefficient_sum")}


def test_avoid_listing_and_count():
    record = run_json("avoid", "--n", "3", "--avoid", "321", "--threads", "1")
    assert record["result"]["count"] == 5
    assert record["result"]["permutations"] == ["1,2,3", "1,3,2", "2,1,3", "2,3,1", "3,1,2"]
    count_only = run_json("avoid", "--n", "7", "--avoid", "321", "--count", "--threads", "1")
    assert count_only["result"] == {"count": 429}


def test_classes_singletons():
    record = run_json("classes", "--stat", "ch", "--nmax", "4", "--size", "1")
    classes = record["result"]["classes"]
    assert sorted(map(sorted, classes)) == [
        ["1,2,3"],
        ["1,3,2", "3,1,2"],
        ["2,1,3", "2,3,1"],
        ["3,2,1"],
    ]
    witness = record["result"]["witness_polynomials"]
    assert witness["3,2,1"][3] == [1, 2, 2]
    assert len(witness) == 6


def test_classes_explicit_candidates():
    record = run_json(
        "classes", "--stat", "maj", "--nmax", "4",
        "--candidate", "132+213", "--candidate", "132+312",
    )
    assert len(record["result"]["classes"]) == 1  # maj pairs in one class


def test_verify_lemma1():
    record = run_json("verify", "lemma1", "--n", "6")
    assert record["result"]["passed"] is True
    assert record["result"]["permutations_checked"] == 720


def test_verify_lemma2():
    record = run_json("verify", "lemma2", "--n", "5")
    assert record["result"]["correspondence"]["1,3,2"] == "2,1,3"


def test_verify_theorem8():
    record = run_json("verify", "theorem8", "--k", "4")
    assert record["result"]["passed"] is True
    assert record["result"]["coefficient_sum"] == 9694845
    record = run_json("verify", "corollary9", "--k", "7")
    assert record["result"]["passed"] is True
    assert record["result"]["n"] == 127
    for target in ("theorem8", "corollary9"):
        proc = run_cli("verify", target, "--k", "8")
        assert proc.returncode == 1
        assert "MAX_PARITY_K=7" in proc.stderr


def test_verify_theorem3_and_4():
    record = run_json("verify", "theorem3", "--nmax", "6")
    assert record["result"]["passed"] is True
    assert len(record["result"]["classes"]) == 4
    record = run_json("verify", "theorem4", "--nmax", "6", "--stat", "maj")
    assert record["result"]["passed"] is True
    assert max(len(c) for c in record["result"]["classes"]) == 4


def test_verify_lemma5_and_corollary9():
    record = run_json("verify", "lemma5", "--k", "4")
    assert record["result"]["avoider_count"] == 9694845
    record = run_json("verify", "corollary9", "--k", "2")
    assert record["result"]["coefficients"] == [1, 2, 2]


def test_verify_involution_odd_size_is_a_usage_error():
    proc = run_cli("verify", "involution", "--n", "5")
    assert proc.returncode == 1
    assert "involution" in proc.stderr
    record = run_json("verify", "involution", "--n", "7")
    assert record["result"] == {"passed": True, "two_row_words": 34}


def test_verify_missing_parameter():
    proc = run_cli("verify", "lemma1")
    assert proc.returncode == 1
    assert "--n" in proc.stderr


def test_verify_unknown_target():
    proc = run_cli("verify", "lemma99", "--n", "3")
    assert proc.returncode == 1


def test_exhaustion_bound_refuses_oversized_runs():
    proc = run_cli("verify", "lemma1", "--n", "10")
    assert proc.returncode == 1
    assert "exceeds" in proc.stderr


def test_st_wilf_routes_refuse_above_their_named_bounds():
    for argv, bound in (
        (("verify", "theorem3", "--nmax", "21"), "MAX_DP_NMAX=20"),
        (("verify", "theorem4", "--nmax", "21", "--stat", "maj"), "MAX_DP_NMAX=20"),
        (("classes", "--stat", "ch", "--candidate", "1234", "--nmax", "10"), "MAX_EXHAUSTIVE=9"),
        (("verify", "lemma1", "--n", "10"), "MAX_EXHAUSTIVE=9"),
        (("verify", "lemma2", "--n", "10"), "MAX_EXHAUSTIVE=9"),
        (("verify", "theorem8", "--k", "8"), "MAX_PARITY_K=7"),
        (("verify", "corollary9", "--k", "8"), "MAX_PARITY_K=7"),
        (("verify", "lemma5", "--k", "11"), "MAX_LEMMA5_K=10"),
        (("poly", "--fast", "--n", "128", "--stat", "ch", "--avoid", "321"), "MAX_FAST_N=127"),
        (("verify", "involution", "--n", "31"), "MAX_INVOLUTION_WORDS=2000000"),
        (("verify", "involution", "--n", "4095"), "MAX_INVOLUTION_N=2047"),
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 1, argv
        assert proc.stdout == ""
        assert bound in proc.stderr, proc.stderr


def test_rsk_command():
    record = run_json("rsk", "--perm", "132")
    assert record["result"]["p_rows"] == [[1, 2], [3]]
    assert record["result"]["q_rows"] == [[1, 2], [3]]
    assert record["result"]["shape"] == [2, 1]


def test_involution_command():
    record = run_json("involution", "--word", "112")
    assert record["result"]["image"] == "121"
    assert record["result"]["rank"] == 0
    assert record["result"]["image_rank"] == 1
    proc = run_cli("involution", "--word", "11212")
    assert proc.returncode == 1  # n=5 has an odd two-row count
    proc = run_cli("involution", "--word", "221")
    assert proc.returncode == 1
    assert "ballot" in proc.stderr


def test_csv_format():
    proc = run_cli("poly", "--n", "3", "--avoid", "321", "--stat", "ch", "--threads", "1", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["degree,coefficient", "0,1", "1,2", "2,2"]
    proc = run_cli("avoid", "--n", "3", "--avoid", "321", "--threads", "1", "--format", "csv")
    rows = proc.stdout.splitlines()
    assert rows[0] == "permutation"
    assert len(rows) == 6


def test_json_output_is_deterministic():
    runs = [
        run_cli("poly", "--n", "5", "--avoid", "132", "--stat", "maj", "--threads", "1", "--format", "json")
        for _ in range(2)
    ]
    payloads = []
    for proc in runs:
        record = json.loads(proc.stdout)
        record.pop("elapsed_ms")
        payloads.append(json.dumps(record))
    assert payloads[0] == payloads[1]


def test_parallel_invariance():
    single = run_json("poly", "--n", "8", "--avoid", "321", "--stat", "ch", "--threads", "1")
    multi = run_json("poly", "--n", "8", "--avoid", "321", "--stat", "ch", "--threads", "4")
    assert single["result"] == multi["result"]
    listing1 = run_json("avoid", "--n", "6", "--avoid", "132", "--threads", "1")
    listing4 = run_json("avoid", "--n", "6", "--avoid", "132", "--threads", "4")
    assert listing1["result"] == listing4["result"]


def test_no_subcommand_prints_usage():
    proc = run_cli()
    assert proc.returncode == 1


def test_exit_code_two_on_verified_failure(monkeypatch, capsys):
    monkeypatch.setattr("permstat.wilf_engine.verify_lemma1", lambda n: False)
    rc = cli.main(["verify", "lemma1", "--n", "3", "--format", "json"])
    record = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert record["result"]["passed"] is False


def test_exit_code_two_on_verification_error(monkeypatch, capsys):
    from permstat.errors import VerificationError

    def boom(n):
        raise VerificationError("identity failed", witness=(2, 1))

    monkeypatch.setattr("permstat.wilf_engine.verify_lemma2", boom)
    rc = cli.main(["verify", "lemma2", "--n", "3", "--format", "json"])
    record = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert record["result"]["passed"] is False
    assert record["result"]["witness"] == [2, 1]


def test_threads_default_to_one_process():
    record = run_json("avoid", "--n", "5", "--avoid", "321", "--count")
    assert record["parameters"]["threads"] == 1
    assert record["result"] == {"count": 42}
    proc = run_cli("avoid", "--n", "5", "--avoid", "321", "--threads", "0")
    assert proc.returncode == 1
    assert "--threads" in proc.stderr


def test_invalid_ballot_word_diagnostics():
    letter = run_cli("involution", "--word", "113")
    assert letter.returncode == 1
    assert "letter 3 at position 3" in letter.stderr
    prefix = run_cli("involution", "--word", "1221")
    assert prefix.returncode == 1
    assert "prefix of length 3" in prefix.stderr


def test_involution_refusals_keep_their_wording_and_order(capsys):
    # a word's own fault is named before any fault of its length
    not_ballot = "not a ballot word over {1,2}: "
    single_row = "all-1s word encodes a single-row tableau and has no rank"
    for word, message in (
        ("221", not_ballot + "prefix of length 1 has more 2s than 1s"),
        ("1221", not_ballot + "prefix of length 3 has more 2s than 1s"),
        ("113", not_ballot + "letter 3 at position 3 is not 1 or 2"),
        ("2" + "1" * 4094, not_ballot + "prefix of length 1 has more 2s than 1s"),
        ("11212", "no fixed-point-free involution guaranteed: 9 two-row words at n=5"),
        ("12", "no fixed-point-free involution guaranteed: 1 two-row words at n=2"),
        ("11", single_row),
        ("1" * 4095, single_row),
    ):
        assert cli.main(["involution", "--word", word]) == 1, word
        assert capsys.readouterr() == ("", f"permstat: error: {message}\n"), word


def test_a_ballot_word_above_the_length_bound_is_refused_before_ranking(capsys):
    word = "12" * 2047 + "1"  # a valid two-row word of even count; ranking it alone takes over 0.5 s
    start = time.perf_counter()
    assert cli.main(["involution", "--word", word]) == 1
    assert time.perf_counter() - start < 0.1
    assert capsys.readouterr() == (
        "", "permstat: error: length n=4095 exceeds the ballot-word bound MAX_INVOLUTION_N=2047\n"
    )


def test_involution_of_a_long_ballot_word():
    # length 2**10 - 1, far beyond any recursion limit
    record = run_json("involution", "--word", "1" * 1022 + "2")
    assert record["result"]["rank"] == 0
    assert record["result"]["image"] == "1" * 1021 + "21"
    assert record["result"]["image_rank"] == 1


def test_csv_classes_rows():
    args = ("classes", "--stat", "ch", "--nmax", "4", "--size", "1")
    classes = run_json(*args)["result"]["classes"]
    proc = run_cli(*args, "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.reader(proc.stdout.splitlines()))
    assert rows[0] == ["class_index", "pattern_set"]
    assert rows[1:] == [[str(i), member] for i, cls in enumerate(classes) for member in cls]
    assert ["1", "1,3,2"] in rows


def test_csv_field_value_rows_for_a_verify_target():
    proc = run_cli("verify", "lemma5", "--k", "3", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["field,value", "passed,True", "n,7", "avoider_count,429"]
    proc = run_cli("verify", "lemma2", "--n", "3", "--format", "csv")
    rows = list(csv.reader(proc.stdout.splitlines()))
    assert rows[:2] == [["field", "value"], ["passed", "True"]]
    assert rows[2][0] == "correspondence"
    assert json.loads(rows[2][1])["1,3,2"] == "2,1,3"


def test_text_output_of_nested_results():
    proc = run_cli("classes", "--stat", "ch", "--nmax", "3", "--size", "1")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[:5] == ["command: classes", "  stat: charge", "  nmax: 3", "  candidates:",
                         "    1,2,3 1,3,2 2,1,3 2,3,1 3,1,2 3,2,1"]
    classes = lines.index("  classes:")
    assert lines[classes + 1:classes + 5] == ["    1,2,3", "    1,3,2 3,1,2", "    2,1,3 2,3,1", "    3,2,1"]
    assert "    3,2,1:" in lines
    assert lines[-1].startswith("elapsed_ms: ")
    proc = run_cli("verify", "lemma2", "--n", "3")
    lines = proc.stdout.splitlines()
    assert lines[1:3] == ["  target: lemma2", "  n: 3"]
    assert lines[3:6] == ["result:", "  passed: True", "  correspondence:"]
    assert "    1,3,2: 2,1,3" in lines


def test_flags_a_command_would_ignore_are_refused():
    fast = ("poly", "--n", "5", "--avoid", "321", "--stat", "ch", "--fast")
    classes = ("classes", "--stat", "ch", "--nmax", "4")
    cases = [
        (("verify", "theorem8", "--k", "4", "--stat", "maj"), "--stat"),
        (("verify", "lemma1", "--n", "3", "--k", "9"), "--k"),
        (fast + ("--threads", "2"), "--threads"),
        (fast + ("--threads", "1"), "--threads"),
        (fast + ("--threads", "0"), "--threads"),
        (classes + ("--size", "2", "--candidate", "132"), "--size"),
        (classes + ("--candidate", "132", "--size", "1"), "--size"),
        (classes + ("--size", "7"), "--size"),
    ]
    for args, flag in cases:
        proc = run_cli(*args)
        assert proc.returncode == 1, args
        assert flag in proc.stderr, args


def test_each_verify_target_takes_only_its_own_flags(capsys):
    values = {"--n": "3", "--k": "2", "--nmax": "3", "--stat": "maj"}
    own = {
        "lemma1": ["--n"], "lemma2": ["--n"], "involution": ["--n"],
        "lemma5": ["--k"], "theorem8": ["--k"], "corollary9": ["--k"],
        "theorem3": ["--nmax", "--stat"], "theorem4": ["--nmax", "--stat"],
    }
    parser = cli.build_parser()
    for target, flags in own.items():
        argv = ["verify", target] + [part for flag in flags for part in (flag, values[flag])]
        assert parser.parse_args(argv).target == target
        for flag in values.keys() - set(flags):
            with pytest.raises(SystemExit) as exit_:
                parser.parse_args(argv + [flag, values[flag]])
            assert exit_.value.code == 1
            assert flag in capsys.readouterr().err


def test_verification_failure_record_keeps_its_parameters(monkeypatch, capsys):
    from permstat.errors import VerificationError

    def boom(n):
        raise VerificationError("identity failed")

    monkeypatch.setattr("permstat.wilf_engine.verify_lemma2", boom)
    rc = cli.main(["verify", "lemma2", "--n", "4", "--format", "json"])
    record = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert record["parameters"] == {"target": "lemma2", "n": 4}
    assert record["result"] == {"passed": False, "error": "identity failed"}


def test_exit_code_two_on_a_broken_involution(monkeypatch, capsys):
    monkeypatch.setattr("permstat.tableaux.involution_phi", lambda w: w)
    rc = cli.main(["verify", "involution", "--n", "7", "--format", "json"])
    record = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert record["result"]["passed"] is False
    assert record["result"]["witness"] == [1, 1, 1, 1, 1, 1, 2]


def _result(capsys, *argv):
    assert cli.main([*argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["result"]


def test_forked_shards_match_one_process_at_every_width(capsys):
    n = 7
    for command in (
        ["poly", "--n", str(n), "--avoid", "1234", "--stat", "inv"],
        ["avoid", "--n", str(n), "--avoid", "2143"],
        ["avoid", "--n", str(n), "--avoid", "321", "--count"],
    ):
        single = _result(capsys, *command, "--threads", "1")
        for threads in (2, 3, n, n + 5):
            assert _result(capsys, *command, "--threads", str(threads)) == single, (command, threads)


def _shard_failing_at_two(first):
    if first == 2:
        raise ValueError("shard 2 failed")
    return first


def test_a_worker_exception_is_raised_in_the_parent_after_every_reap(monkeypatch, capsys):
    assert cli._map_shards(lambda first: first, 5, 3) == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError, match="shard 2 failed"):
        cli._map_shards(_shard_failing_at_two, 5, 3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child is left, reaped or running

    def failing_stat_polynomial(n, patterns, stat, first):
        raise ValueError(f"shard {first} failed")

    monkeypatch.setattr(cli, "stat_polynomial", failing_stat_polynomial)
    assert cli.main(["poly", "--n", "5", "--avoid", "321", "--stat", "ch", "--threads", "2"]) == 1
    assert "shard 1 failed" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _shard_dying_at_two(first):
    if first == 2:
        os._exit(3)  # the worker ends before it replies
    return first


def test_replies_are_loaded_a_worker_at_a_time_and_a_dead_worker_is_reported():
    # replies far above a pipe's buffer: each worker blocks until its turn to be read
    lines = cli._map_shards(lambda first: [str(first)] * 100_000, 4, 2)
    assert lines == [[str(first)] * 100_000 for first in range(1, 5)]
    with pytest.raises(OSError, match="ended with wait status 768"):
        cli._map_shards(_shard_dying_at_two, 5, 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_FAILING_WORKERS = """
import os, sys, time
import permstat.cli as cli

os.sched_getaffinity = lambda pid: set(range(8))  # three workers even on a host with fewer CPUs
os.cpu_count = lambda: 8
workers, failure = int(sys.argv[1]), sys.argv[2]


def shard(first):
    if first == 1:
        if failure == "exit":
            os._exit(3)  # the worker ends before it replies
        raise ValueError("shard 1 failed")
    if first == 2 and failure == "sleep":
        time.sleep(600)
    return [str(first)] * 200_000  # far above a pipe's buffer: a worker left running blocks on its write


try:
    cli._map_shards(shard, workers, workers)
except Exception as exc:
    print(type(exc).__name__, exc)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


@pytest.mark.parametrize("workers, failure, raised", [
    (2, "raise", "ValueError shard 1 failed"),
    (2, "exit", "OSError shard worker 1 of 2 ended with wait status 768"),
    (3, "raise", "ValueError shard 1 failed"),
    (3, "sleep", "ValueError shard 1 failed"),  # shard 2's worker is stopped, not waited for
], ids=["2-raise", "2-exit", "3-raise", "3-sleep"])
def test_the_first_failure_stops_the_other_workers_at_once(workers, failure, raised):
    # in its own session, so a hang is ended with every worker it forked
    proc = subprocess.Popen(
        [sys.executable, "-c", _FAILING_WORKERS, str(workers), failure],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("still running after 10 s")
    assert (proc.returncode, err) == (0, "")
    assert out == f"{raised}\nno child left\n"


def test_workers_are_capped_by_the_cpus(monkeypatch):
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    # widths above 2 too, which a 2-CPU host's own cap would never fork
    for cpus, threads, workers in ((2, 8, 2), (8, 3, 3), (8, 8, 8)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        forks.clear()
        assert cli._map_shards(lambda first: first, 8, threads) == list(range(1, 9))
        assert len(forks) == workers


def test_threads_need_fork(monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    assert cli.main(["avoid", "--n", "5", "--avoid", "321", "--threads", "2"]) == 1
    assert "os.fork" in capsys.readouterr().err
    single = _result(capsys, "avoid", "--n", "5", "--avoid", "321", "--count", "--threads", "1")
    assert single == {"count": 42}


_FORK_REFUSED = BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))


@pytest.mark.parametrize("failure, message", [
    ("memory", "MemoryError"),  # a message-less exception is named by its type
    ("exit", "shard worker 2 of 2 ended with wait status 768"),
    ("fork", str(_FORK_REFUSED)),
], ids=["memory", "exit", "fork"])
def test_an_environment_failure_in_the_workers_ends_on_one_error_line(monkeypatch, capsys, failure, message):
    def shard(n, patterns, stat, first):
        if first == 2 and failure == "memory":
            raise MemoryError
        if first == 2 and failure == "exit":
            os._exit(3)  # the worker ends before it replies

    fork, forks = os.fork, []

    def fork_refusing_the_second():
        forks.append(None)
        if failure == "fork" and len(forks) == 2:
            raise _FORK_REFUSED
        return fork()

    monkeypatch.setattr(cli, "stat_polynomial", shard)
    monkeypatch.setattr(os, "fork", fork_refusing_the_second)
    assert cli.main(["poly", "--n", "5", "--avoid", "321", "--stat", "ch", "--threads", "2"]) == 1
    assert capsys.readouterr() == ("", f"permstat: error: {message}\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child is left, reaped or running


def _address_space_of_256_mb():
    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))


@pytest.mark.parametrize("argv", [
    ["poly", "--n", "10000000000", "--avoid", "321", "--stat", "ch"],  # C(n, 2) + 1 counts: no index that size
    ["avoid", "--n", "10000000000", "--avoid", "321", "--count"],
    ["avoid", "--n", "10000000000", "--avoid", "321", "--count", "--threads", "2"],
], ids=["poly", "avoid", "avoid-threads"])
def test_a_size_the_host_cannot_hold_ends_on_one_error_line(argv):
    # the lowered address-space limit fails the allocation alike on every host
    proc = run_cli(*argv, preexec_fn=_address_space_of_256_mb)
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr.startswith("permstat: error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("error", [TypeError, RecursionError])
def test_a_programming_error_still_raises(monkeypatch, error):
    def handler(args):
        raise error("a fault in the program, not in its environment")

    monkeypatch.setattr(cli, "_cmd_stat", handler)
    with pytest.raises(error):
        cli.main(["stat", "--perm", "1", "--stat", "maj"])


def _imported_modules(*args, module="permstat"):
    """The modules `python -X importtime -m MODULE ARGS` imports, and its stdout."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", module, *args],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}, proc.stdout


def test_each_command_imports_only_the_library_it_runs():
    for command in (
        ["stat", "--perm", "1", "--stat", "maj"],
        ["avoid", "--n", "5", "--avoid", "321", "--count"],
    ):
        modules, _ = _imported_modules(*command)
        assert "permstat.statistics" in modules, command
        assert not modules & {"permstat.tableaux", "permstat.wilf_engine"}, command
    modules, out = _imported_modules("classes", "--stat", "ch", "--size", "1", "--nmax", "5", "--format", "json")
    assert "permstat.wilf_engine" in modules
    assert json.loads(out)["result"]["classes"] == [["1,2,3"], ["1,3,2", "3,1,2"], ["2,1,3", "2,3,1"], ["3,2,1"]]
    modules, out = _imported_modules("verify", "lemma5", "--k", "3", "--format", "json")
    assert "permstat.tableaux" in modules
    assert json.loads(out)["result"] == {"passed": True, "n": 7, "avoider_count": 429}


def test_the_cli_module_is_run_once_as_the_program_entry():
    # run as __main__, cli.py is not imported again as permstat.cli
    modules, _ = _imported_modules("stat", "--perm", "1", "--stat", "maj", module="permstat.cli")
    assert "permstat.statistics" in modules
    assert "permstat.cli" not in modules


def test_in_process_main_leaves_the_collector_alone(capsys):
    import gc

    frozen = gc.get_freeze_count()
    assert cli.main(["stat", "--perm", "312", "--stat", "ch", "--format", "json"]) == 0
    assert cli.main(["verify", "lemma1", "--n", "3"]) == 0
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()


def test_a_listing_arrives_complete_through_the_program_entry():
    argv = ("avoid", "--n", "9", "--avoid", "321", "--format")
    buffered = {fmt: run_cli(*argv, fmt, env={"PYTHONUNBUFFERED": ""}) for fmt in ("json", "csv", "text")}
    proc = buffered["json"]
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    result = json.loads(proc.stdout)["result"]
    assert result["count"] == 4862
    perms = result["permutations"]
    assert len(perms) == len(set(perms)) == 4862
    assert perms[0] == "1,2,3,4,5,6,7,8,9" and perms[-1] == "9,1,2,3,4,5,6,7,8"
    for fmt, expected in buffered.items():  # unbuffered, each block is its own write to the pipe
        direct = run_cli(*argv, fmt, env={"PYTHONUNBUFFERED": "1"})
        assert (direct.returncode, direct.stderr) == (expected.returncode, expected.stderr) == (0, ""), fmt
        _assert_same_text(_masked(direct.stdout), _masked(expected.stdout), fmt)


def _closed_early(module):
    """The exit code and stderr of `python -m MODULE` whose reader closes after one line."""
    # the CSV listing, about 340 KB, overfills the pipe, so the writer meets the closed end
    proc = subprocess.Popen(
        [sys.executable, "-m", module, "avoid", "--n", "10", "--avoid", "231", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"permutation\n"
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    return proc.returncode, stderr


def test_a_reader_that_closes_early_ends_the_command_quietly():
    assert _closed_early("permstat") == (1, b"")


def test_the_cli_module_runs_through_the_program_entry():
    assert _closed_early("permstat.cli") == (1, b"")


def test_in_process_main_raises_a_broken_pipe(monkeypatch):
    class ClosedStdout:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    with pytest.raises(BrokenPipeError):
        cli.main(["avoid", "--n", "5", "--avoid", "321"])


def _output(capsys, argv, fmt):
    code = cli.main([*argv, "--format", fmt])
    return code, capsys.readouterr().out


def _reference_csv(result) -> str:
    if "coefficients" in result:
        rows = [["degree", "coefficient"]] + [[d, c] for d, c in enumerate(result["coefficients"])]
    elif "permutations" in result:
        rows = [["permutation"]] + [[p] for p in result["permutations"]]
    elif "classes" in result:
        rows = [["class_index", "pattern_set"]]
        rows += [[i, member] for i, cls in enumerate(result["classes"]) for member in cls]
    else:
        rows = [["field", "value"]]
        rows += [[k, json.dumps(v) if isinstance(v, (dict, list)) else v] for k, v in result.items()]
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _masked(text: str) -> str:
    return re.sub(r'(elapsed_ms"?): \d+', r"\1: 0", text)


def _assert_same_text(out, expected, label):
    """out == expected, compared in full; a mismatch is reported at its first differing
    line and column (None for a text that has ended), since pytest's own diff of two
    listings this long runs for many minutes."""
    if out != expected:
        got, want = out.split("\n") + [None], expected.split("\n") + [None]
        line = next(i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1])
        column = len(os.path.commonprefix([got[line] or "", want[line] or ""]))
        shown = slice(max(0, column - 60), column + 60)
        pytest.fail(
            f"{label}: line {line + 1} differs at column {column + 1}:\n"
            f"  got      {got[line] and got[line][shown]!r}\n  expected {want[line] and want[line][shown]!r}"
        )


def test_streamed_output_matches_the_whole_string_renderers(monkeypatch, capsys):
    from permstat.errors import VerificationError

    def broken(n):
        raise VerificationError("identity failed", witness={(1, 3, 2): (2, 1, 3)})

    monkeypatch.setattr("permstat.wilf_engine.verify_lemma2", broken)
    cases = [
        (["avoid", "--n", "1", "--avoid", "1"], 0),  # the empty listing
        (["avoid", "--n", "0", "--avoid", "321"], 0),  # one empty permutation
        (["avoid", "--n", "1", "--avoid", "21"], 0),  # a row csv leaves unquoted
        (["avoid", "--n", "2", "--avoid", "21"], 0),
        (["avoid", "--n", "5", "--avoid", "321", "--count"], 0),
        (["avoid", "--n", "6", "--avoid", "2143", "--threads", "3"], 0),
        (["avoid", "--n", "9", "--avoid", "321", "--threads", "1"], 0),  # several blocks
        (["avoid", "--n", "9", "--avoid", "321", "--threads", "3"], 0),  # several blocks per shard set
        (["classes", "--stat", "ch", "--size", "1", "--nmax", "4"], 0),
        (["verify", "lemma2", "--n", "3"], 2),  # a failure record
    ]
    assert len(cli._avoiders(9, frozenset({(3, 2, 1)}), False)) > 1
    records = {}
    for argv, expected_code in cases:
        code, out = _output(capsys, argv, "json")
        assert code == expected_code, argv
        record = records[tuple(argv)] = json.loads(out)
        _assert_same_text(out, json.dumps(record, indent=2) + "\n", argv)
        code, out = _output(capsys, argv, "csv")
        assert code == expected_code, argv
        _assert_same_text(out, _reference_csv(record["result"]), argv)

    head = "command: avoid\n  n: {n}\n  avoid:\n    {avoid}\n  count_only: {count}\n  threads: {threads}\nresult:\n"
    texts = {
        ("avoid", "--n", "1", "--avoid", "1"):
            head.format(n=1, avoid="1", count=False, threads=1) + "  count: 0\n  permutations:\n    \n",
        ("avoid", "--n", "0", "--avoid", "321"):
            head.format(n=0, avoid="3,2,1", count=False, threads=1) + "  count: 1\n  permutations:\n    \n",
        ("avoid", "--n", "5", "--avoid", "321", "--count"):
            head.format(n=5, avoid="3,2,1", count=True, threads=1) + "  count: 42\n",
        ("avoid", "--n", "3", "--avoid", "321", "--threads", "3"):
            head.format(n=3, avoid="3,2,1", count=False, threads=3)
            + "  count: 5\n  permutations:\n    1,2,3 1,3,2 2,1,3 2,3,1 3,1,2\n",
    }
    for threads in ("1", "3"):
        argv = ("avoid", "--n", "9", "--avoid", "321", "--threads", threads)
        perms = records[argv]["result"]["permutations"]
        texts[argv] = (
            head.format(n=9, avoid="3,2,1", count=False, threads=threads)
            + f"  count: {len(perms)}\n  permutations:\n    " + " ".join(perms) + "\n"
        )
    for argv, expected in texts.items():
        code, out = _output(capsys, list(argv), "text")
        assert code == 0, argv
        _assert_same_text(_masked(out), expected + "elapsed_ms: 0\n", argv)
    code, out = _output(capsys, ["verify", "lemma2", "--n", "3"], "text")
    assert code == 2
    assert _masked(out) == (
        "command: verify\n  target: lemma2\n  n: 3\nresult:\n  passed: False\n  error: identity failed\n"
        "  witness:\n    (1, 3, 2):\n      2 1 3\nelapsed_ms: 0\n"
    )


def test_output_reaches_stdout_in_blocks(monkeypatch):
    class CountingStdout:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)
            return len(text)

    def writes(argv, fmt):
        stdout = CountingStdout()
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            assert cli.main([*argv, "--format", fmt]) == 0
        return stdout.writes

    listing = ["avoid", "--n", "9", "--avoid", "321"]
    poly = ["poly", "--fast", "--n", "127", "--avoid", "321", "--stat", "ch"]
    outs = {}
    for argv in (listing, poly):
        for fmt in ("json", "csv", "text"):
            chunks = writes(argv, fmt)
            outs[argv[0], fmt] = "".join(chunks)
            if argv is listing:
                assert len(outs[argv[0], fmt]) > 80_000, fmt
                assert len(chunks) <= 4, fmt  # the rest of the record, two blocks, and the record's end
            else:
                assert len(chunks) == 1, fmt

    perms = json.loads(outs["avoid", "json"])["result"]["permutations"]
    poly_result = json.loads(outs["poly", "json"])["result"]
    for command in ("avoid", "poly"):
        out = outs[command, "json"]
        _assert_same_text(out, json.dumps(json.loads(out), indent=2) + "\n", command)
        _assert_same_text(outs[command, "csv"], _reference_csv(json.loads(out)["result"]), command)
    _assert_same_text(_masked(outs["avoid", "text"]), (
        "command: avoid\n  n: 9\n  avoid:\n    3,2,1\n  count_only: False\n  threads: 1\nresult:\n"
        f"  count: {len(perms)}\n  permutations:\n    " + " ".join(perms) + "\nelapsed_ms: 0\n"
    ), "avoid")
    _assert_same_text(_masked(outs["poly", "text"]), (
        "command: poly\n  n: 127\n  avoid:\n    3,2,1\n  stat: charge\n  fast: True\n  threads: 1\nresult:\n"
        "  coefficients:\n    " + " ".join(map(str, poly_result["coefficients"]))
        + f"\n  coefficient_sum: {poly_result['coefficient_sum']}\nelapsed_ms: 0\n"
    ), "poly")
