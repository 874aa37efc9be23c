import csv
import io
import json
import os
import re
import subprocess
import sys

import pytest

import permstat.cli as cli


def run_cli(*args, env=None):
    merged = dict(os.environ)
    merged.update(env or {})
    return subprocess.run(
        [sys.executable, "-m", "permstat", *args],
        capture_output=True,
        text=True,
        env=merged,
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
    proc = run_cli("poly", "--n", "5", "--avoid", "321", "--stat", "maj", "--fast")
    assert proc.returncode == 1
    assert "--fast" in proc.stderr
    proc = run_cli("poly", "--n", "5", "--avoid", "132", "--stat", "ch", "--fast")
    assert proc.returncode == 1


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
    monkeypatch.setattr(cli.wilf_engine, "verify_lemma1", lambda n: False)
    rc = cli.main(["verify", "lemma1", "--n", "3", "--format", "json"])
    record = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert record["result"]["passed"] is False


def test_exit_code_two_on_verification_error(monkeypatch, capsys):
    from permstat.errors import VerificationError

    def boom(n):
        raise VerificationError("identity failed", witness=(2, 1))

    monkeypatch.setattr(cli.wilf_engine, "verify_lemma2", boom)
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

    monkeypatch.setattr(cli.wilf_engine, "verify_lemma2", boom)
    rc = cli.main(["verify", "lemma2", "--n", "4", "--format", "json"])
    record = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert record["parameters"] == {"target": "lemma2", "n": 4}
    assert record["result"] == {"passed": False, "error": "identity failed"}


def test_exit_code_two_on_a_broken_involution(monkeypatch, capsys):
    monkeypatch.setattr(cli.tableaux, "involution_phi", lambda w: w)
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
    with pytest.raises(RuntimeError, match="ended with wait status 768"):
        cli._map_shards(_shard_dying_at_two, 5, 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def _imported_modules(*args):
    """The modules `python -X importtime -m permstat ARGS` imports, and its stdout."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "permstat", *args],
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


def test_in_process_main_leaves_the_collector_alone(capsys):
    import gc

    frozen = gc.get_freeze_count()
    assert cli.main(["stat", "--perm", "312", "--stat", "ch", "--format", "json"]) == 0
    assert cli.main(["verify", "lemma1", "--n", "3"]) == 0
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()


def test_a_listing_arrives_complete_through_the_program_entry():
    proc = run_cli("avoid", "--n", "9", "--avoid", "321", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    result = json.loads(proc.stdout)["result"]
    assert result["count"] == 4862
    perms = result["permutations"]
    assert len(perms) == len(set(perms)) == 4862
    assert perms[0] == "1,2,3,4,5,6,7,8,9" and perms[-1] == "9,1,2,3,4,5,6,7,8"


def test_a_reader_that_closes_early_ends_the_command_quietly():
    # the CSV listing, about 340 KB, overfills the pipe, so the writer meets the closed end
    proc = subprocess.Popen(
        [sys.executable, "-m", "permstat", "avoid", "--n", "10", "--avoid", "231", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"permutation\n"
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in stderr
    assert stderr == b""


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
    if "permutations" in result:
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
    return re.sub(r"elapsed_ms: \d+", "elapsed_ms: 0", text)


def test_streamed_output_matches_the_whole_string_renderers(monkeypatch, capsys):
    from permstat.errors import VerificationError

    def broken(n):
        raise VerificationError("identity failed", witness={(1, 3, 2): (2, 1, 3)})

    monkeypatch.setattr(cli.wilf_engine, "verify_lemma2", broken)
    cases = [
        (["avoid", "--n", "1", "--avoid", "1"], 0),  # the empty listing
        (["avoid", "--n", "0", "--avoid", "321"], 0),  # one empty permutation
        (["avoid", "--n", "5", "--avoid", "321", "--count"], 0),
        (["avoid", "--n", "6", "--avoid", "2143", "--threads", "3"], 0),
        (["classes", "--stat", "ch", "--size", "1", "--nmax", "4"], 0),
        (["verify", "lemma2", "--n", "3"], 2),  # a failure record
    ]
    for argv, expected_code in cases:
        code, out = _output(capsys, argv, "json")
        assert code == expected_code, argv
        record = json.loads(out)
        assert out == json.dumps(record, indent=2) + "\n", argv
        code, out = _output(capsys, argv, "csv")
        assert code == expected_code, argv
        assert out == _reference_csv(record["result"]), argv

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
    for argv, expected in texts.items():
        code, out = _output(capsys, list(argv), "text")
        assert code == 0, argv
        assert _masked(out) == expected + "elapsed_ms: 0\n", argv
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

    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(["avoid", "--n", "9", "--avoid", "321", "--format", "json"]) == 0
    out = "".join(stdout.writes)
    assert len(out) > 100_000
    assert len(stdout.writes) <= 4
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
