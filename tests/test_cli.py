import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from prodsets import acceptance, cli, polyseq
from prodsets.cli import build_parser
from prodsets.sequences import FIBONACCI, lucas_u


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_fib_extremal_json(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(["fib-extremal", "--universe", "20", "--size", "3",
                            "--out", str(out_file)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["universe_max"] == 20
    assert payload["set_size"] == 3
    assert payload["max_count"] == 3
    assert payload["witness"] == [1, 2, 3]
    assert json.loads(out_file.read_text()) == payload


def test_fib_extremal_desk_guard_exit_code(capsys):
    code, _, err = run_cli(["fib-extremal", "--universe", "50", "--size", "3"], capsys)
    assert code == 3
    assert "capped" in err


def test_lucas_bound_trivial_set(capsys):
    code, out, _ = run_cli(["lucas-bound", "--set", "1", "--seq", "lucasV"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["bound"] == 32
    assert payload["ok"] is True


def test_lucas_bound_general_pair(capsys):
    code, out, _ = run_cli(["lucas-bound", "--set", "1,7,31", "--seq", "lucasU:3,2"],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert ["7", 3] in payload["members"]


def test_lucas_bound_rejects_degenerate_pair(capsys):
    code, out, err = run_cli(["lucas-bound", "--set", "1,2", "--seq", "lucasU:1,1"],
                             capsys)
    assert code == 2
    assert out == ""
    assert "degenerate" in err


def test_lucas_bound_counts_high_fibonacci_terms_under_either_name(capsys):
    # F_600 is U_600(1, -1): the general pair must find it as fib does
    assert cli._parse_seq("fib") == cli._parse_seq("lucasU:1,-1")
    f600 = lucas_u(FIBONACCI, 600)
    reports = []
    for seq in ("fib", "lucasU:1,-1"):
        code, out, _ = run_cli(["lucas-bound", "--set", f"1,{f600}", "--seq", seq], capsys)
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0] == reports[1]
    assert reports[0]["count"] == 2
    assert reports[0]["members"] == [["1", 1], [str(f600), 600]]


def test_lucas_bound_rejects_bad_values(capsys):
    code, _, err = run_cli(["lucas-bound", "--set", "0,2", "--seq", "lucasV"], capsys)
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize("argv", [["graph", "--set", "1/0,2", "--seq", "fib"],
                                  ["lucas-bound", "--set", "1/0", "--seq", "fib"]])
def test_zero_denominator_in_a_set_exits_two(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: zero denominator in '1/0'\n"


def test_zero_denominator_gamma_exits_two(capsys):
    argv = ["witness", "--poly-factors", "0,1", "--r", "5", "--R", "3", "--gamma"]
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["1/0"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: argument --gamma: invalid Fraction value: '1/0'" in err
    code, out, _ = run_cli(argv + ["2"], capsys)     # an explicit gamma echoes as a float
    assert code == 0
    assert '"gamma": 2.0,' in out


SUBCOMMANDS = ["fib-extremal", "lucas-bound", "graph", "window", "witness", "cover",
               "selftest"]


@pytest.mark.parametrize("argv", [["--help"]] + [[cmd, "--help"] for cmd in SUBCOMMANDS],
                         ids=["prodsets"] + SUBCOMMANDS)
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: prodsets")


@pytest.mark.parametrize("cmd", ["window", "witness"])
def test_window_usage_names_r_and_R_apart(cmd, capsys):
    with pytest.raises(SystemExit):
        cli.main([cmd, "--help"])
    usage = " ".join(capsys.readouterr().out.split("\n\n")[0].split())
    assert "--r r --R R" in usage


def test_bad_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 2


def test_the_command_table_lists_the_subcommands_in_order():
    # the full parser's usage line names the commands in the table's order
    assert list(cli._COMMANDS) == SUBCOMMANDS


def parse_outcome(parse, argv, capsys):
    """The namespace ``parse`` returns or the code it exits with, then its
    stdout and stderr."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    return (result, *capsys.readouterr())


def main_outcome(capsys, *argv):
    try:
        code = cli.main(*argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.fixture
def built(monkeypatch):
    """One entry per full parser that main builds."""
    calls = []
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append("full") or build_parser())
    return calls


# per subcommand: the argv after its name that argparse rejects (a required
# flag missing, a bad choice or type, a flag without its value) and one it takes
PARSE_CASES = {
    "fib-extremal": ([["--size", "2"], ["--universe", "x", "--size", "2"]],
                     ["--universe", "5", "--size", "2"]),
    "lucas-bound": ([["--seq", "fib"], ["--set", "1,2", "--seq"]],
                    ["--set", "1,2", "--seq", "fib"]),
    "graph": ([["--seq", "fib"], ["--set", "1,2", "--seq", "fib", "--mode", "three"]],
              ["--set", "1,2", "--seq", "fib", "--mode", "two"]),
    "window": ([["--poly", "0,1", "--r", "0", "--R", "5"],
                ["--poly", "0,1", "--r", "0", "--R", "5", "--filter", "below"],
                ["--poly", "0,1", "--r", "x", "--R", "5", "--filter", "above"]],
               ["--poly", "0,1", "--r", "0", "--R", "5", "--filter", "above"]),
    "witness": ([["--r", "0", "--R", "5"],
                 ["--poly-factors", "0,1", "--r", "0", "--R", "5", "--gamma", "1/0"]],
                ["--poly-factors", "0,1", "--r", "0", "--R", "5", "--gamma", "1/2"]),
    "cover": ([[], ["--graph"]], ["--graph", "graph.txt"]),
    "selftest": ([["--out", "x"]], []),
}
REJECTED = [[cmd, *tail] for cmd, (bad, good) in PARSE_CASES.items()
            for tail in [["--help"], *bad, [*good, "--foo"]]]


@pytest.mark.parametrize("argv", REJECTED, ids=" ".join)
def test_one_subcommand_parser_exits_as_the_full_parser(argv, capsys, built):
    one = parse_outcome(build_parser().parse_args, argv, capsys)
    assert one[0] == (0 if "--help" in argv else 2)
    assert main_outcome(capsys, argv) == one
    # only an unrecognized argument sends main to the full parser
    assert built == ["full"] * ("error: unrecognized arguments: " in one[2])
    assert parse_outcome(cli.parse_args, argv, capsys) == one


@pytest.mark.parametrize("cmd", SUBCOMMANDS)
def test_one_subcommand_parser_reads_as_the_full_parser(cmd, built):
    argv = [cmd, *PARSE_CASES[cmd][1]]
    args = cli.parse_args(argv)
    assert args == build_parser().parse_args(argv)
    assert args.command == cmd
    assert built == []


@pytest.mark.parametrize("cmd", SUBCOMMANDS)
def test_one_subcommand_parser_holds_no_other(cmd, capsys, built):
    # another command's name after this one is a stray argument: help still
    # prints this command's help, as the full parser's subparser does
    for other in SUBCOMMANDS:
        if other != cmd:
            argv = [cmd, other, "--help"]
            one = parse_outcome(cli.parse_args, argv, capsys)
            assert one == parse_outcome(build_parser().parse_args, argv, capsys)
            assert one[0] == 0 and one[1].startswith(f"usage: prodsets {cmd} ")
            assert f"prodsets {other}" not in one[1]
    assert built == []


# argv shapes that PARSE_CASES leaves out, with main's exit code
ARGV_SHAPES = {
    "equals": (["graph", "--mode=two", "--set=1,2", "--seq=fib"], 0),
    "abbreviations": (["fib-extremal", "--uni", "5", "--si", "2"], 0),
    "ambiguous abbreviation": (["lucas-bound", "--se", "1,2", "--seq", "fib"], 2),
    "repeated flags": (["lucas-bound", "--set", "1,2", "--seq", "fib", "--seq", "lucasV"], 0),
    "-- then args": (["cover", "--graph", "graph.txt", "--", "x"], 2),
    "-- before the flags": (["lucas-bound", "--", "--set", "1,2", "--seq", "fib"], 2),
    "-h after flags": (["window", "--poly", "0,1", "--r", "0", "--R", "5", "--filter",
                        "above", "-h"], 0),
    "unknown flag first": (["lucas-bound", "--foo", "--set", "1,2", "--seq", "fib"], 2),
    "stray positional": (["lucas-bound", "stray", "--set", "1,2", "--seq", "fib"], 2),
    "missing value": (["graph", "--set", "1,2", "--seq", "fib", "--mode"], 2),
    "gamma after a space": (["witness", "--poly-factors", "0,1", "--r", "10", "--R", "5",
                             "--gamma", "-1/2"], 2),
    "gamma joined": (["witness", "--poly-factors", "0,1", "--r", "10", "--R", "5",
                      "--gamma=-1/2"], 0),
}


@pytest.mark.parametrize("argv, code", ARGV_SHAPES.values(), ids=ARGV_SHAPES)
def test_main_reads_every_argv_shape_as_the_full_parser(argv, code, capsys, monkeypatch):
    one = parse_outcome(cli.parse_args, argv, capsys)
    assert one == parse_outcome(build_parser().parse_args, argv, capsys)
    outcome = main_outcome(capsys, argv)
    assert outcome[0] == code
    monkeypatch.setattr(cli, "parse_args", lambda argv: build_parser().parse_args(argv))
    assert main_outcome(capsys, argv) == outcome


@pytest.mark.parametrize("argv, code, needles", [
    ([], 2, ["error: the following arguments are required: command\n"]),
    (["-h", "window"], 0, [help_text for help_text, _ in cli._COMMANDS.values()]),
    (["no-such-command"], 2, ["invalid choice: 'no-such-command' (choose from "]),
], ids=["no-command", "-h window", "unknown"])
def test_main_builds_every_subparser_without_a_known_command(argv, code, needles, capsys,
                                                             built):
    outcome = main_outcome(capsys, argv)
    assert built == ["full"]
    assert outcome == parse_outcome(build_parser().parse_args, argv, capsys)
    assert outcome[0] == code
    assert all(needle in outcome[1 + (code == 2)] for needle in needles)


@pytest.mark.parametrize("argv", [["lucas-bound", "--set", "1,2,3", "--seq", "fib"],
                                  ["graph", "--set", "1,2", "--seq", "fib", "--mode", "x"],
                                  ["no-such-command"]], ids=lambda argv: argv[0])
def test_main_without_argv_reads_the_command_from_sys_argv(argv, capsys, monkeypatch,
                                                           built):
    # the console script calls main() with no argv
    monkeypatch.setattr(sys, "argv", ["prodsets", *argv])
    outcome = main_outcome(capsys)
    assert built == ["full"] * (argv[0] not in SUBCOMMANDS)
    assert outcome == main_outcome(capsys, sys.argv[1:])
    assert outcome[0] == (0 if argv[0] == "lucas-bound" else 2)


@pytest.mark.parametrize("argv, message", [
    (["lucas-bound", "--set", ",", "--seq", "fib"], "empty base set"),
    (["lucas-bound", "--set", "1,2", "--seq", "foo"], "unknown sequence: 'foo'"),
    (["window", "--poly", "1,0,1", "--r", "0", "--R", "0", "--filter", "above"],
     "window length must be >= 1"),
    (["window", "--poly", "1,0,1", "--r", "-1", "--R", "5", "--filter", "above"],
     "r must be >= 0"),
    (["window", "--poly", "1,0,2,0,1", "--r", "0", "--R", "5", "--filter", "above",
      "--residue", "auto"], "polynomial has a repeated factor (discriminant 0)"),
    (["lucas-bound", "--set", "1,2", "--seq", "lucasU:1,2,3"],
     "unknown sequence: 'lucasU:1,2,3' (use fib, lucasV or lucasU:P,Q)"),
    (["lucas-bound", "--set", "1,2", "--seq", "lucasU:"],
     "unknown sequence: 'lucasU:' (use fib, lucasV or lucasU:P,Q)"),
    (["lucas-bound", "--set", "1,2", "--seq", "lucasU:a,b"],
     "unknown sequence: 'lucasU:a,b' (use fib, lucasV or lucasU:P,Q)"),
    (["lucas-bound", "--set", "1,2", "--seq", "lucasU:2,4"], "P and Q must be coprime"),
    # an empty path fails as open("", "w") does, before any report is printed
    (["fib-extremal", "--universe", "5", "--size", "2", "--out", ""],
     "[Errno 2] No such file or directory: ''"),
    (["window", "--poly", "0,1", "--r", "0", "--R", "10", "--filter", "mid", "--out", ""],
     "[Errno 2] No such file or directory: ''"),
    (["graph", "--set", "1,2", "--seq", "fib", "--dump", ""],
     "[Errno 2] No such file or directory: ''"),
    (["witness", "--poly-factors", "3;0,1", "--r", "0", "--R", "6"],
     "factor 3 is a constant; every factor needs degree >= 1"),
])
def test_bad_values_exit_two(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message), err


def test_graph_report_and_dump(capsys, tmp_path):
    dump = tmp_path / "edges.csv"
    code, out, _ = run_cli(["graph", "--set", "1,2,3,5,8", "--seq", "fib",
                            "--mode", "one", "--dump", str(dump)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["num_edges"] == 5
    assert payload["num_self_loops"] == 1
    assert payload["acyclic"] is True
    assert payload["cycle"] is None
    assert dump.read_text() == "1,1,1\n1,2,2\n1,3,3\n1,5,5\n1,8,8\n"


def test_graph_rejects_an_unknown_mode(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["graph", "--set", "1,2,3", "--seq", "fib", "--mode", "three"])
    assert info.value.code == 2
    _, err = capsys.readouterr()
    assert err.endswith(
        "error: argument --mode: invalid choice: 'three' (choose from 'one', 'two')\n")


def test_graph_two_class_mode(capsys):
    code, out, _ = run_cli(["graph", "--set", "2,3", "--seq", "fib", "--mode", "two"],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["num_vertices"] == 4
    assert payload["num_edges"] == 0


def test_window_csv_stdout(capsys):
    code, out, _ = run_cli(["window", "--poly", "0,1", "--r", "0", "--R", "10",
                            "--filter", "mid"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "i,value,largest_prime_factor,qualifies"
    assert sum(1 for line in lines[1:] if line.endswith(",true")) == 1
    assert lines[7] == "7,7,7,true"


def test_window_residue_auto_with_out_file(capsys, tmp_path):
    out_file = tmp_path / "window.csv"
    code, out, _ = run_cli(["window", "--poly", "1,0,1", "--r", "0", "--R", "50",
                            "--filter", "above", "--residue", "auto",
                            "--out", str(out_file)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == 12
    assert payload["residue"] == [0, 4]
    body = out_file.read_text().strip().split("\n")
    assert len(body) == 13      # header + one row per kept index


def test_window_names_its_first_non_positive_term(capsys):
    # x^2 - 5x is -4, -6, -6, -4, 0, 6 at x = 1..6
    code, out, err = run_cli(["window", "--poly=0,-5,1", "--r", "0", "--R", "6",
                              "--filter", "above"], capsys)
    assert (code, out) == (2, "")
    assert "window term 1 at x = 1 is -4" in err, err


def test_window_largest_factor_of_a_strong_pseudoprime(capsys):
    # psi_12 of OEIS A014233 fools Miller-Rabin for all bases 2..37
    code, out, _ = run_cli(["window", "--poly", "318665857834031151167460,1",
                            "--r", "0", "--R", "1", "--filter", "above"], capsys)
    assert code == 0
    assert out.split("\n")[1] == "1,318665857834031151167461,798330580441,true"


def test_witness_gamma_is_compared_exactly(capsys):
    # 25^12.5 = 5^25, one below r: case 2, which a float comparison misses
    code, out, _ = run_cli(["witness", "--poly-factors", "0,1", "--r", str(5**25 + 1),
                            "--R", "25", "--gamma", "12.5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == 2
    assert payload["gamma"] == 12.5
    assert '"gamma": 12.5,' in out


def test_witness_gamma_beyond_the_float_range(capsys):
    argv = ["--r", "0", "--R", "10", "--gamma", "1e400"]
    code, out, err = run_cli(["witness", "--poly-factors", "1,0,1"] + argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: --gamma is too large to echo as a float\n"
    # a linear window meets the power guard first, which names gamma's
    # size, not its 401 digits
    code, out, err = run_cli(["witness", "--poly-factors", "0,1"] + argv, capsys)
    assert (code, out) == (3, "")
    assert "MAX_POWER_BITS" in err
    assert err.count("\n") == 1 and len(err.encode()) < 200, err



def test_witness_power_guard_runs_before_any_factoring(monkeypatch, capsys):
    calls = []
    real = polyseq.factorize_batch
    monkeypatch.setattr(polyseq, "factorize_batch",
                        lambda values: calls.append(values) or real(values))
    code, out, err = run_cli(["witness", "--poly-factors", "0,1", "--r", str(2**40),
                              "--R", "20", "--gamma", "1000000"], capsys)
    assert (code, out, calls) == (3, "", [])
    assert "MAX_POWER_BITS" in err

def test_witness_json_fields(capsys):
    code, out, _ = run_cli(["witness", "--poly-factors", "1,0,1", "--r", "0",
                            "--R", "50"], capsys)
    assert code == 0
    payload = json.loads(out)
    for field in ("case", "R", "r", "k", "B_lower_bound"):
        assert field in payload
    assert payload["case"] == 1
    assert payload["B_lower_bound"] == (payload["k"] + 2) // 2


def test_witness_on_a_cubic_with_a_61_bit_constant_term(capsys):
    # the rational-root screen bisects y^3 + 10^18 + 3 over a 60-bit range
    code, out, _ = run_cli(["witness", "--poly-factors", "1000000000000000003,0,0,1",
                            "--r", "0", "--R", "5"], capsys)
    assert code == 0
    assert json.loads(out)["case"] == 1


def test_witness_multiple_factors(capsys):
    code, out, _ = run_cli(["witness", "--poly-factors", "0,1;1,1", "--r", "0",
                            "--R", "12"], capsys)
    assert code == 0
    assert json.loads(out)["case"] == 3


def test_cover_from_file(capsys, tmp_path):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("b1 a1\nb2 a1 a2\nb3 a2\n")
    code, out, _ = run_cli(["cover", "--graph", str(graph_file)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["sequence"] == ["b1", "b2"]
    assert payload["bound_ok"] is True
    assert payload["verified"] is True


def test_cover_skips_comments_and_rejects_duplicate_lines(capsys, tmp_path):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("# b a1 a2 ...\nb1 a1\n\n  # indented\nb2 a1 a2\n   \nb3 a2\n")
    code, out, _ = run_cli(["cover", "--graph", str(graph_file)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert (payload["sequence"], payload["b_count"]) == (["b1", "b2"], 3)
    graph_file.write_text("b1 a1\nb2 a2\nb1 a2\n")
    code, out, err = run_cli(["cover", "--graph", str(graph_file)], capsys)
    assert (code, out, err) == (2, "", "error: duplicate b-vertex line: b1\n")


def test_cover_of_a_deep_descent(capsys, tmp_path):
    n = sys.getrecursionlimit() + 100
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("".join(f"u{i} a1 a2\n" for i in range(n)) + "p1 a1\np2 a2\n")
    code, out, _ = run_cli(["cover", "--graph", str(graph_file)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["sequence"] == ["p1", "p2"]
    assert payload["k"] * payload["degree_bound"] >= payload["b_count"] == n + 2
    assert payload["bound_ok"] is True and payload["verified"] is True


def test_reports_are_byte_stable(capsys):
    argv = ["witness", "--poly-factors", "1,0,1", "--r", "0", "--R", "30"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_selftest_times_each_check_on_stderr(capsys, monkeypatch):
    def failing():
        raise acceptance.CheckFailure("bound broken")

    monkeypatch.setattr(acceptance, "CHECKS",
                        (("quick", lambda: "fine"), ("broken", failing)))
    code, out, err = run_cli(["selftest"], capsys)
    assert code == 1
    assert out == "PASS quick: fine\nFAIL broken: bound broken\n"
    lines = [line.split() for line in err.splitlines()]
    assert [fields[0] for fields in lines] == ["quick", "broken"]
    for _, cpu_s, wall_s in lines:
        assert float(cpu_s) >= 0 and float(wall_s) >= 0


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


@pytest.mark.parametrize("argv", [
    ["fib-extremal", "--universe", "7", "--size", "2", "--out"],
    ["window", "--poly", "0,1", "--r", "0", "--R", "10", "--filter", "mid", "--out"],
    ["graph", "--set", "1,2,3", "--seq", "fib", "--dump"],
], ids=["fib-extremal", "window", "graph"])
def test_written_files_get_the_mode_open_would_give(argv, capsys, tmp_path, umask_022):
    target = tmp_path / "report"
    assert run_cli(argv + [str(target)], capsys)[0] == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o644
    target.chmod(0o640)     # an existing file keeps its mode
    assert run_cli(argv + [str(target)], capsys)[0] == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert os.listdir(tmp_path) == ["report"]   # no temporary file left


def test_out_onto_a_directory_exits_two_and_leaves_it_as_it_was(capsys, tmp_path):
    target = tmp_path / "report"
    target.mkdir()
    (target / "kept.txt").write_text("kept\n")
    code, out, err = run_cli(["fib-extremal", "--universe", "5", "--size", "2",
                              "--out", str(target)], capsys)
    assert (code, out) == (2, "") and "error:" in err
    assert err == f"error: [Errno 21] Is a directory: {str(target)!r}\n"   # not the temporary file
    assert os.listdir(target) == ["kept.txt"]
    assert (target / "kept.txt").read_text() == "kept\n"
    assert os.listdir(tmp_path) == ["report"]   # the temporary file is removed


@pytest.mark.parametrize("argv", [["fib-extremal", "--universe", "5", "--size", "2", "--out"],
                                  ["graph", "--set", "1,2", "--seq", "fib", "--dump"]])
def test_out_into_a_missing_directory_exits_two_naming_the_path(argv, capsys, tmp_path):
    target = tmp_path / "missing" / "report"
    code, out, err = run_cli(argv + [str(target)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
    assert os.listdir(tmp_path) == []


WRITERS = [
    ["fib-extremal", "--universe", "7", "--size", "2", "--out"],
    ["window", "--poly", "0,1", "--r", "0", "--R", "10", "--filter", "mid", "--out"],
    ["graph", "--set", "1,2,3", "--seq", "fib", "--dump"],
]


@pytest.mark.parametrize("argv", WRITERS, ids=[argv[0] for argv in WRITERS])
def test_out_writes_through_a_symlink(argv, capsys, tmp_path):
    (tmp_path / "links").mkdir()
    (tmp_path / "targets").mkdir()
    target = tmp_path / "targets" / "report"
    link = tmp_path / "links" / "report"
    os.symlink(os.path.join("..", "targets", "report"), link)
    assert run_cli(argv + [str(link)], capsys)[0] == 0     # a dangling link: a new target
    first = target.read_text()
    target.write_text("old\n")
    assert run_cli(argv + [str(link)], capsys)[0] == 0     # an existing target
    assert link.is_symlink() and target.read_text() == first
    # the temporary file was made beside the target and renamed onto it
    assert os.listdir(tmp_path / "links") == os.listdir(tmp_path / "targets") == ["report"]


@pytest.mark.parametrize("argv", WRITERS, ids=[argv[0] for argv in WRITERS])
@pytest.mark.parametrize("via_link", [False, True], ids=["fifo", "link-to-fifo"])
def test_out_onto_a_fifo_exits_two_and_leaves_it(argv, via_link, capsys, tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    path = tmp_path / "link" if via_link else fifo
    if via_link:
        os.symlink("pipe", path)
    code, out, err = run_cli(argv + [str(path)], capsys)
    assert (code, out, err) == (2, "", f"error: not a regular file: {str(path)!r}\n")
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == sorted({"pipe", path.name})


def test_a_new_file_gets_0o666_less_the_umask_without_reading_it(capsys, tmp_path,
                                                                  monkeypatch):
    def no_umask(mask):
        raise AssertionError("os.umask called")

    old = os.umask(0o027)
    monkeypatch.setattr(os, "umask", no_umask)
    try:
        for argv in WRITERS:
            target = tmp_path / argv[0]
            assert run_cli(argv + [str(target)], capsys)[0] == 0
            assert stat.S_IMODE(target.stat().st_mode) == 0o640
    finally:
        monkeypatch.undo()
        os.umask(old)


def test_a_negative_coefficient_list_is_joined_to_its_flag(capsys):
    # argparse reads "-1,0,1" after a space as a flag, so the value is missing
    argv = ["--r", "1000", "--R", "20"]
    with pytest.raises(SystemExit) as info:
        cli.main(["witness", "--poly-factors", "-1,0,1"] + argv)
    assert info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    code, out, err = run_cli(["witness", "--poly-factors=-1,0,1"] + argv, capsys)
    assert (code, out) == (2, "")
    assert "quadratic splits over the rationals" in err
    code, out, _ = run_cli(["window", "--poly=-1,0,1", "--r", "1", "--R", "2",
                            "--filter", "above"], capsys)
    assert (code, out) == (0, "i,value,largest_prime_factor,qualifies\n1,3,3,true\n2,8,2,false\n")


@pytest.mark.parametrize("argv, code", [
    ("lucas-bound --set 1,2,3 --seq fib", 0),
    ("window --poly 1,0,1 --r 0 --R 0 --filter above", 2),
    ("fib-extremal --universe 41 --size 2", 3),
])
def test_python_m_prodsets_exits_with_the_code_of_main(argv, code):
    # the one path through __main__.py and cli.run, which in-process tests skip
    env = os.environ | {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run([sys.executable, "-m", "prodsets"] + argv.split(), env=env,
                            capture_output=True, text=True)
    assert result.returncode == code, result.stderr
    if code:
        assert result.stdout == "" and result.stderr.startswith("error: ")
    else:
        assert json.loads(result.stdout)["ok"] is True and result.stderr == ""


def test_cover_and_out_files_are_utf_8_under_a_c_locale(tmp_path):
    # the C locale's default encoding is ASCII: each open must name UTF-8,
    # which -X warn_default_encoding turns into an error where it does not
    graph = tmp_path / "graph.txt"
    graph.write_text("bé a1 a2\nb2 a2\n", encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    runs = {"C": ({"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
                  ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]),
            "UTF-8": ({"PYTHONUTF8": "1"}, [])}
    for argv in (["cover", "--graph", str(graph)],
                 ["fib-extremal", "--universe", "7", "--size", "2", "--out"]):
        seen = {}
        for name, (locale, flags) in runs.items():
            out = tmp_path / f"report-{name}.json"
            result = subprocess.run(
                [sys.executable, *flags, "-m", "prodsets", *argv]
                + ([str(out)] if argv[-1] == "--out" else []),
                env=env | locale, capture_output=True, encoding="utf-8")
            assert (result.returncode, result.stderr) == (0, ""), result.stderr
            seen[name] = (result.stdout, out.read_text("utf-8") if out.exists() else None)
        assert seen["C"] == seen["UTF-8"]
        assert argv[0] != "cover" or '"b\\u00e9"' in seen["C"][0]
