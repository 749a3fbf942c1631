import json

import pytest

from prodsets import acceptance, cli
from prodsets.sequences import fib


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
    f600 = fib(600)
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


def test_bad_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 2


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
    # the rational-root screen lists the divisors of 10^18 + 3
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
