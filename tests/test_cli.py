"""Command-line interface behaviour and exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pathdepth
from pathdepth.cli import run_command


def test_gen_text(capsys):
    assert run_command(["gen", "--graph", "line", "--n", "5", "--m", "3"]) == 0
    out = capsys.readouterr().out
    assert "x1*x2*x3" in out


def test_gen_json(capsys):
    assert run_command(["gen", "--graph", "cycle", "--n", "4", "--m", "3",
                        "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 4
    assert [1, 2, 3] in data["gens"]
    assert len(data["gens"]) == 4


def test_depth_cycle(capsys):
    assert run_command(["depth", "--graph", "cycle", "--n", "4", "--m", "3"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_depth_over_gf2(capsys):
    assert run_command(["depth", "--graph", "line", "--n", "6", "--m", "2",
                        "--field", "f2"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_betti_csv(capsys):
    assert run_command(["betti", "--graph", "cycle", "--n", "4", "--m", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "i,sigma,beta"
    assert "0,,1" in lines[1]  # beta_{0,0} = 1


def test_betti_json(capsys):
    assert run_command(["betti", "--graph", "cycle", "--n", "4", "--m", "3",
                        "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0] == {"i": 0, "sigma": [], "beta": 1}
    assert rows[-1] == {"i": 2, "sigma": [1, 2, 3, 4], "beta": 3}
    assert len(rows) == 6


def test_sdepth_quotient(capsys):
    assert run_command(["sdepth", "--graph", "cycle", "--n", "4", "--m", "3"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_sdepth_subquotient(capsys):
    assert run_command(["sdepth", "--graph", "cycle", "--n", "4", "--m", "3",
                        "--module", "subquotient"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_sdepth_writes_certificate(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert run_command(["sdepth", "--graph", "cycle", "--n", "5", "--m", "3",
                        "--certificate", str(cert)]) == 0
    data = json.loads(cert.read_text())
    assert data["sdepth"] == int(capsys.readouterr().out.strip())
    assert data["intervals"]


def test_ideal_file_round_trip(tmp_path, capsys):
    path = tmp_path / "ideal.json"
    run_command(["gen", "--graph", "cycle", "--n", "4", "--m", "3",
                 "--format", "json", "--out", str(path)])
    capsys.readouterr()
    assert run_command(["depth", "--ideal-file", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_decomp_emit_and_check(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert run_command(["decomp", "--graph", "cycle", "--n", "4", "--m", "3",
                        "--module", "subquotient", "--out", str(cert)]) == 0
    capsys.readouterr()
    assert run_command(["decomp", "--graph", "cycle", "--n", "4", "--m", "3",
                        "--module", "subquotient", "--check", str(cert)]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    # same certificate against the wrong module fails the check
    assert run_command(["decomp", "--graph", "cycle", "--n", "4", "--m", "3",
                        "--check", str(cert)]) == 1
    assert capsys.readouterr().out.startswith("invalid")


def test_decomp_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_command(["decomp", "--graph", "cycle", "--n", "6", "--m", "3",
                 "--out", str(a)])
    run_command(["decomp", "--graph", "cycle", "--n", "6", "--m", "3",
                 "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_small_suite(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = run_command(["verify", "--suite", "j3", "--n-min", "4",
                        "--n-max", "6", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("family,")
    assert any(",MATCH," in line for line in lines[1:])


def test_verify_json_format(capsys):
    assert run_command(["verify", "--suite", "prop1", "--n-min", "4",
                        "--n-max", "5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert all(row["status"] == "MATCH" for row in data)


def test_budget_limited_certificates_say_inexact(tmp_path, capsys):
    argv = ["--graph", "cycle", "--n", "9", "--m", "3", "--budget-nodes", "5"]
    assert run_command(["decomp", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["exact"] is False
    cert = tmp_path / "cert.json"
    assert run_command(["sdepth", *argv, "--certificate", str(cert)]) == 0
    assert capsys.readouterr().out == "unknown >= 0, <= 5\n"
    assert json.loads(cert.read_text())["exact"] is False
    # an exact certificate carries no marker
    assert run_command(["decomp", *argv[:6]]) == 0
    assert "exact" not in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("argv", [
    ["depth"],                                          # module unspecified
    ["depth", "--graph", "line", "--n", "4"],           # m missing
    ["gen", "--graph", "tree", "--n", "4", "--m", "2"],  # unknown graph
    ["depth", "--graph", "line", "--n", "4", "--m", "9"],  # m out of range
    ["sdepth", "--graph", "line", "--n", "4", "--m", "2",
     "--module", "subquotient"],                        # needs a cycle
    ["depth", "--ideal-file", "ideal.json", "--n", "9"],  # n from the file
    ["sdepth", "--graph", "cycle", "--n", "4", "--m", "4",
     "--module", "subquotient"],                        # J_{4,4} = I_{4,4}
    ["verify", "--depth-cap", "0"],                     # removed options
    ["verify", "--sdepth-cap", "0"],
])
def test_usage_errors_exit_two(argv, capsys):
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err


@pytest.mark.parametrize("argv", [
    ["sdepth", "--graph", "cycle", "--n", "6", "--m", "3"],
    ["decomp", "--graph", "cycle", "--n", "6", "--m", "3"],
    ["verify", "--suite", "prop1", "--n-min", "4", "--n-max", "4"],
])
@pytest.mark.parametrize("budget", ["-1", "0", "x"])
def test_budget_must_be_positive(argv, budget, capsys):
    assert run_command([*argv, "--budget-nodes", budget]) == 2
    assert "must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("n_min, n_max", [(9, 3), (5, 4)])
def test_verify_rejects_empty_n_range(n_min, n_max, capsys):
    assert run_command(["verify", "--n-min", str(n_min),
                        "--n-max", str(n_max)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == \
        f"error: --n-min {n_min} exceeds --n-max {n_max}"


@pytest.mark.parametrize("n_min, n_max", [("-5", "-2"), ("0", "4"), ("3", "0"),
                                          ("x", "4")])
def test_verify_n_range_must_be_positive(n_min, n_max, capsys):
    # a range with no positive n would check nothing, print an empty table
    # and pass
    assert run_command(["verify", "--n-min", n_min, "--n-max", n_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be a positive integer" in captured.err


def test_verify_refuses_n_max_past_every_ideal(capsys):
    # no ideal exists past MAX_AMBIENT = 24 variables, so a larger --n-max
    # would only print SKIPPED rows, n - 1 per n for the line family
    start = time.perf_counter()
    assert run_command(["verify", "--n-min", "17", "--n-max", "25"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: --n-max 25 exceeds 24"
    assert run_command(["verify", "--suite", "j2", "--n-min", "24",
                        "--n-max", "24", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 2 and all(",SKIPPED," in r for r in rows)


@pytest.mark.parametrize("text", [
    None, "[1]", '{"n": 3}', '{"n": 3, "gens": 5}',
    # int() would read these as n = 4, n = 1 and x1*x2
    '{"n": 4.9, "gens": [[1, 2], [2, 3]]}', '{"n": true, "gens": [[1]]}',
    '{"n": 4, "gens": [[true, 2]]}'])
def test_bad_ideal_file_exits_two(text, tmp_path, capsys):
    path = tmp_path / "ideal.json"
    if text is not None:
        path.write_text(text)
    assert run_command(["depth", "--ideal-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("data", [{"sdepth": 1}, {"intervals": [{}]}, [1],
                                  {"sdepth": 1.9, "intervals": []}])
def test_malformed_certificate_exits_two(data, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(data))
    assert run_command(["decomp", "--graph", "cycle", "--n", "4", "--m", "3",
                        "--check", str(cert)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed certificate")


def test_certificate_with_a_bad_interval_exits_two(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(
        {"sdepth": 1, "intervals": [{"lower": [1, 2], "upper": [1]}]}))
    assert run_command(["decomp", "--graph", "cycle", "--n", "4", "--m", "3",
                        "--check", str(cert)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: interval lower must divide upper"


@pytest.mark.parametrize("text", ["", "n = 4", "{\"n\": 4,", "\udcff"])
@pytest.mark.parametrize("command", ["depth --ideal-file", "decomp --check"])
def test_file_that_is_not_json_is_named(command, text, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(text, errors="surrogateescape")
    argv = [*command.split(), str(path)]
    if command.startswith("decomp"):
        argv += ["--graph", "cycle", "--n", "4", "--m", "3"]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"error: {path} is not JSON"


def test_ideal_file_excludes_n(tmp_path, capsys):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"n": 4, "gens": [[1, 2], [2, 3]]}))
    assert run_command(["depth", "--ideal-file", str(path)]) == 0
    capsys.readouterr()
    assert run_command(["depth", "--ideal-file", str(path), "--n", "9"]) == 2
    assert capsys.readouterr().err.strip() == (
        "error: --ideal-file excludes --graph/--n/--m")


@pytest.mark.parametrize("command", ["sdepth", "decomp", "decomp --check"])
def test_sdepth_past_the_table_cap_exits_two(command, tmp_path, capsys):
    argv = [*command.split(), "--graph", "line", "--n", "17", "--m", "17"]
    if "--check" in argv:
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"sdepth": 0, "intervals": []}))
        argv.insert(2, str(cert))
    start = time.perf_counter()
    assert run_command(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.strip() == "error: ambient n=17 exceeds cap 16"


def test_depth_of_zero_module_rejected(capsys, tmp_path):
    # the Betti engine's refusal, the same for both commands
    path = tmp_path / "unit.json"
    path.write_text(json.dumps({"n": 3, "gens": [[]]}))
    for command in ("depth", "betti"):
        assert run_command([command, "--ideal-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == "error: I = S gives the zero module S/S"


def test_zero_module_certificate_is_refused(tmp_path, capsys):
    # J = S and I = S: there is no poset to partition, so even the empty
    # certificate is refused, by every sdepth command alike
    path = tmp_path / "unit.json"
    path.write_text(json.dumps({"n": 3, "gens": [[]]}))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"sdepth": 99, "intervals": []}))
    for argv in (["sdepth"], ["decomp"], ["decomp", "--check", str(cert)]):
        assert run_command([*argv, "--ideal-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == "error: J = I gives the zero module"


VERIFY_ALL_N10 = Path(__file__).with_name("data") / "verify_all_n10.json"


def test_verify_output_is_unchanged(capsys):
    # every row of `verify --suite all --n-max 10` as recorded, apart from
    # its wall time: search or index changes must keep each answer, status
    # and note
    assert run_command(["verify", "--suite", "all", "--n-max", "10",
                        "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    for row in rows:
        del row["elapsed"]
    assert rows == json.loads(VERIFY_ALL_N10.read_text())


def _python_m_pathdepth(*argv, timeout, stdout=subprocess.PIPE):
    src = str(Path(pathdepth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "pathdepth", *argv],
                          env=env, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)


def test_python_dash_m_runs_the_cli():
    proc = _python_m_pathdepth("verify", "--suite", "max", "--n-min", "3",
                               "--n-max", "4", timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "MATCH" in proc.stdout


def test_deep_sdepth_search_needs_no_recursion():
    # line:14:4 places thousands of intervals on one search path
    proc = _python_m_pathdepth("sdepth", "--graph", "line", "--n", "14",
                               "--m", "4", timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "9"


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "j3", "--n-max", "8", "--format", "csv"),
    ("betti", "--graph", "line", "--n", "8", "--m", "3"),
])
def test_closed_stdout_pipe_exits_quietly(argv):
    # as in `pathdepth ... | head`, but with the reader gone before the
    # first write: no message, no traceback, and 128 + SIGPIPE, not the
    # usage status 2
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _python_m_pathdepth(*argv, timeout=120, stdout=write)
    finally:
        os.close(write)
    assert proc.stderr == ""
    assert proc.returncode == 141
