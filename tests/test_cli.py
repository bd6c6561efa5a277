import argparse
import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from extremalcurves import PrimeField, fixture, ideal_equal, parse_polynomial
from extremalcurves.cli import (EXIT_BOUNDARY, EXIT_INVALID, EXIT_OK,
                                EXIT_PIPELINE, build_parser, main)
from extremalcurves.curves import curve_ring
from extremalcurves.groebner import IdealBasis

DATA = Path(__file__).parent / "data"


def run_cli(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


def test_analyze_twisted_cubic():
    code, out = run_cli(["analyze", str(DATA / "twisted_cubic.ideal")])
    assert code == EXIT_OK
    assert "d=3 g=0 a=0 l=1 nu=1" in out
    assert "saturated=yes" in out


def test_analyze_plane_quartic():
    code, out = run_cli(["analyze", str(DATA / "plane_quartic.ideal")])
    assert code == EXIT_OK
    assert "d=4 g=3 (plane curve)" in out


def test_analyze_rejects_nonhomogeneous():
    code = main(["analyze", str(DATA / "nonhomogeneous.ideal")])
    assert code == EXIT_INVALID


def test_analyze_rejects_unknown_key():
    code = main(["analyze", str(DATA / "unknown_key.ideal")])
    assert code == EXIT_INVALID


def test_analyze_rejects_non_curve(tmp_path):
    bad = tmp_path / "plane.ideal"
    bad.write_text("generators:\n  x\n", encoding="utf-8")
    code, out = run_cli(["analyze", str(bad)])
    assert code == EXIT_INVALID
    assert "dimension" in out


def test_analyze_rejects_exponent_past_budget(tmp_path, capsys):
    big = tmp_path / "big.ideal"
    big.write_text("generators:\n  x^40000*y - y^40001\n  z\n",
                   encoding="utf-8")
    code = main(["analyze", str(big)])
    assert code == EXIT_INVALID
    assert capsys.readouterr().err == (
        "error: exponent 40000 exceeds 32767, the largest a packed "
        "monomial slot holds\n")


@pytest.mark.parametrize("header, generator, p", [
    ("", "1/32003*x*y - z^2", 32003),
    ("characteristic: 7\n", "7/7*y^2", 7)], ids=["gf32003", "gf7"])
def test_denominator_vanishing_mod_p_is_invalid_input(tmp_path, capsys,
                                                      header, generator, p):
    path = tmp_path / "zero.ideal"
    path.write_text(f"{header}generators:\n  {generator}\n  x\n",
                    encoding="utf-8")
    assert main(["analyze", str(path)]) == EXIT_INVALID
    assert capsys.readouterr() == (
        "", f"error: {path}: a denominator vanishes modulo {p}\n")


@pytest.mark.parametrize("text, line, message", [
    ("characteristic: 32003\nvariables: x y z w\ngenerators:\n"
     "  x*y - * z\n  x\n", 4, "unexpected token '*'"),
    ("characteristic: 0\ngenerators:\n  - x\n  # a comment\n\n"
     "  - 1/0*y^2\n", 6, "malformed fraction coefficient"),
    ("generators: x, y - * z\n", 1, "unexpected token '*'")],
    ids=["malformed", "zero-denominator-qq", "header-line"])
def test_generator_parse_errors_name_the_file_and_line(tmp_path, capsys,
                                                       text, line, message):
    path = tmp_path / "bad.ideal"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", str(path)]) == EXIT_INVALID
    assert capsys.readouterr() == ("", f"error: {path}:{line}: {message}\n")


def test_byte_order_mark_is_read(tmp_path):
    text = (DATA / "twisted_cubic.ideal").read_text(encoding="utf-8")
    path = tmp_path / "bom.ideal"
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert run_cli(["analyze", str(path)]) == run_cli(
        ["analyze", str(DATA / "twisted_cubic.ideal")])


def test_non_utf8_file_names_the_path(tmp_path, capsys):
    path = tmp_path / "latin1.ideal"
    path.write_bytes(b"generators:\n  x*y - z^2 # \xe9\n  x\n")
    assert main(["analyze", str(path)]) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}: ")
    assert "can't decode byte 0xe9" in err


def test_main_builds_the_parser_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("argv", [
    [], ["specialize"], ["nosuch"], ["rho", "4", "0", "--range", "-3..0"],
    ["rho", "4", "zero"], ["specialize", "x.ideal", "--bogus"],
], ids=["no-command", "no-path", "unknown-command", "negative-range-no-equals",
        "non-integer", "unknown-option"])
def test_usage_errors_are_invalid_input(argv, capsys):
    # exit 2 names the boundary branch; argparse's message is kept
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: extremalcurves")
    assert re.search(r"^extremalcurves[\w -]*: error: ", err, re.M)


def test_help_exits_zero(capsys):
    for argv in (["-h"], ["rho", "--help"]):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: extremalcurves")


def test_console_usage_error_exits_invalid():
    result = subprocess.run(
        [sys.executable, "-m", "extremalcurves.cli", "specialize"],
        capture_output=True, text=True)
    assert result.returncode == EXIT_INVALID
    assert "error: the following arguments are required: path" in (
        result.stderr)


def test_specialize_rational_quartic_json(tmp_path):
    out_json = tmp_path / "report.json"
    code, out = run_cli(["specialize", str(DATA / "rational_quartic.ideal"),
                         "--seed", "42", "--json", str(out_json)])
    assert code == EXIT_OK
    payload = json.loads(out_json.read_text(encoding="utf-8"))
    assert payload["extremal"] is True
    assert payload["rao"] == [1, 1, 1, 0]
    assert payload["rao"] == payload["rho"]
    assert payload["d"] == 4 and payload["g"] == 0
    assert payload["branch"] == "general"
    assert "extremal: true" in out


@pytest.mark.parametrize("source, seed", [
    ("rational_quartic.ideal", "42"),   # general: surface, F, G and rows
    ("twisted_cubic.ideal", "0"),       # ACM-boundary: rows of zeros
    ("plane_quartic.ideal", "0"),       # plane: no rows
    ("generators:\n  x\n  y*z\n", "0")],  # plane: no rows, at a = 0 too
    ids=["general", "acm-boundary", "plane", "plane-conic"])
def test_json_flag_prints_the_same_report(tmp_path, source, seed):
    path = DATA / source
    if not source.endswith(".ideal"):
        path = tmp_path / "conic.ideal"
        path.write_text(source, encoding="utf-8")
    argv = ["specialize", str(path), "--seed", seed]
    plain = run_cli(argv)
    out_json = tmp_path / "report.json"
    assert run_cli(argv + ["--json", str(out_json)]) == plain
    payload = json.loads(out_json.read_text(encoding="utf-8"))
    assert payload["seed"] == int(seed)
    plane = payload["branch"] == "plane"
    assert (payload["n_start"] is None) == plane
    assert ("rao:" in plain[1]) == (not plane)


def test_specialize_boundary_exit_code():
    code, out = run_cli(["specialize", str(DATA / "twisted_cubic.ideal")])
    assert code == EXIT_BOUNDARY
    assert "ACM-boundary" in out


def test_specialize_retry_exhaustion_exit_code():
    code, out = run_cli(["specialize", str(DATA / "rational_quartic.ideal"),
                         "--seed", "42", "--retries", "0"])
    assert code == EXIT_PIPELINE
    assert "disjointness" in out


@pytest.mark.parametrize("argv", [
    ["specialize", str(DATA / "rational_quartic.ideal")],
    ["specialize", str(DATA / "no_such_file.ideal")],
    ["demo", "rational-quartic", "--specialize"],
    ["demo", "extremal:4:0"],
    ["demo", "no-such-fixture"]],
    ids=["specialize", "specialize-missing-file", "demo", "demo-alone",
         "demo-unknown-fixture"])
def test_negative_retries_is_invalid_input(argv, capsys):
    # refused up front: before the file is read or the fixture built, and
    # by `demo` without --specialize too
    code = main(argv + ["--retries", "-1"])
    assert code == EXIT_INVALID
    assert capsys.readouterr() == (
        "", "error: the number of retries must be >= 0, got -1\n")


def test_verify_extremal_good_and_bad():
    code, out = run_cli(["verify-extremal", str(DATA / "extremal_4_0.ideal"),
                         "4", "0"])
    assert code == EXIT_OK
    assert "extremal: true" in out
    code, out = run_cli(["verify-extremal", str(DATA / "extremal_bad.ideal"),
                         "4", "0"])
    assert code == EXIT_PIPELINE
    assert "coprimality" in out


def test_rho_tables():
    code, out = run_cli(["rho", "4", "0"])
    assert code == EXIT_OK
    rows = [line.split() for line in out.strip().splitlines()]
    assert rows == [["0", "1"], ["1", "1"], ["2", "1"], ["3", "0"]]
    code, out = run_cli(["rho", "5", "1", "--range=-1..5"])
    assert code == EXIT_OK
    values = [int(line.split()[1]) for line in out.strip().splitlines()]
    assert values == [1, 2, 2, 2, 2, 1, 0]
    code, out = run_cli(["rho", "3", "0"])
    assert values and code == EXIT_OK
    zeros = [int(line.split()[1]) for line in out.strip().splitlines()]
    assert all(v == 0 for v in zeros)


def test_rho_invalid_input():
    code, _ = run_cli(["rho", "4", "2"])
    assert code == EXIT_INVALID
    code, out = run_cli(["rho", "4", "5"])
    assert code == EXIT_INVALID
    assert out == "error: genus 5 exceeds the non-planar maximum 1 for degree 4\n"
    code, out = run_cli(["rho", "1", "0"])
    assert code == EXIT_INVALID
    assert out == "error: the bound requires degree at least 2\n"


def test_rho_reversed_range_is_invalid():
    code, out = run_cli(["rho", "5", "1", "--range=5..1"])
    assert code == EXIT_INVALID
    assert out == "error: range 5..1 is reversed; need lo <= hi\n"
    code, out = run_cli(["rho", "5", "1", "--range=1..1"])
    assert code == EXIT_OK
    assert out.split() == ["1", "2"]


def test_demo_extremal_prints_four_generator_ideal():
    code, out = run_cli(["demo", "extremal:4:0"])
    assert code == EXIT_OK
    assert "x^2" in out and "x*y" in out and "y^4" in out
    assert "y^3*z - x*w^3" in out


def test_demo_extremal_outside_range_is_invalid():
    for name in ("extremal:4:2", "extremal:3:1", "extremal:4:1"):
        code, out = run_cli(["demo", name])
        assert code == EXIT_INVALID
        assert "genus must lie strictly below" in out


def test_demo_unknown_fixture_lists_names():
    code, out = run_cli(["demo", "no-such-curve"])
    assert code == EXIT_INVALID
    assert "twisted-cubic" in out


def test_demo_chained_specialize():
    code, out = run_cli(["demo", "rational-quartic", "--specialize",
                         "--seed", "42"])
    assert code == EXIT_OK
    assert "extremal: true" in out


def test_demo_json_without_specialize_is_invalid(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["demo", "extremal:4:0", "--json", str(path)]) == EXIT_INVALID
    assert capsys.readouterr() == (
        "", "error: --json needs --specialize, whose certificate it writes\n")
    assert not path.exists()


def test_demo_roundtrip_reparses_to_same_ideal():
    gf = PrimeField()
    ring = curve_ring(gf)
    for name in ("twisted-cubic", "rational-quartic", "elliptic-quartic",
                 "quintic-g2", "extremal:4:0"):
        code, out = run_cli(["demo", name])
        assert code == EXIT_OK
        lines = [line.strip() for line in out.splitlines()]
        start = lines.index("generators:") + 1
        gens = []
        for line in lines[start:]:
            if not line or ":" in line:
                break
            gens.append(parse_polynomial(ring, line))
        reparsed = IdealBasis(ring, gens)
        assert ideal_equal(reparsed, fixture(name, gf).ideal)


@pytest.mark.parametrize("name", ["golden_quartic_seed42.json",
                                  "golden_quintic_seed42.json"])
def test_json_schema_golden(tmp_path, name):
    source = {"golden_quartic_seed42.json": "rational_quartic.ideal",
              "golden_quintic_seed42.json": "quintic_g2.ideal"}[name]
    out_json = tmp_path / "fresh.json"
    code, _ = run_cli(["specialize", str(DATA / source), "--seed", "42",
                       "--json", str(out_json)])
    assert code == EXIT_OK
    fresh = json.loads(out_json.read_text(encoding="utf-8"))
    golden = json.loads((DATA / name).read_text(encoding="utf-8"))
    assert fresh == golden


def test_char_zero_flag():
    code, out = run_cli(["specialize", str(DATA / "rational_quartic.ideal"),
                         "--seed", "42", "--char", "0"])
    assert code == EXIT_OK
    assert "extremal: true" in out


def test_probe_subcommand():
    code, out = run_cli(["probe", str(DATA / "extremal_4_0.ideal")])
    assert code == EXIT_OK
    assert "deg Z = 3" in out


def test_probe_line_has_empty_residual(tmp_path):
    line = tmp_path / "line.ideal"
    line.write_text("generators:\n  x\n  y\n")
    code, out = run_cli(["probe", str(line)])
    assert code == EXIT_OK
    assert out == "double plane: yes\ndeg Z = 0 (expected 0)\n"


def test_cli_transcript_matches_record(monkeypatch):
    """Each command in cli_transcript.json, written by
    record_cli_transcript.py, gives the recorded exit code, stdout and
    stderr byte for byte."""
    monkeypatch.chdir(DATA.parent.parent)
    records = json.loads((DATA / "cli_transcript.json").read_text(
        encoding="utf-8"))
    for rec in records:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(rec["args"])
        assert (code, out.getvalue(), err.getvalue()) == (
            rec["exit"], rec["stdout"], rec["stderr"]), rec["args"]


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "extremalcurves.cli", "rho", "4", "0"],
        capture_output=True, text=True)
    assert result.returncode == EXIT_OK
    assert "1" in result.stdout


def test_readme_synopsis_lists_each_subcommands_options():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    documented = {}
    for line in block.splitlines():
        words = line.split("#", 1)[0].split()
        assert words[0] == "extremalcurves", line
        documented[words[1]] = set(re.findall(r"--[\w-]+", line))
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    defined = {name: {opt for action in sub._actions
                      for opt in action.option_strings
                      if opt.startswith("--") and opt != "--help"}
               for name, sub in subparsers.choices.items()}
    assert documented == defined
