import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from extremalcurves import PrimeField, fixture, ideal_equal, parse_polynomial
from extremalcurves.cli import (EXIT_BOUNDARY, EXIT_INVALID, EXIT_OK,
                                EXIT_PIPELINE, main)
from extremalcurves.curves import curve_ring
from extremalcurves.groebner import IdealBasis

DATA = Path(__file__).parent / "data"


def run_cli(args):
    out = io.StringIO()
    import contextlib
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


def test_specialize_boundary_exit_code():
    code, out = run_cli(["specialize", str(DATA / "twisted_cubic.ideal")])
    assert code == EXIT_BOUNDARY
    assert "ACM-boundary" in out


def test_specialize_retry_exhaustion_exit_code():
    code, out = run_cli(["specialize", str(DATA / "rational_quartic.ideal"),
                         "--seed", "42", "--retries", "0"])
    assert code == EXIT_PIPELINE
    assert "disjointness" in out


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


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "extremalcurves.cli", "rho", "4", "0"],
        capture_output=True, text=True)
    assert result.returncode == EXIT_OK
    assert "1" in result.stdout
