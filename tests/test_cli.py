"""Command line interface: formats, determinism, exit codes."""

import csv
import io
import json
import math

import pytest

from solvgeom.cli import SWEEP_COLUMNS, main

HEADER = (
    "alpha,mean_curvature,cheeger,ricci_min,ricci_max,k_sigma,"
    "regime,minimal,einstein,horosphere_range,cross_residual"
)


def run_cli(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestSweep:
    def test_header_exact(self, capsys):
        rc, out, _ = run_cli(capsys, "sweep", "--steps", "1", "--samples", "5")
        assert rc == 0
        assert out.splitlines()[0] == HEADER
        assert ",".join(SWEEP_COLUMNS) == HEADER

    def test_row_count_and_parse(self, capsys):
        rc, out, _ = run_cli(capsys, "sweep", "--steps", "5", "--samples", "5")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        assert float(rows[0]["alpha"]) == 0.0
        assert float(rows[-1]["alpha"]) == pytest.approx(math.pi / 2, abs=1e-11)
        assert rows[0]["minimal"] == "true"
        assert rows[0]["einstein"] == "true"
        assert rows[-1]["regime"] == "MixedRicci"
        assert rows[-1]["horosphere_range"] == "true"
        assert float(rows[-1]["mean_curvature"]) == pytest.approx(-4.0, abs=1e-11)

    def test_single_step_uses_start(self, capsys):
        rc, out, _ = run_cli(
            capsys, "sweep", "--steps", "1", "--alpha-start", "0.7", "--samples", "5"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["alpha"]) == pytest.approx(0.7, abs=1e-12)

    def test_degrees_flag(self, capsys):
        rc, out, _ = run_cli(
            capsys, "sweep", "--alpha-start", "0", "--alpha-end", "90",
            "--steps", "2", "--degrees", "--samples", "5",
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rc == 0
        assert float(rows[1]["alpha"]) == pytest.approx(math.pi / 2, abs=1e-11)

    def test_json_format_parses(self, capsys):
        rc, out, _ = run_cli(
            capsys, "sweep", "--steps", "3", "--samples", "5", "--format", "json"
        )
        assert rc == 0
        doc = json.loads(out)
        assert len(doc) == 3
        assert list(doc[0]) == list(SWEEP_COLUMNS)
        assert doc[0]["minimal"] is True

    def test_deterministic_output(self, capsys):
        args = ("sweep", "--steps", "4", "--samples", "40", "--seed", "7")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        rc, out, _ = run_cli(capsys, "sweep", "--steps", "2", "--samples", "5")
        rc2, _, _ = run_cli(
            capsys, "sweep", "--steps", "2", "--samples", "5", "--output", str(path)
        )
        assert rc == rc2 == 0
        assert path.read_text() == out

    def test_residual_threshold_exit_code(self, capsys):
        rc, _, _ = run_cli(
            capsys, "sweep", "--steps", "2", "--samples", "20", "--tol", "1e-30"
        )
        assert rc == 1

    def test_bad_steps(self, capsys):
        rc, _, err = run_cli(capsys, "sweep", "--steps", "0")
        assert rc == 2
        assert "steps" in err

    def test_bad_alpha(self, capsys):
        rc, _, err = run_cli(capsys, "sweep", "--alpha-end", "3.5", "--steps", "2")
        assert rc == 2
        assert "alpha" in err


class TestVerify:
    def test_passes_at_zero(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--samples", "50")
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out
        assert "Heber" in out
        assert "Damek-Ricci" in out

    def test_passes_mid_range(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--alpha", "1.0", "--samples", "50")
        assert rc == 0

    def test_json_format(self, capsys):
        rc, out, _ = run_cli(
            capsys, "verify", "--samples", "50", "--format", "json"
        )
        doc = json.loads(out)
        assert rc == 0
        assert doc["passed"] is True
        assert all(chk["passed"] for chk in doc["checks"])

    def test_unreachable_tolerance_fails(self, capsys):
        rc, out, _ = run_cli(
            capsys, "verify", "--samples", "50", "--tol", "1e-30"
        )
        assert rc == 1
        assert "FAIL" in out


class TestFoliation:
    def test_volume_preserving_at_zero(self, capsys):
        rc, out, _ = run_cli(
            capsys, "foliation", "--x", "1", "--alpha", "0", "--s", "1"
        )
        doc = json.loads(out)
        assert rc == 0
        assert doc["volume_distortion"] == 1.0
        assert doc["matrix_identity_residual"] <= 1e-12
        assert doc["leaf_conjugate"]["x"]["re"] == pytest.approx(
            math.exp(math.sqrt(3.0) / 2.0), abs=1e-12
        )

    def test_volume_at_right_angle(self, capsys):
        rc, out, _ = run_cli(
            capsys, "foliation", "--alpha", "1.5707963267948966", "--s", "1"
        )
        doc = json.loads(out)
        assert doc["volume_distortion"] == pytest.approx(math.exp(-4.0), rel=1e-12)

    def test_zero_time_is_identity(self, capsys):
        rc, out, _ = run_cli(
            capsys, "foliation", "--x", "1+2j", "--y", "3j", "--t", "0.4",
            "--alpha", "0.9", "--s", "0",
        )
        doc = json.loads(out)
        assert doc["flow_point"] == {**doc["point"], "s": 0.0}
        assert doc["leaf_conjugate"] == doc["point"]
        assert doc["matrix_identity_residual"] == 0.0

    def test_complex_coordinates_parsed(self, capsys):
        rc, out, _ = run_cli(
            capsys, "foliation", "--x", "1+2j", "--alpha", "0.5", "--s", "0.3"
        )
        doc = json.loads(out)
        assert rc == 0
        assert doc["point"]["x"] == {"re": 1.0, "im": 2.0}

    def test_bad_complex_rejected(self, capsys):
        rc, _, _ = run_cli(capsys, "foliation", "--x", "banana")
        assert rc == 2

    def test_bad_alpha_rejected(self, capsys):
        rc, _, err = run_cli(capsys, "foliation", "--alpha", "2.0")
        assert rc == 2
        assert "alpha" in err


class TestAlgebra:
    def test_cheeger_from_bundled_file(self, capsys, algebra_files):
        rc, out, _ = run_cli(
            capsys, "algebra", "cheeger", "--file", str(algebra_files["s7_alpha0"])
        )
        doc = json.loads(out)
        assert rc == 0
        assert doc["cheeger"] == pytest.approx(4.0, abs=1e-10)

    def test_einstein_from_bundled_file(self, capsys, algebra_files):
        rc, out, _ = run_cli(
            capsys, "algebra", "einstein", "--file", str(algebra_files["s8"])
        )
        doc = json.loads(out)
        assert rc == 0
        assert doc["einstein"] is True
        assert doc["constant"] == pytest.approx(-3.0, abs=1e-9)

    def test_ricci_vector(self, capsys):
        rc, out, _ = run_cli(
            capsys, "algebra", "ricci", "--alpha", "0",
            "--vector", "0,0,0,0,0,0,1",
        )
        doc = json.loads(out)
        assert rc == 0
        assert doc["ricci"] == pytest.approx(-3.0, abs=1e-10)

    def test_ricci_requires_vector(self, capsys):
        rc, _, err = run_cli(capsys, "algebra", "ricci")
        assert rc == 2
        assert "--vector" in err

    def test_dr_check_failure_still_exits_zero(self, capsys):
        rc, out, _ = run_cli(
            capsys, "algebra", "dr-check", "--alpha", "0.3",
            "--v-indices", "0,1,2,3", "--z-indices", "4,5", "--a-index", "6",
        )
        doc = json.loads(out)
        assert rc == 0
        assert doc["overall"] is False
        assert doc["axiom_5"]["passed"] is False
        assert doc["is_two_step_nilpotent"] is True

    def test_dr_check_passes_at_zero(self, capsys):
        rc, out, _ = run_cli(
            capsys, "algebra", "dr-check", "--alpha", "0",
            "--v-indices", "0,1,2,3", "--z-indices", "4,5", "--a-index", "6",
        )
        doc = json.loads(out)
        assert rc == 0
        assert doc["overall"] is True

    def test_dr_check_requires_partition_flags(self, capsys):
        rc, _, err = run_cli(capsys, "algebra", "dr-check")
        assert rc == 2
        assert "dr-check" in err

    def test_dump_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "ambient.json"
        rc, _, _ = run_cli(
            capsys, "algebra", "dump", "--ambient", "--output", str(path)
        )
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["dim"] == 8
        rc, out, _ = run_cli(capsys, "algebra", "einstein", "--file", str(path))
        assert rc == 0
        assert json.loads(out)["constant"] == pytest.approx(-3.0, abs=1e-9)

    def test_invalid_file_names_invariant(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "dim": 3,
            "gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "structure": [[0, 1, 0, 1.0], [0, 2, 1, 1.0]],
        }))
        rc, _, err = run_cli(capsys, "algebra", "cheeger", "--file", str(bad))
        assert rc == 2
        assert "Jacobi identity violated" in err

    def test_non_finite_file_rejected(self, capsys, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"dim": 2, "gram": [[1, 0], [0, 1]], "structure": [[0, 1, 1, NaN]]}')
        rc, out, err = run_cli(capsys, "algebra", "cheeger", "--file", str(bad))
        assert rc == 2
        assert out == ""
        assert "not all finite" in err

    def test_missing_file(self, capsys, tmp_path):
        missing = tmp_path / "absent.json"
        rc, out, err = run_cli(capsys, "algebra", "cheeger", "--file", str(missing))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "absent.json" in err

    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "no_such_dir" / "out.csv"
        rc, out, err = run_cli(
            capsys, "sweep", "--steps", "1", "--samples", "5", "--output", str(target)
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "out.csv" in err

    def test_bad_vector_string(self, capsys):
        rc, _, err = run_cli(
            capsys, "algebra", "ricci", "--alpha", "0", "--vector", "1,two,3"
        )
        assert rc == 2
        assert "comma-separated" in err


class TestTopLevel:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_no_color_env_is_irrelevant(self, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        rc, out, _ = run_cli(capsys, "sweep", "--steps", "1", "--samples", "5")
        monkeypatch.delenv("NO_COLOR")
        rc2, out2, _ = run_cli(capsys, "sweep", "--steps", "1", "--samples", "5")
        assert rc == rc2 == 0
        assert out == out2
        assert "\x1b[" not in out
