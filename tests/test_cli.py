"""Command line interface: formats, determinism, exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from solvgeom import cli, hypersurface
from solvgeom.cli import SWEEP_COLUMNS, main
from solvgeom.engine import MetricLieAlgebra, dump_algebra_json
from solvgeom.hypersurface import (
    CurvatureReport,
    HypersurfaceModel,
    _gauss_family,
    _model_at,
    ambient_algebra,
    build_hypersurface_algebra,
    classify,
    foliation_residual_many,
    nonpositivity_scan,
    random_unit_tangents,
    zero_curvature_search,
)

SRC = Path(__file__).resolve().parents[1] / "src"

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

    def test_columns_are_the_report_fields(self):
        # one definition: the report's fields, in order, are the sweep columns and row keys
        row = classify(0.3, samples=3).as_row()
        assert list(row) == list(SWEEP_COLUMNS) == [f.name for f in fields(CurvatureReport)]
        assert isinstance(row["regime"], str)

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

    def test_rows_are_the_classify_reports(self, capsys):
        # the sweep draws its sample once; every angle reads the draws
        # classify makes from the same seed
        rc, out, _ = run_cli(capsys, "sweep", "--steps", "4", "--samples", "30",
                             "--seed", "5", "--format", "json")
        rows = json.loads(out)
        assert rc == 0 and len(rows) == 4
        for row in rows:
            assert row == classify(row["alpha"], samples=30, seed=5).as_row()

    def test_minimal_leaf_row(self, capsys):
        # the alpha = 0 leaf: H is exactly 0, and it is minimal and Einstein
        rc, out, _ = run_cli(capsys, "sweep", "--steps", "1", "--samples", "0")
        [row] = csv.DictReader(io.StringIO(out))
        assert rc == 0
        assert (row["mean_curvature"], row["minimal"], row["einstein"]) == ("0", "true", "true")

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

    def test_failed_tolerance_names_worst_angle(self, capsys):
        args = ("sweep", "--steps", "5", "--samples", "50", "--format", "json")
        rc_pass, out_pass, err_pass = run_cli(capsys, *args)
        rc, out, err = run_cli(capsys, *args, "--tol", "0")
        assert (rc_pass, rc) == (0, 1)
        assert out == out_pass and err_pass == ""
        worst = max(json.loads(out), key=lambda row: row["cross_residual"])
        assert worst["cross_residual"] > 0.0
        assert err == (
            f"sweep: FAIL: cross_residual {worst['cross_residual']:.3e} "
            f"at alpha {worst['alpha']!r} exceeds --tol 0\n"
        )

    def test_bad_steps(self, capsys):
        rc, out, err = run_cli(capsys, "sweep", "--steps", "0")
        assert (rc, out, err) == (2, "", "error: --steps must be at least 1, got 0\n")

    def test_steps_above_the_limit_rejected_before_classifying(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("an angle was classified or a sample drawn")

        monkeypatch.setattr(cli, "_report", never)
        monkeypatch.setattr(cli, "random_unit_tangents", never)
        monkeypatch.setattr(np, "linspace", never)
        rc, out, err = run_cli(capsys, "sweep", "--steps", "1000000000000")
        assert (rc, out, err) == (
            2, "", "error: --steps must be at most 100000, got 1000000000000\n")
        assert cli.MAX_STEPS == 10**5

    def test_steps_at_the_limit_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_STEPS", 3)
        rc, out, _ = run_cli(capsys, "sweep", "--steps", "3", "--samples", "2")
        assert rc == 0 and len(out.splitlines()) == 4
        assert run_cli(capsys, "sweep", "--steps", "4", "--samples", "2") == (
            2, "", "error: --steps must be at most 3, got 4\n")

    def test_bad_alpha(self, capsys):
        rc, _, err = run_cli(capsys, "sweep", "--alpha-end", "3.5", "--steps", "2")
        assert rc == 2
        assert "alpha" in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--alpha-end", "inf"), "--alpha-end must lie in [0, pi/2], got inf"),
            (("--alpha-end=-inf",), "--alpha-end must lie in [0, pi/2], got -inf"),
            (("--alpha-start", "nan"), "--alpha-start must lie in [0, pi/2], got nan"),
            (("--alpha-end", "3.5"), "--alpha-end must lie in [0, pi/2], got 3.5"),
            (("--alpha-end", "100", "--degrees"),
             "--alpha-end must lie in [0, 90] degrees, got 100.0"),
        ],
    )
    def test_bad_endpoint_is_named_as_given(self, capsys, args, message):
        rc, out, err = run_cli(capsys, "sweep", "--steps", "3", "--samples", "2", *args)
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("end", ["5", "nan"])
    def test_one_step_sweep_still_checks_the_end(self, capsys, end):
        # one step evaluates --alpha-start alone, but a bad --alpha-end is still refused
        rc, out, err = run_cli(capsys, "sweep", "--steps", "1", "--samples", "2",
                               "--alpha-end", end)
        assert (rc, out, err) == (
            2, "", f"error: --alpha-end must lie in [0, pi/2], got {float(end)!r}\n")

    def test_negative_samples_rejected(self, capsys):
        rc, out, err = run_cli(capsys, "sweep", "--samples", "-1", "--steps", "2")
        assert (rc, out, err) == (2, "", "error: --samples must be nonnegative, got -1\n")


TOL_ARGV = {
    "sweep": ("sweep", "--steps", "2", "--samples", "2"),
    "verify": ("verify", "--samples", "5"),
    "algebra dr-check": ("algebra", "dr-check", "--alpha", "0", "--v-indices", "0,1,2,3",
                         "--z-indices", "4,5", "--a-index", "6"),
    "algebra einstein": ("algebra", "einstein", "--ambient"),
}


@pytest.mark.parametrize("command", [("verify",), ("foliation",), ("algebra", "cheeger")],
                         ids=["verify", "foliation", "algebra"])
def test_alpha_in_degrees_is_named_as_given(capsys, command):
    rc, out, err = run_cli(capsys, *command, "--degrees", "--alpha", "100")
    assert (rc, out, err) == (2, "", "error: --alpha must lie in [0, 90] degrees, got 100.0\n")


class TestTolerance:
    """--tol must be a finite, nonnegative number on every subcommand that reads it."""

    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf", "-0.5e-8", "abc"])
    @pytest.mark.parametrize("command", sorted(TOL_ARGV))
    def test_bad_tol_exits_2_naming_the_flag(self, capsys, command, value):
        rc, out, err = run_cli(capsys, *TOL_ARGV[command], f"--tol={value}")
        assert (rc, out) == (2, "")
        assert "argument --tol:" in err and repr(value) in err

    @pytest.mark.parametrize("command", ["algebra dr-check"])
    def test_zero_tol_is_valid(self, capsys, command):
        rc, out, _ = run_cli(capsys, *TOL_ARGV[command], "--tol", "0")
        assert rc == 0 and json.loads(out)

    def test_zero_tol_rejected_by_einstein_naming_the_flag(self, capsys):
        rc, out, err = run_cli(capsys, *TOL_ARGV["algebra einstein"], "--tol", "0")
        assert (rc, out, err) == (
            2, "", "error: --tol must be positive for op 'einstein', got 0.0\n")

    def test_zero_tol_rejected_by_einstein_before_loading(self, capsys, tmp_path):
        truncated = tmp_path / "truncated.json"
        truncated.write_text('{"dim": 2, "gram": [[1, 0], [0, 1]], "struc')
        rc, out, err = run_cli(capsys, "algebra", "einstein", "--file", str(truncated),
                               "--tol", "0")
        assert (rc, out, err) == (
            2, "", "error: --tol must be positive for op 'einstein', got 0.0\n")

    @pytest.mark.parametrize("value", ["5", "0", "1e-8"])
    @pytest.mark.parametrize("op, own", [("ricci", ("--vector", "1,0,0,0,0,0,0")),
                                         ("cheeger", ()), ("dump", ())],
                             ids=["ricci", "cheeger", "dump"])
    def test_tol_refused_before_building_by_ops_that_do_not_read_it(self, capsys, monkeypatch,
                                                                     op, own, value):
        def never(*args, **kwargs):
            raise AssertionError("algebra built")

        monkeypatch.setattr(cli, "build_hypersurface_algebra", never)
        rc, out, err = run_cli(capsys, "algebra", op, "--alpha", "0.3", *own, "--tol", value)
        assert (rc, out, err) == (2, "", "error: --tol is read only by ops 'einstein' and "
                                         f"'dr-check', not by '{op}'\n")


class TestCellFormatting:
    """A numpy scalar is written as the Python scalar of its kind."""

    @pytest.mark.parametrize("value, csv_text, json_text", [
        (True, "true", "true"),
        (np.True_, "true", "true"),
        (np.False_, "false", "false"),
        (1.0 / 3.0, "0.333333333333", "0.33333333333333331"),
        (np.float64(1.0 / 3.0), "0.333333333333", "0.33333333333333331"),
        (np.float32(0.1), "0.10000000149", "0.10000000149011612"),
        (np.float16(-2.5), "-2.5", "-2.5"),
    ])
    def test_numpy_scalars(self, value, csv_text, json_text):
        assert cli._csv_cell(value) == csv_text
        assert cli._json_text(value) == json_text


class TestSamplingOptions:
    """--samples, --seed and --tol exist only on the subcommands that read them."""

    DR_CHECK = TOL_ARGV["algebra dr-check"]

    @pytest.mark.parametrize("argv", [
        ("foliation", "--samples", "5"),
        ("foliation", "--seed", "9"),
        (*DR_CHECK, "--samples", "-5"),
        (*DR_CHECK, "--seed", "9"),
        ("algebra", "einstein", "--ambient", "--samples", "5"),
        ("foliation", "--tol", "0"),
    ])
    def test_unread_option_is_a_usage_error(self, capsys, argv):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, "")
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in err

    @pytest.mark.parametrize("argv", [("sweep", "--steps", "2"), ("verify",)],
                             ids=["sweep", "verify"])
    def test_samples_above_the_limit_rejected_before_drawing(self, capsys, monkeypatch, argv):
        def never(*args, **kwargs):
            raise AssertionError("samples drawn")

        monkeypatch.setattr(cli, "random_unit_tangents", never)
        monkeypatch.setattr(hypersurface, "random_unit_tangents", never)
        monkeypatch.setattr(np.random, "default_rng", never)  # verify draws group points
        rc, out, err = run_cli(capsys, *argv, "--samples", "1000000000")
        assert (rc, out, err) == (
            2, "", "error: --samples must be at most 1000000, got 1000000000\n")
        assert cli.MAX_SAMPLES == 10**6

    @pytest.mark.parametrize("argv", [("sweep", "--steps", "1"), ("verify",)],
                             ids=["sweep", "verify"])
    def test_samples_at_the_limit_accepted(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "MAX_SAMPLES", 7)
        assert run_cli(capsys, *argv, "--samples", "7")[0] == 0
        assert run_cli(capsys, *argv, "--samples", "8") == (
            2, "", "error: --samples must be at most 7, got 8\n")

    @pytest.mark.parametrize("value, message", [("-1", "must be nonnegative, got '-1'"),
                                                ("1.5", "expected an integer, got '1.5'")],
                             ids=["negative", "not-an-integer"])
    @pytest.mark.parametrize("argv", [("sweep",), ("verify",)], ids=["sweep", "verify"])
    def test_bad_seed_names_the_flag(self, capsys, argv, value, message):
        subparser = cli._build_parser()._subparsers._group_actions[0].choices[argv[0]]
        rc, out, err = run_cli(capsys, *argv, "--seed", value)
        assert (rc, out, err) == (2, "", subparser.format_usage()
                                  + f"{subparser.prog}: error: argument --seed: {message}\n")


class TestVerify:
    def test_negative_samples_rejected(self, capsys):
        rc, out, err = run_cli(capsys, "verify", "--samples", "-4")
        assert (rc, out, err) == (2, "", "error: --samples must be nonnegative, got -4\n")

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

    def test_ricci_check_reads_the_koszul_engine(self, capsys, monkeypatch):
        # Ric(H, H) of the axis: its eigenvalue -3 lies strictly inside the spectrum,
        # so the Ricci extremes row cannot see it, but the whole-form row does
        form = vars(MetricLieAlgebra)["_ricci_form"].func

        def perturbed(alg):
            ric = form(alg).copy()
            ric[6, 6] += 1e-6
            return ric

        monkeypatch.setattr(MetricLieAlgebra, "_ricci_form", property(perturbed))
        rc, out, _ = run_cli(capsys, "verify", "--alpha", "0.7", "--samples", "50")
        lines = out.splitlines()
        assert rc == 1
        assert len(lines) == 13
        assert lines[2].startswith("Gauss vs Koszul Ricci: FAIL (residual 1.000e-06)")
        assert sum("FAIL" in line for line in lines[:12]) == 1


class TestVerifySampledRows:
    """The one sampled row, the foliation identity, names its worst sample on stderr."""

    def test_stderr_names_the_worst_sample(self, capsys):
        alpha, samples, seed = 0.4, 60, 3
        rc, _, err = run_cli(capsys, "verify", "--alpha", repr(alpha), "--samples",
                             str(samples), "--seed", str(seed), "--tol", "1e-30")
        assert rc == 1
        # the same draws, one sample at a time
        fol = []
        for coords in np.random.default_rng(seed).standard_normal((samples // 10, 8)):
            xyz = [complex(coords[0], coords[1]), complex(coords[2], coords[3]),
                   complex(coords[4], coords[5])]
            fol.append(foliation_residual_many(alpha, [xyz], coords[6], float(coords[7]))[0])
        worst = int(np.argmax(fol))
        assert fol[worst] > 0.0
        assert (
            f"verify: FAIL: foliation matrix identity at alpha {alpha!r}: residual "
            f"{fol[worst]:.3e} at sample {worst} exceeds --tol 1e-30\n"
        ) in err


class TestVerifyMutations:
    """One entry of a tensor or a Ricci form perturbed by 1e-6: the row comparing
    it fails, the exit code is 1, and stderr names the row and the entry."""

    ENTRY = (1, 2, 3, 4)

    @pytest.mark.parametrize(
        "source, row, label",
        [
            ("tensor", 3, "Gauss vs Koszul sectional"),
            ("ricci", 2, "Gauss vs Koszul Ricci"),
            (7, 1, "curvature tensor symmetries"),
            (8, 4, "ambient bracket vs Koszul curvature"),
        ],
    )
    def test_row_fails_and_names_the_entry(self, capsys, monkeypatch, source, row, label):
        entry = self.ENTRY
        if isinstance(source, str):
            # a Gauss family array, in its constant monomial: 1e-6 at every alpha
            family = _gauss_family()
            array = getattr(family, source).copy()
            entry = entry[:array.ndim - 1]
            array[(0, *entry)] += 1e-6
            monkeypatch.setattr(cli, "_gauss_family",
                                lambda: family._replace(**{source: array}))
        else:
            compute = vars(MetricLieAlgebra)["_riemann"].func

            def perturbed(alg):
                t = compute(alg).copy()
                if alg.dim == source:
                    t[entry] += 1e-6
                return t

            monkeypatch.setattr(MetricLieAlgebra, "_riemann", property(perturbed))
        rc, out, err = run_cli(capsys, "verify", "--alpha", "0.7", "--samples", "50")
        lines = out.splitlines()
        assert rc == 1
        assert len(lines) == 13 and lines[-1] == "some checks FAILED"
        assert lines[row].startswith(f"{label}: FAIL (residual 1.000e-06)")
        assert (
            f"verify: FAIL: {label} at alpha 0.7: residual 1.000e-06 at entry "
            f"{entry} exceeds --tol 1e-08\n"
        ) in err

    def test_stderr_names_every_failing_row(self, capsys):
        rc, out, err = run_cli(capsys, "verify", "--alpha", "0.4", "--samples", "20")
        rc2, out2, err2 = run_cli(
            capsys, "verify", "--alpha", "0.4", "--samples", "20", "--tol", "1e-30"
        )
        assert (rc, rc2, err) == (0, 1, "")
        assert [line.rpartition(": ")[0] for line in out.splitlines()[:12]] == [
            line.rpartition(": ")[0] for line in out2.splitlines()[:12]
        ]
        failed = [line for line in out2.splitlines()[:12] if "FAIL" in line]
        assert len(err2.splitlines()) == len(failed)
        assert "at entry (" in err2


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(("--x", "1", "--s", "10000", "--alpha", "0.5"),
                         "flow time s = 10000.0 overflows the float range", id="10000"),
            pytest.param(("--x", "1", "--s", "-10000", "--alpha", "0.5"),
                         "flow time s = -10000.0 overflows the float range", id="-10000"),
            # only the volume factor exp(-4 s sin alpha) overflows
            pytest.param(("--x", "1", "--s", "-200", "--alpha", "1.5"),
                         "flow time s = -200.0 overflows the float range", id="-200"),
            # past pi/3 only exp(s T) overflows, not the leaf conjugation
            pytest.param(("--x", "1", "--s", "2000", "--alpha", "1.5"),
                         "flow time s = 2000.0 overflows the float range", id="identity-s2000"),
            # the point's own diagonal exp(t H) overflows, with or without a flow
            pytest.param(("--t", "2000", "--s", "0"),
                         "the point at t = 2000.0, s = 0.0 overflows the float range",
                         id="t2000-s0"),
            pytest.param(("--x", "1", "--t", "2000", "--s", "1"),
                         "the point at t = 2000.0, s = 0.0 overflows the float range",
                         id="x1-t2000-s1"),
            # the unipotent entries overflow under a short flow
            pytest.param(("--x", "1e308", "--s", "1", "--alpha", "0"),
                         "coordinate x overflows the float range at flow time s = 1.0",
                         id="x1e308-s1"),
        ],
    )
    def test_overflowing_flow_time_exits_2(self, capsys, argv, message):
        rc, out, err = run_cli(capsys, "foliation", *argv)
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (("--s", "nan"), "--s must be finite, got nan"),
        (("--t", "nan"), "--t must be finite, got nan"),
        (("--x", "nan"), "--x must be finite, got (nan+0j)"),
        (("--s", "inf"), "--s must be finite, got inf"),
        (("--y", "inf"), "--y must be finite, got (inf+0j)"),
        (("--z", "1+infj", "--s", "1"), "--z must be finite, got (1+infj)"),
    ], ids=["s-nan", "t-nan", "x-nan", "s-inf", "y-inf", "z-inf"])
    def test_non_finite_argument_named(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any computation
            rc, out, err = run_cli(capsys, "foliation", *argv)
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, rc, expected", [
        (("--x", "1+2j", "--y", "3j", "--t", "0.5", "--alpha", "0.9", "--s", "1"), 0,
         ["foliation_residual_many", "_conjugates", "cli._conjugates"]),
        (("--x", "1", "--t", "2000", "--s", "1"), 2, ["foliation_residual_many"]),
    ], ids=["valid", "t-overflows"])
    def test_one_evaluation_per_call(self, capsys, monkeypatch, argv, rc, expected):
        # the residual kernel runs once, and the conjugation once in it and once for
        # the printed leaf conjugate
        calls = []
        for module, name, label in [(cli, "foliation_residual_many", "foliation_residual_many"),
                                    (hypersurface, "_conjugates", "_conjugates"),
                                    (cli, "_conjugates", "cli._conjugates")]:
            def counted(*args, _real=getattr(module, name), _name=label, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        assert (run_cli(capsys, "foliation", *argv)[0], calls) == (rc, expected)

    def test_builds_no_model(self, capsys, monkeypatch):
        # the flow reads the diagonals of H0 and H1: no model, and no memo entry
        def no_model(self):
            raise AssertionError("a HypersurfaceModel was built")

        _model_at.cache_clear()
        monkeypatch.setattr(HypersurfaceModel, "__post_init__", no_model)
        rc, out, err = run_cli(capsys, "foliation", "--x", "1+2j", "--t", "0.5", "--alpha", "0.9")
        assert (rc, err, _model_at.cache_info().currsize) == (0, "", 0)
        assert json.loads(out)["volume_distortion"] > 0.0

    def test_long_flow_residual_is_relative(self, capsys):
        rc, out, _ = run_cli(capsys, "foliation", "--x", "1", "--s", "1000", "--alpha", "0.5")
        assert rc == 0
        assert json.loads(out)["matrix_identity_residual"] <= 1e-12


# Positive definite in exact arithmetic, singular to working precision.
RANK_ONE_GRAM_DOC = {"dim": 2, "gram": [[1e205, 3e205], [3e205, 9e205]],
                     "structure": [[0, 1, 0, 1.0]]}
RANK_ONE_BLOCK_GRAM_DOC = {
    "dim": 4, "gram": [[1e205, 3e205, 1, 0], [3e205, 9e205, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]],
    "structure": [[0, 1, 0, 1.0]],
}
# A valid algebra whose Koszul products exceed the float range.
HUGE_GRAM_DOC = {"dim": 2, "gram": [[1.7976931348623157e308, -6.6e15],
                                    [-6.6e15, 1.7976931348623157e308]],
                 "structure": [[0, 1, 0, -6.6e15]]}


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
        assert out == run_cli(capsys, "algebra", "einstein", "--ambient")[1]

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

    def test_non_integer_dim_rejected(self, capsys, tmp_path):
        bad = tmp_path / "dim.json"
        bad.write_text('{"dim": 2.7, "gram": [[1, 0], [0, 1]], "structure": []}')
        rc, out, err = run_cli(capsys, "algebra", "cheeger", "--file", str(bad))
        assert rc == 2
        assert out == ""
        assert "'dim'" in err

    @pytest.mark.parametrize("content, message", [
        (b'{"dim": 2, "gram": [[1,0],[0,1]], ',
         "is not valid JSON: Expecting property name enclosed in double quotes: "
         "line 1 column 35 (char 34)"),
        (b'{"dim": 2, "gram": [[1,0],[0,1]], "structure": [[0, 1, 1, 1' + b"0" * 5000 + b"]]}",
         "holds an integer with too many digits to read"),
        (b'\xff{"dim": 2}', "is not UTF-8 text (invalid start byte at byte 0)"),
        (b"[" * 100000 + b"]" * 100000, "is nested too deeply to read"),
    ], ids=["truncated", "5000-digits", "not-utf8", "deep"])
    def test_unreadable_file_is_named(self, capsys, tmp_path, content, message):
        doc = tmp_path / "doc.json"
        doc.write_bytes(content)
        rc, out, err = run_cli(capsys, "algebra", "einstein", "--file", str(doc))
        assert (rc, out, err) == (2, "", f"error: {str(doc)!r} {message}\n")

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

    @pytest.mark.parametrize("vector, message", [
        ("nan,0,0,0,0,0,0,0", "--vector must be finite, got 'nan,0,0,0,0,0,0,0'"),
        ("0,-inf,0,0,0,0,0,0", "--vector must be finite, got '0,-inf,0,0,0,0,0,0'"),
        ("1e200,0,0,0,0,0,0,0", "--vector '1e200,0,0,0,0,0,0,0' overflows the Ricci form"),
    ], ids=["nan", "inf", "overflow"])
    def test_non_finite_ricci_vector_named(self, capsys, vector, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(capsys, "algebra", "ricci", "--ambient", f"--vector={vector}")
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("text, message", [
        ('{"dim": 2, "gram": [[1, 0], [0, 1]], "structure": [[0, 1, 1, 1%s]]}' % ("0" * 400),
         "structure value is an integer too large for a float, got [0, 1, 1, 1%s]" % ("0" * 400)),
        ('{"dim": 2, "gram": [[1%s, 0], [0, 1]], "structure": []}' % ("0" * 400),
         "an integer in 'gram' is too large for a float"),
        ('{"dim": 2, "gram": [[1, 0], [0, 1]], "structure": [[0, true, 1, 1]]}',
         "structure indices must be integers, got [0, True, 1, 1]"),
        ('{"dim": 2, "gram": [["1","0"],["0","1"]], "structure": [[0,1,1,1.0]]}',
         "'gram' must be a 2*2 matrix of numbers"),
        ('{"dim": 2, "gram": [[true,0],[0,1]], "structure": [[0,1,1,1.0]]}',
         "'gram' must be a 2*2 matrix of numbers"),
    ], ids=["huge-structure-value", "huge-gram-entry", "bool-index", "string-gram",
            "bool-gram"])
    def test_bad_json_number_named(self, capsys, tmp_path, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(capsys, "algebra", "einstein", "--file", str(bad))
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("source, vector", [
        (("--alpha", "0"), "1,2"), (("--alpha", "0.3"), "1,0,0,0,0,0,0,0"),
        (("--ambient",), "1,0,0,0,0,0,0"),
    ], ids=["short", "long", "ambient-short"])
    def test_ricci_vector_of_the_wrong_length_names_the_flag(self, capsys, source, vector):
        dim = 8 if "--ambient" in source else 7
        rc, out, err = run_cli(capsys, "algebra", "ricci", *source, "--vector", vector)
        message = f"--vector must have {dim} coefficients, got {vector.count(',') + 1}"
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("v, z, a, fault", [
        ("0,1,2,3", "4,5", "99", "--a-index holds 99"),
        ("0,1,2,3", "4,5", "-1", "--a-index holds -1"),
        ("0,1,2,3", "4,7", "6", "--z-indices holds 7"),
        ("0,1,2,2", "4,5", "6", "--v-indices holds 2 twice"),
        ("0,1,2,3", "4,5,3", "6", "--z-indices holds 3, as does --v-indices"),
        ("0,1,2,3", "4,5", "5", "--a-index holds 5, as does --z-indices"),
        ("0,1,2,3", "4", "6", "none of them holds 5"),
    ], ids=["a-above", "a-negative", "z-above", "v-repeat", "z-repeats-v", "a-repeats-z",
            "missing"])
    def test_dr_check_names_the_flag_and_index_at_fault(self, capsys, v, z, a, fault):
        rc, out, err = run_cli(capsys, "algebra", "dr-check", "--alpha", "0",
                               "--v-indices", v, "--z-indices", z, "--a-index", a)
        flags = "--v-indices, --z-indices and --a-index"
        message = f"{flags} must partition the basis indices 0 to 6: {fault}"
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("op, flag, value, reader", [
        *[(op, "--vector", "1", "ricci") for op in ("cheeger", "einstein", "dr-check", "dump")],
        *[(op, flag, "0", "dr-check") for op in ("ricci", "cheeger", "einstein", "dump")
          for flag in ("--v-indices", "--z-indices", "--a-index")],
    ])
    def test_flag_of_another_op_refused_before_building(self, capsys, monkeypatch, op, flag,
                                                        value, reader):
        def never(*args, **kwargs):
            raise AssertionError("algebra built")

        monkeypatch.setattr(cli, "build_hypersurface_algebra", never)
        # the op's own flags, so that the only fault is the other op's flag
        own = {"ricci": ("--vector", "1,0,0,0,0,0,0"),
               "dr-check": TOL_ARGV["algebra dr-check"][4:]}.get(op, ())
        rc, out, err = run_cli(capsys, "algebra", op, "--alpha", "0.3", *own, flag, value)
        assert (rc, out, err) == (2, "", f"error: {flag} is read only by op '{reader}', "
                                         f"not by '{op}'\n")

    def test_bad_vector_string(self, capsys):
        rc, _, err = run_cli(
            capsys, "algebra", "ricci", "--alpha", "0", "--vector", "1,two,3"
        )
        assert rc == 2
        assert "comma-separated" in err

    def test_overflowing_jacobi_residual_rejected(self, tmp_path):
        # the Jacobi products overflow to a nan residual, which must not pass
        bad = tmp_path / "overflow.json"
        bad.write_text(json.dumps(OVERFLOW_DOC))
        proc = TestModuleEntryPoint.python_m(
            "solvgeom", "algebra", "einstein", "--file", str(bad))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: Jacobi identity violated (residual nan)\n"

    @pytest.mark.parametrize(
        "doc, op",
        [
            (RANK_ONE_GRAM_DOC, "einstein"),
            (RANK_ONE_GRAM_DOC, "cheeger"),
            (RANK_ONE_GRAM_DOC, "ricci"),
            (RANK_ONE_BLOCK_GRAM_DOC, "einstein"),
            (RANK_ONE_BLOCK_GRAM_DOC, "cheeger"),
        ],
        ids=["2x2-einstein", "2x2-cheeger", "2x2-ricci", "4x4-einstein", "4x4-cheeger"],
    )
    def test_gram_singular_to_working_precision_rejected(self, capsys, tmp_path, doc, op):
        bad = tmp_path / "gram.json"
        bad.write_text(json.dumps(doc))
        vector = ("--vector", ",".join(["1"] * doc["dim"])) if op == "ricci" else ()
        rc, out, err = run_cli(capsys, "algebra", op, "--file", str(bad), *vector)
        assert (rc, out) == (2, "")
        assert err.startswith("error: gram matrix is too ill-conditioned (eigenvalues ")

    @pytest.mark.parametrize("doc, ops, name", [
        ({"dim": 2, "gram": [[1, 0], [0, 1]], "structure": [[0, 1, 1, 1e154]]},
         ("einstein", "ricci"), "Ricci form"),
        ({"dim": 2, "gram": [[1, 0], [0, 1e10]], "structure": [[0, 1, 1, 1e150]]},
         ("einstein", "ricci"), "Ricci form"),
        ({"dim": 2, "gram": [[1, 0], [0, 1e10]], "structure": [[0, 1, 1, -1e150]]},
         ("einstein", "ricci"), "Ricci form"),
        ({"dim": 2, "gram": [[1e-9, 0], [0, 1e-9]], "structure": [[0, 1, 1, 1e153]]},
         ("einstein",), "Ricci form in a gram-orthonormal basis"),
    ], ids=["form-1e154", "contraction+1e150", "contraction-1e150", "frame-1e153"])
    def test_overflowing_ricci_form_named(self, capsys, tmp_path, doc, ops, name):
        # the connection is finite in every case; only the Ricci form overflows,
        # the last only once it is written in a gram-orthonormal basis
        bad = tmp_path / "ricci.json"
        bad.write_text(json.dumps(doc))
        for op in ops:
            vector = ("--vector", "1,0") if op == "ricci" else ()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc, out, err = run_cli(capsys, "algebra", op, "--file", str(bad), *vector)
            assert (rc, out, err) == (
                2, "", f"error: {name} overflows the float range for this structure and "
                       "gram matrix\n")

    def test_einstein_constant_of_a_spectrum_whose_sum_overflows(self, capsys, tmp_path):
        # Ric = -6.05e307 I is finite; the sum of its three eigenvalues is not
        doc = tmp_path / "einstein.json"
        doc.write_text(json.dumps({"dim": 3, "gram": np.eye(3).tolist(), "structure": [
            [0, 1, 1, 0.55e154], [0, 2, 2, 0.55e154]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(capsys, "algebra", "einstein", "--file", str(doc))
        assert (rc, err) == (0, "")
        assert json.loads(out) == {"dim": 3, "einstein": True, "constant": -6.05e307,
                                   "tol": 1e-8}

    def test_ricci_value_of_a_form_finite_only_in_the_coordinate_basis(self, capsys, tmp_path):
        doc = tmp_path / "ricci.json"
        doc.write_text(json.dumps(
            {"dim": 2, "gram": [[1e-9, 0], [0, 1e-9]], "structure": [[0, 1, 1, 1e153]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(capsys, "algebra", "ricci", "--file", str(doc),
                                   "--vector", "1,0")
        assert (rc, err) == (0, "")
        assert json.loads(out)["ricci"] == pytest.approx(-1e306, rel=1e-12)

    def test_overflowing_connection_rejected(self, tmp_path):
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(HUGE_GRAM_DOC))
        proc = TestModuleEntryPoint.python_m(
            "solvgeom", "algebra", "einstein", "--file", str(bad))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: Levi-Civita connection overflows the float range for this structure "
            "and gram matrix\n"
        )

    def test_overflowing_cheeger_constant_named(self, capsys, tmp_path):
        doc = tmp_path / "cheeger.json"
        doc.write_text(json.dumps({"dim": 2, "gram": [[1.88e-4, 0], [0, 1.65e-3]],
                                   "structure": [[0, 1, 1, 4.42e152]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            rc, out, err = run_cli(capsys, "algebra", "cheeger", "--file", str(doc))
        assert (rc, out, err) == (2, "", "error: Cheeger constant overflows the float range "
                                         "for this structure and gram matrix\n")


OVERFLOW_DOC = {"dim": 3, "gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                "structure": [[0, 1, 2, 1e200], [1, 2, 0, 1e200]]}


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def algebra_documents(draw):
    """Documents of dim 1-4 with arbitrary finite Gram and structure values.

    The Gram matrix is drawn symmetric, so that documents reach the checks
    past the symmetry test.
    """
    n = draw(st.integers(1, 4))
    upper = {(i, j): draw(FINITE) for i in range(n) for j in range(i, n)}
    gram = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    slots = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(n)]
    chosen = draw(st.lists(st.sampled_from(slots), unique=True)) if slots else []
    return {"dim": n, "gram": gram,
            "structure": [[i, j, k, draw(FINITE)] for i, j, k in chosen]}


def _reject_constant(name):
    raise AssertionError(f"non-finite JSON number {name}")


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(doc=OVERFLOW_DOC)
@given(doc=algebra_documents())
def test_json_input_exits_0_or_2(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["algebra", "einstein", "--file", str(path)])
    assert rc in (0, 2)
    if rc == 0:
        result = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert all(math.isfinite(v) for v in result.values() if isinstance(v, float))
        # a result computed through an overflow is not a success
        assert not caught, [str(w.message) for w in caught]
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


class TestOneLeafPerProcess:
    """The alpha = 0 leaf is built once per process: a round of engine queries
    (verify, dr-check, einstein and ricci on a file, plane scans) builds only
    the algebras of angles it has not met before."""

    @staticmethod
    def round_of_queries(capsys, path, alpha, scan_alpha, zero_alpha):
        for argv in (
            ("algebra", "einstein", "--ambient"),
            ("verify", "--alpha", repr(alpha), "--samples", "20"),
            ("algebra", "dr-check", "--alpha", "0", "--v-indices", "0,1,2,3",
             "--z-indices", "4,5", "--a-index", "6"),
            ("algebra", "einstein", "--file", str(path)),
            ("algebra", "ricci", "--file", str(path), "--vector", "1,0,0,0,0,0,0"),
        ):
            assert run_cli(capsys, *argv)[0] == 0
        nonpositivity_scan(scan_alpha, 200)
        zero_curvature_search(zero_alpha)

    def test_one_algebra_build_per_new_angle(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "leaf.json"
        doc = dump_algebra_json(build_hypersurface_algebra(0.3))
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        ambient_algebra()
        _model_at.cache_clear()
        built = []
        from_matrix_basis = MetricLieAlgebra.from_matrix_basis.__func__

        def counted(cls, basis, labels=None):
            built.append(labels)
            return from_matrix_basis(cls, basis, labels=labels)

        monkeypatch.setattr(MetricLieAlgebra, "from_matrix_basis", classmethod(counted))
        self.round_of_queries(capsys, path, 0.7, 0.2, 1.1)
        assert len(built) == 2  # verify's alpha and the alpha = 0 leaf
        for alpha, scan_alpha, zero_alpha in ((0.9, 0.0, 0.4), (0.5, 1.3, 0.8)):
            built.clear()
            self.round_of_queries(capsys, path, alpha, scan_alpha, zero_alpha)
            assert len(built) == 1  # verify's alpha only


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


class TestSharedParser:
    """main reuses one parser per process; a call sequence must behave as if
    every call had a freshly built parser."""

    CALLS = [
        ("sweep", "--steps", "3", "--samples", "10"),
        ("sweep", "--steps", "banana"),
        ("verify", "--alpha", "0.7", "--samples", "30", "--format", "json"),
        ("algebra", "einstein", "--ambient"),
        ("sweep", "--steps", "2", "--samples", "5", "--format", "json"),
    ]

    @staticmethod
    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
        return rc, out.getvalue()

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_sequence_matches_fresh_parsers(self, monkeypatch):
        shared = [self.call(argv) for argv in self.CALLS]
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [self.call(argv) for argv in self.CALLS]
        assert [rc for rc, _ in shared] == [0, 2, 0, 0, 0]
        assert shared == fresh


class TestModuleEntryPoint:
    @staticmethod
    def python_m(*args):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
        return subprocess.run(
            [sys.executable, "-m", *args], capture_output=True, text=True, env=env,
            timeout=120,
        )

    def test_python_m_matches_main(self, capsys):
        argv = ("sweep", "--steps", "3", "--samples", "10")
        rc, out, _ = run_cli(capsys, *argv)
        for module in ("solvgeom", "solvgeom.cli"):
            proc = self.python_m(module, *argv)
            assert (proc.returncode, proc.stdout) == (rc, out)

    def test_python_m_bad_flag_exits_2(self):
        proc = self.python_m("solvgeom", "sweep", "--no-such-flag")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--no-such-flag" in proc.stderr
