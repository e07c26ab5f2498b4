"""End-to-end tests of the command-line surface: exit codes, artifact
formats, determinism, and round-trip stability of the JSON schema."""

import json
import math

import numpy as np
import pytest

from lorentzflow import cli
from lorentzflow import io as pio
from lorentzflow.poly import (
    HomPoly,
    MultiAffinePoly,
    elementary_symmetric,
    normalize_at_ones,
    subset_basis,
)


@pytest.fixture()
def e23_file(tmp_path):
    path = tmp_path / "e23.json"
    pio.save_poly(normalize_at_ones(elementary_symmetric(3, 2)), path)
    return path


@pytest.fixture()
def singleton31_file(tmp_path):
    path = tmp_path / "w0.json"
    pio.save_poly(MultiAffinePoly(subset_basis(3, 1), [0.5, 0.25, 0.25]), path)
    return path


@pytest.fixture()
def sum_of_squares_file(tmp_path):
    path = tmp_path / "sq.json"
    pio.save_poly(HomPoly(2, 2, (2, 2), {(2, 0): 0.5, (0, 2): 0.5}), path)
    return path


class TestCertifyCommand:
    def test_interior_exits_zero(self, e23_file, capsys):
        rc = cli.main(["certify", "--input", str(e23_file)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["status"] == "strict_interior"
        assert out["witness"] is None

    def test_rejected_exits_two_with_direction(self, sum_of_squares_file, capsys):
        rc = cli.main(["certify", "--input", str(sum_of_squares_file), "--mode", "stable"])
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert rc == 2
        assert out["status"] == "rejected"
        assert out["witness"]["kind"] == "direction"
        assert "seed" in captured.err

    def test_missing_file_exits_one(self, capsys):
        rc = cli.main(["certify", "--input", "/nonexistent/poly.json"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_bad_arguments_exit_one(self, capsys):
        assert cli.main(["certify"]) == 1
        assert cli.main(["no-such-command"]) == 1

    def test_output_file(self, e23_file, tmp_path, capsys):
        out_path = tmp_path / "verdict.json"
        rc = cli.main(["certify", "--input", str(e23_file), "--output", str(out_path)])
        assert rc == 0
        assert json.loads(out_path.read_text())["status"] == "strict_interior"

    def test_hessian_witness_is_plain_json(self, tmp_path, capsys):
        # (w0 w1 + w2 w3) w4 w5 / 2: the derivative by {4, 5} has two
        # positive Hessian eigenvalues
        basis = subset_basis(6, 4)
        coeffs = np.zeros(basis.size)
        coeffs[basis.rank((0, 1, 4, 5))] = 0.5
        coeffs[basis.rank((2, 3, 4, 5))] = 0.5
        path = tmp_path / "pairs.json"
        pio.save_poly(MultiAffinePoly(basis, coeffs), path)
        rc = cli.main(["certify", "--input", str(path)])
        witness = json.loads(capsys.readouterr().out)["witness"]
        assert rc == 2
        assert witness["kind"] == "hessian_signature"
        assert witness["subset"] == [4, 5]
        assert all(type(i) is int for i in witness["subset"])
        assert len(witness["eigenvalues"]) == 4
        assert all(type(x) is float for x in witness["eigenvalues"])

    def test_capped_witness_is_plain_json(self, sum_of_squares_file, capsys):
        # (x0^2 + x1^2) / 2 with caps (2, 2): decided without the lift, the
        # witness names the exponent of the failing derivative
        rc = cli.main(["certify", "--input", str(sum_of_squares_file)])
        witness = json.loads(capsys.readouterr().out)["witness"]
        assert rc == 2
        assert witness["kind"] == "hessian_signature"
        assert witness["exponent"] == [0, 0]
        assert all(type(i) is int for i in witness["exponent"])
        assert "subset" not in witness and "lifted" not in witness
        assert all(type(x) is float for x in witness["eigenvalues"])

    def test_direction_witness_is_plain_json(self, sum_of_squares_file, capsys):
        rc = cli.main(["certify", "--input", str(sum_of_squares_file), "--mode", "stable"])
        witness = json.loads(capsys.readouterr().out)["witness"]
        assert rc == 2
        assert witness["kind"] == "direction"
        for key in ("direction", "line_coefficients"):
            assert all(type(x) is float for x in witness[key])


class TestFlowCommand:
    def test_trajectory_matches_closed_form(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        pio.save_poly(MultiAffinePoly(subset_basis(3, 1), [1.0, 0.0, 0.0]), path)
        rc = cli.main(["flow", "--input", str(path), "--times", "0,1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "time" and header[-1] == "verdict"
        row = lines[2].split(",")
        e = math.exp(-1.0)
        assert float(row[0]) == 1.0
        assert float(row[1]) == pytest.approx(1 / 3 + 2 * e / 3, abs=1e-15)
        assert float(row[2]) == pytest.approx(1 / 3 - e / 3, abs=1e-15)
        assert row[5] == "strict_interior"

    def test_boundary_verdict_column_upgrades(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        pio.save_poly(MultiAffinePoly(subset_basis(3, 2), [0.5, 0.5, 0.0]), path)
        rc = cli.main(["flow", "--input", str(path), "--times", "0,0.001"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].endswith("boundary_within_tol")
        assert lines[2].endswith("strict_interior")

    def test_polarized_flow_csv(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        pio.save_poly(HomPoly(2, 2, (2, 2), {(2, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25}), path)
        rc = cli.main(["flow", "--input", str(path), "--times", "0,2", "--polarized"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("time,c_0_2,c_1_1,c_2_0")
        last = lines[-1].split(",")
        # long flows contract toward the capped-space center
        assert float(last[2]) > float(last[1])

    def test_deterministic_output(self, e23_file, capsys):
        cli.main(["flow", "--input", str(e23_file), "--times", "0,0.5,1"])
        first = capsys.readouterr().out
        cli.main(["flow", "--input", str(e23_file), "--times", "0,0.5,1"])
        assert capsys.readouterr().out == first


class TestSpectrumCommand:
    def test_flat_spectrum(self, capsys):
        rc = cli.main(["spectrum", "--n", "3", "--d", "1"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["basis_size"] == 3
        assert out["eigenvalues"][0] == 1.0
        assert abs(out["eigenvalues"][1]) < 1e-12
        assert out["spectral_gap"] == pytest.approx(1.0)

    def test_periodic_case_errors(self, capsys):
        rc = cli.main(["spectrum", "--n", "2", "--d", "1"])
        assert rc == 1
        assert "periodic" in capsys.readouterr().err


class TestPolarizeCommand:
    def test_up_then_down_round_trip(self, tmp_path, capsys):
        src = tmp_path / "h.json"
        f = HomPoly(2, 2, (2, 1), {(2, 0): 0.5, (1, 1): 0.5})
        pio.save_poly(f, src)
        rc = cli.main(["polarize", "--input", str(src), "--direction", "up"])
        assert rc == 0
        lifted = capsys.readouterr().out
        up_path = tmp_path / "up.json"
        up_path.write_text(lifted)
        obj = json.loads(lifted)
        assert obj["n"] == 3
        rc = cli.main(
            ["polarize", "--input", str(up_path), "--direction", "down", "--kappa", "2,1"]
        )
        assert rc == 0
        back = json.loads(capsys.readouterr().out)
        terms = {tuple(t["exponent"]): t["coeff"] for t in back["terms"]}
        assert terms[(2, 0)] == pytest.approx(0.5)
        assert terms[(1, 1)] == pytest.approx(0.5)

    def test_down_requires_kappa(self, e23_file, capsys):
        rc = cli.main(["polarize", "--input", str(e23_file), "--direction", "down"])
        assert rc == 1


class TestBallmapCommand:
    def test_simplex_example(self, singleton31_file, capsys):
        rc = cli.main(["ballmap", "--input", str(singleton31_file)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["sigma"] == pytest.approx(math.log(4.0), abs=1e-6)
        assert out["norm"] == pytest.approx(0.25, abs=1e-6)
        anchor = {tuple(t["exponent"]): t["coeff"] for t in out["anchor"]["terms"]}
        assert anchor[(1, 0, 0)] == pytest.approx(1.0, abs=1e-6)

    def test_fixed_point_reports_infinite_escape(self, tmp_path, capsys):
        path = tmp_path / "eq.json"
        pio.save_poly(MultiAffinePoly(subset_basis(3, 1), [1 / 3] * 3), path)
        rc = cli.main(["ballmap", "--input", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["infinite_escape"] is True

    def test_stable_space(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        from lorentzflow.polarization import stable_center

        pio.save_poly(stable_center(2, 2), path)
        rc = cli.main(["ballmap", "--input", str(path), "--space", "stable"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["infinite_escape"] is True


class TestStrataCommand:
    def test_full_support_report(self, e23_file, capsys):
        rc = cli.main(["strata", "--input", str(e23_file)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["kind"] == "matroid_bases"
        assert out["m_convex"] is True
        assert out["support"] == [[0, 1], [0, 2], [1, 2]]

    def test_failing_support_carries_witness(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        basis = subset_basis(4, 2)
        coeffs = np.zeros(6)
        coeffs[basis.rank((0, 1))] = 0.5
        coeffs[basis.rank((2, 3))] = 0.5
        pio.save_poly(MultiAffinePoly(basis, coeffs), path)
        rc = cli.main(["strata", "--input", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["m_convex"] is False
        assert out["witness"] is not None


class TestSampleCommand:
    def test_deterministic_and_certified(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_a.mkdir()
        out_b.mkdir()
        rc = cli.main(
            ["sample", "--n", "3", "--d", "2", "--count", "3", "--seed", "5",
             "--output-dir", str(out_a)]
        )
        assert rc == 0
        manifest = json.loads(capsys.readouterr().out)
        assert all(s["status"] != "rejected" for s in manifest["samples"])
        rc = cli.main(
            ["sample", "--n", "3", "--d", "2", "--count", "3", "--seed", "5",
             "--output-dir", str(out_b)]
        )
        assert rc == 0
        capsys.readouterr()
        for k in range(3):
            a = (out_a / f"sample_{k:03d}.json").read_bytes()
            b = (out_b / f"sample_{k:03d}.json").read_bytes()
            assert a == b

    def test_interior_flag_gives_strict_members(self, tmp_path, capsys):
        out_dir = tmp_path / "s"
        out_dir.mkdir()
        rc = cli.main(
            ["sample", "--n", "3", "--d", "2", "--count", "3", "--seed", "6",
             "--kind", "multiaffine", "--interior", "0.5", "--output-dir", str(out_dir)]
        )
        assert rc == 0
        manifest = json.loads(capsys.readouterr().out)
        assert all(s["status"] == "strict_interior" for s in manifest["samples"])


class TestJsonRoundTrip:
    def test_serialize_is_byte_stable(self, tmp_path):
        f = normalize_at_ones(elementary_symmetric(4, 2))
        once = pio.dumps(pio.poly_to_obj(f))
        again = pio.dumps(pio.poly_to_obj(pio.obj_to_poly(json.loads(once))))
        assert once == again

    def test_multiaffine_detection(self):
        obj = {"n": 2, "d": 1, "terms": [{"exponent": [1, 0], "coeff": 0.5},
                                          {"exponent": [0, 1], "coeff": 0.5}]}
        assert isinstance(pio.obj_to_poly(obj), MultiAffinePoly)
        obj["kappa"] = [1, 1]
        assert isinstance(pio.obj_to_poly(obj), HomPoly)

    def test_capped_inference_without_kappa(self):
        obj = {"n": 2, "d": 2, "terms": [{"exponent": [2, 0], "coeff": 1.0}]}
        f = pio.obj_to_poly(obj)
        assert isinstance(f, HomPoly)
        assert f.kappa == (2, 1)

    def test_schema_errors_are_value_errors(self):
        with pytest.raises(ValueError):
            pio.obj_to_poly({"n": 2, "terms": []})
        with pytest.raises(ValueError):
            pio.obj_to_poly({"n": 2, "d": 1, "terms": [{"coeff": 1.0}]})
