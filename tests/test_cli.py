"""End-to-end tests of the command-line surface: exit codes, artifact
formats, determinism, and round-trip stability of the JSON schema."""

import itertools
import json
import math

import numpy as np
import pytest

from lorentzflow import cli, sep
from lorentzflow import io as pio
from lorentzflow.poly import (
    HomPoly,
    MultiAffinePoly,
    elementary_symmetric,
    normalize_at_ones,
    subset_basis,
)
from lorentzflow.samples import random_disjoint_form_product


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

    def test_uniform_rates_print_the_closed_form(self, monkeypatch, capsys):
        # nothing is built: no generator, no inclusion maps, no eigensolve
        built = []
        for owner, name in ((cli, "spectral"), (sep, "build_generator"), (sep, "_InclusionMaps"),
                            (np.linalg, "eigh")):
            monkeypatch.setattr(owner, name, lambda *args, _name=name, **kwargs: built.append(_name))
        assert cli.main(["spectrum", "--n", "16", "--d", "8"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert built == []
        assert out["basis_size"] == len(out["eigenvalues"]) == 12870
        assert abs(out["lambda_min"] - 0.4) <= 1e-12
        assert abs(out["spectral_gap"] - 16 / 120) <= 1e-12
        values, counts = np.unique(np.round(out["eigenvalues"], 12), return_counts=True)
        johnson = [1 - k * (17 - k) / 120 for k in range(9)]
        assert np.allclose(values[::-1], johnson, rtol=0, atol=1e-12)
        assert counts[::-1].tolist() == [math.comb(16, k) - (math.comb(16, k - 1) if k else 0) for k in range(9)]

    def test_periodic_case_errors(self, capsys):
        rc = cli.main(["spectrum", "--n", "2", "--d", "1"])
        assert rc == 1
        assert "periodic" in capsys.readouterr().err

    def test_periodic_swap_has_one_message(self, tmp_path, capsys):
        # the (2,1) swap: spectrum refuses it, and so does ballmap on a
        # (2,1) input, with the same line
        assert cli.main(["spectrum", "--n", "2", "--d", "1"]) == 1
        spectrum_err = capsys.readouterr().err
        path = tmp_path / "swap.json"
        pio.save_poly(MultiAffinePoly(subset_basis(2, 1), [0.7, 0.3]), path)
        assert cli.main(["ballmap", "--input", str(path)]) == 1
        assert capsys.readouterr().err == spectrum_err
        assert spectrum_err.startswith("lorentzflow: error: periodic flow: ")


def _rates_file(path, n, seed, total=1.0, pairs=None):
    """A seeded non-uniform rates file: a spanning path plus random further
    pairs, or the given pairs, with random rates summing to ``total``."""
    rng = np.random.default_rng(seed)
    if pairs is None:
        pairs = [(i, j) for i, j in itertools.combinations(range(n), 2) if j == i + 1 or rng.random() < 0.4]
    q = rng.random(len(pairs)) + 0.1
    q *= total / q.sum()
    path.write_text(json.dumps({"n": n, "rates": [{"i": i, "j": j, "q": float(w)} for (i, j), w in zip(pairs, q)]}))
    return path


class TestRatesFile:
    """``--rates-file`` is the only caller of ``spectral`` with custom rates."""

    def _run(self, capsys, argv):
        rc = cli.main(argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def test_gap_equals_the_single_particle_gap(self, tmp_path, capsys):
        # Caputo-Liggett-Richthammer 2010: the exclusion process with d
        # particles has the spectral gap of one random walker
        for n in (6, 8):
            rates = str(_rates_file(tmp_path / f"r{n}.json", n, 40 + n))
            gaps = []
            for d in (n // 2, 1):
                rc, out, _ = self._run(capsys, ["spectrum", "--n", str(n), "--d", str(d), "--rates-file", rates])
                assert rc == 0
                gaps.append(json.loads(out)["spectral_gap"])
            _, out, _ = self._run(capsys, ["spectrum", "--n", str(n), "--d", "1"])
            assert abs(gaps[0] - gaps[1]) <= 1e-12, (n, gaps)
            assert abs(gaps[1] - json.loads(out)["spectral_gap"]) > 1e-3  # the file's rates, not uniform ones

    def test_flow_keeps_mass_and_contracts(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        pio.save_poly(random_disjoint_form_product(subset_basis(6, 3), np.random.default_rng(41)), path)
        rates = str(_rates_file(tmp_path / "r.json", 6, 42))
        rc, out, _ = self._run(capsys, ["flow", "--input", str(path), "--times", "0,0.1,0.5,1,2", "--rates-file", rates])
        assert rc == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        norms = [float(r[-2]) for r in rows]
        for r in rows:
            assert abs(sum(map(float, r[1:-2])) - 1.0) <= 1e-12
        assert all(a > b for a, b in zip(norms, norms[1:])), norms
        _, uniform, _ = self._run(capsys, ["flow", "--input", str(path), "--times", "0,0.1,0.5,1,2"])
        assert uniform != out

    def test_bad_rates_files_exit_one(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        pio.save_poly(normalize_at_ones(elementary_symmetric(6, 3)), path)
        bad = {
            "rates file is for n=5": _rates_file(tmp_path / "n5.json", 5, 43),
            "rates sum to 0.9": _rates_file(tmp_path / "sum.json", 6, 44, total=0.9),
            "does not generate": _rates_file(tmp_path / "cut.json", 6, 45, pairs=[(0, 1), (1, 2), (3, 4), (4, 5)]),
        }
        for message, rates in bad.items():
            for argv in (["spectrum", "--n", "6", "--d", "3"], ["flow", "--input", str(path), "--times", "0,1"]):
                rc, out, err = self._run(capsys, argv + ["--rates-file", str(rates)])
                assert rc == 1 and out == "" and message in err, (argv, message, err)
        rates = str(_rates_file(tmp_path / "r.json", 6, 46))
        rc, out, err = self._run(capsys, ["flow", "--polarized", "--input", str(path), "--times", "0,1", "--rates-file", rates])
        assert rc == 1 and out == "" and "--polarized flows use uniform rates" in err


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


class TestPeriodicCappedInput:
    """kappa = (1, 1), d = 1 is the periodic swap on the composition chain:
    the capped commands exit 1 and say so."""

    @pytest.mark.parametrize("argv", [
        ["flow", "--polarized", "--times", "0,0.5"],
        ["ballmap", "--space", "capped-lorentzian"],
    ])
    def test_exits_one_and_says_periodic(self, tmp_path, capsys, argv):
        path = tmp_path / "swap.json"
        pio.save_poly(HomPoly(2, 1, (1, 1), {(1, 0): 0.7, (0, 1): 0.3}), path)
        assert cli.main(argv + ["--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "periodic" in captured.err


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
        # B1 = 01 and B2 = 23: 0 leaves B1, and no element of B2 can replace it
        assert out["witness"] == [[0, 1], [2, 3], 0]


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

    def test_creates_the_output_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["sample", "--n", "3", "--d", "2", "--count", "2", "--seed", "5",
                       "--output-dir", "out/nested"])
        assert rc == 0
        manifest = json.loads(capsys.readouterr().out)
        written = sorted(p.name for p in (tmp_path / "out" / "nested").iterdir())
        assert written == [s["file"] for s in manifest["samples"]] == ["sample_000.json", "sample_001.json"]

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

    def test_status_is_the_stable_certificate_of_the_file(self, tmp_path, capsys):
        statuses = {}
        for kind in ("multiaffine", "product"):
            out_dir = tmp_path / kind
            out_dir.mkdir()
            rc = cli.main(["sample", "--kind", kind, "--n", "6", "--d", "3", "--count", "3",
                           "--seed", "5", "--output-dir", str(out_dir)])
            assert rc == 0
            statuses[kind] = json.loads(capsys.readouterr().out)["samples"]
            for s in statuses[kind]:
                assert cli.main(["certify", "--mode", "stable", "--input", str(out_dir / s["file"])]) == 0
                assert json.loads(capsys.readouterr().out)["status"] == s["status"], (kind, s)
        # the first multiaffine sample has 14 of its 20 coefficients at zero
        assert statuses["multiaffine"][0]["status"] == "boundary_within_tol"


class TestJsonRoundTrip:
    def test_serialize_is_byte_stable(self, tmp_path):
        f = normalize_at_ones(elementary_symmetric(4, 2))
        once = pio.dumps(pio.poly_to_obj(f))
        again = pio.dumps(pio.poly_to_obj(pio.obj_to_poly(json.loads(once))))
        assert once == again

    def test_capped_serialize_is_byte_stable(self):
        rng = np.random.default_rng(25)
        kappa = (3, 1, 2)
        alphas = [a for a in itertools.product(*(range(k + 1) for k in kappa)) if sum(a) == 4]
        f = HomPoly(3, 4, kappa, {a: float(c) for a, c in zip(alphas, rng.standard_normal(len(alphas)))})
        once = pio.dumps(pio.poly_to_obj(f))
        again = pio.dumps(pio.poly_to_obj(pio.obj_to_poly(json.loads(once))))
        assert once == again
        assert np.array_equal(pio.obj_to_poly(json.loads(once)).coeffs, f.coeffs)

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

    def test_codes_past_int64_are_refused_at_load(self):
        # kappa_i = d = 16 at n = 16: 17^16 exponent codes
        obj = {"n": 16, "d": 16, "kappa": [16] * 16,
               "terms": [{"exponent": [16] + [0] * 15, "coeff": 1.0}]}
        with pytest.raises(ValueError, match="int64"):
            pio.obj_to_poly(obj)

    def test_schema_errors_are_value_errors(self):
        with pytest.raises(ValueError):
            pio.obj_to_poly({"n": 2, "terms": []})
        with pytest.raises(ValueError):
            pio.obj_to_poly({"n": 2, "d": 1, "terms": [{"coeff": 1.0}]})
