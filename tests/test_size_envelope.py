"""The size envelope of the uniform flow: a (16,8) flow, a 16-variable
capped flow, and the CLI commands that flow at (16,8), each in a fresh
process whose address space is capped at 1 GB."""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ADDRESS_SPACE = 1 << 30

FLOWS = """
import json, time
import numpy as np
from lorentzflow.poly import HomPoly, MultiAffinePoly, exponent_table, subset_basis
from lorentzflow.polarization import polarized_flow
from lorentzflow.sep import flow, uniform_decomposition

rng = np.random.default_rng(16)
out = {}
started = time.perf_counter()
f = MultiAffinePoly(subset_basis(16, 8), rng.random(12870))
g = flow(f, 0.3, uniform_decomposition(16, 8))
out["multiaffine_s"] = time.perf_counter() - started
out["multiaffine_round_trip"] = float(np.abs(flow(g, -0.3, uniform_decomposition(16, 8)).coeffs - f.coeffs).max())
kappa = (3,) * 16
h = HomPoly._from_coeffs(16, 6, kappa, rng.random(exponent_table(6, kappa).codes.size))
started = time.perf_counter()
k = polarized_flow(h, 0.3)
out["capped_s"] = time.perf_counter() - started
out["capped_states"] = h.coeffs.size
out["capped_round_trip"] = float(np.abs(polarized_flow(k, -0.3).coeffs - h.coeffs).max())
print(json.dumps(out))
"""


def _limited():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, preexec_fn=_limited,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.slow
def test_flows_at_the_largest_sizes_fit_in_1_gb(tmp_path):
    proc = _run(["-c", FLOWS], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout)
    assert out["multiaffine_s"] < 1.0, out
    assert out["capped_states"] == 52088
    assert out["capped_s"] < 1.0, out
    assert out["multiaffine_round_trip"] <= 1e-14, out
    assert out["capped_round_trip"] <= 1e-14, out


@pytest.mark.slow
def test_cli_flows_at_16_8_fit_in_1_gb(tmp_path):
    lf = ["-m", "lorentzflow"]
    sample = _run(lf + ["sample", "--kind", "multiaffine", "--n", "16", "--d", "8", "--count", "1",
                        "--seed", "16", "--interior", "0.3", "--output-dir", "s16"], tmp_path)
    assert sample.returncode == 0, sample.stderr[-2000:]
    path = str(tmp_path / "s16" / "sample_000.json")
    flowed = _run(lf + ["flow", "--input", path, "--times", "0,0.5,-0.1"], tmp_path)
    assert flowed.returncode == 0, flowed.stderr[-2000:]
    assert len(flowed.stdout.splitlines()) == 4
    # the stable oracle: the Lorentzian certificate falsely rejects this
    # flowed product, whose smallest coefficients fall under its cutoff
    ball = _run(lf + ["ballmap", "--space", "stable", "--input", path], tmp_path)
    assert ball.returncode == 0, ball.stderr[-2000:]
    point = json.loads(ball.stdout)
    assert len(point["ball_point"]) == 12869
    assert abs(point["norm"] - math.exp(-point["sigma"])) <= 1e-12
    spectrum = _run(lf + ["spectrum", "--n", "16", "--d", "8"], tmp_path)
    assert spectrum.returncode == 0, spectrum.stderr[-2000:]
    assert len(json.loads(spectrum.stdout)["eigenvalues"]) == 12870
