"""Tests for the contractive-flow checks and escape-time ball coordinates."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lorentzflow.ballmap import (
    EscapeNotBracketed,
    InfiniteEscape,
    MembershipOracle,
    capped_lorentzian_oracle,
    escape_time,
    multiaffine_lorentzian_oracle,
    stable_oracle,
    trajectory,
)
from lorentzflow.certify import VerdictStatus, certify_multiaffine
from lorentzflow.poly import HomPoly, MultiAffinePoly, normalize_at_ones, subset_basis
from lorentzflow.polarization import stable_center
from lorentzflow.samples import random_disjoint_form_product
from lorentzflow.sep import centered_norm, flow, uniform_decomposition

from flow_helpers import ball_coordinates, contractive_flow_check, equilibrium
from mixtures import random_member_mixture


@pytest.fixture(scope="module")
def simplex31():
    return uniform_decomposition(3, 1), subset_basis(3, 1), multiaffine_lorentzian_oracle()


@pytest.fixture(scope="module")
def s52():
    """A (5,2) member with sigma about 0.3, the input of ``BISECT``."""
    return flow(random_disjoint_form_product(subset_basis(5, 2), np.random.default_rng(1)), 0.3,
                uniform_decomposition(5, 2))


# escape_time at each bisection width, counting oracle calls; a width
# that the bisection could never reach once looped forever
BISECT = """
import json, sys
import numpy as np
from lorentzflow.ballmap import MembershipOracle, escape_time, multiaffine_lorentzian_oracle
from lorentzflow.poly import subset_basis
from lorentzflow.samples import random_disjoint_form_product
from lorentzflow.sep import flow, uniform_decomposition

f = flow(random_disjoint_form_product(subset_basis(5, 2), np.random.default_rng(1)), 0.3,
         uniform_decomposition(5, 2))
lorentzian = multiaffine_lorentzian_oracle()
out = []
for tol in map(float, sys.argv[1:]):
    calls = []
    oracle = MembershipOracle("counted", lambda g: calls.append(1) or lorentzian.certify(g), lorentzian.tol)
    try:
        out.append([escape_time(f, oracle, tol=tol).sigma, len(calls)])
    except ValueError as exc:
        out.append([str(exc), len(calls)])
print(json.dumps(out))
"""


class TestEscapeTime:
    def test_bisection_width_is_positive_and_always_ends(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", BISECT, "0", "-1e-3", "nan", "1e-12", "1e-20", "1e-300"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr[-2000:]
        out = json.loads(proc.stdout)
        refused, ended = out[:3], out[3:]
        for message, calls in refused:
            assert "must be positive" in message and calls == 0
        # below the spacing of floats near sigma the bracket stops at adjacent floats
        sigma = ended[0][0]
        assert sigma == pytest.approx(0.3000000159, abs=1e-9)
        for got, _ in ended[1:]:
            assert abs(got - sigma) <= 1e-12

    def test_s_max_is_positive(self, s52):
        # refused before any oracle call; -1 once bracketed nothing after
        # two calls, and NaN never capped the doubling
        f, lorentzian, calls = s52, multiaffine_lorentzian_oracle(), []
        oracle = MembershipOracle("counted", lambda g: calls.append(1) or lorentzian.certify(g), lorentzian.tol)
        for s_max in (0.0, -1.0, -math.inf, float("nan")):
            with pytest.raises(ValueError, match="s_max must be positive"):
                escape_time(f, oracle, s_max=s_max)
        assert calls == []

    def test_no_exit_before_s_max(self, s52):
        # sigma is about 0.3: the first doubling, to 2e-3, passes s_max
        assert escape_time(s52, multiaffine_lorentzian_oracle()).sigma > 2e-3
        with pytest.raises(EscapeNotBracketed, match="still a member after backward time 0.001"):
            escape_time(s52, multiaffine_lorentzian_oracle(), s_max=1e-3)

    @pytest.mark.parametrize("tol", [float("nan"), math.inf, -0.5])
    def test_oracles_refuse_a_tolerance_outside_0_inf(self, tol):
        for make in (multiaffine_lorentzian_oracle, capped_lorentzian_oracle, lambda t: stable_oracle(tol=t)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                make(tol)

    def test_simplex_example(self, simplex31):
        dec, basis, oracle = simplex31
        f = MultiAffinePoly(basis, [0.5, 0.25, 0.25])
        res = escape_time(f, oracle, dec)
        assert res.sigma == pytest.approx(math.log(4.0), abs=1e-6)
        assert np.allclose(res.anchor.coeffs, [1.0, 0.0, 0.0], atol=1e-6)
        # Helmert frame of the centered anchor (2/3, -1/3, -1/3)
        assert np.allclose(res.ball_point, [math.sqrt(3.0) / 8.0, 1.0 / 8.0], atol=1e-6)
        assert res.converged
        assert res.bracket_width <= 1e-8

    def test_anchor_is_on_the_boundary(self, simplex31):
        dec, basis, oracle = simplex31
        f = MultiAffinePoly(basis, [0.5, 0.25, 0.25])
        res = escape_time(f, oracle, dec)
        anchored = certify_multiaffine(res.anchor, tol=1e-6)
        assert anchored.status is VerdictStatus.BOUNDARY_WITHIN_TOL
        # within a step of the bracket width the flow leaves the space
        outside = flow(res.anchor, -10.0 * res.bracket_width, dec)
        assert not oracle.is_member(outside)

    def test_flow_reproduces_input(self, simplex31):
        dec, basis, oracle = simplex31
        f = MultiAffinePoly(basis, [0.5, 0.25, 0.25])
        res = escape_time(f, oracle, dec)
        back = flow(res.anchor, res.sigma, dec)
        assert np.allclose(back.coeffs, f.coeffs, atol=1e-8)

    def test_ball_point_independent_of_eigenbasis(self, rotated_decomposition):
        dec, rotated = rotated_decomposition
        oracle = multiaffine_lorentzian_oracle()
        f = random_member_mixture(dec.basis, np.random.default_rng(65))
        a = escape_time(f, oracle, dec)
        b = escape_time(f, oracle, rotated)
        assert a.sigma == pytest.approx(b.sigma, abs=1e-9)
        assert np.max(np.abs(a.ball_point - b.ball_point)) <= 1e-9

    def test_boundary_input_exits_immediately(self):
        dec = uniform_decomposition(3, 2)
        f = MultiAffinePoly(subset_basis(3, 2), [0.5, 0.5, 0.0])
        res = escape_time(f, multiaffine_lorentzian_oracle(), dec)
        assert res.sigma <= 1e-6
        assert np.linalg.norm(res.ball_point) == pytest.approx(1.0, abs=1e-6)

    def test_fixed_point_never_exits(self, simplex31):
        dec, basis, oracle = simplex31
        with pytest.raises(InfiniteEscape):
            escape_time(equilibrium(dec), oracle, dec)

    def test_non_member_input_is_domain_error(self, simplex31):
        dec, basis, oracle = simplex31
        f = MultiAffinePoly(basis, [1.2, 0.2, -0.4])
        with pytest.raises(ValueError, match="member"):
            escape_time(f, oracle, dec)

    def test_flow_equivariance(self, simplex31):
        # flowing forward by t adds exactly t to the exit time and keeps
        # the same anchor
        dec, basis, oracle = simplex31
        rng = np.random.default_rng(61)
        for _ in range(10):
            c = rng.dirichlet(np.ones(3))
            if centered_norm(MultiAffinePoly(basis, c), dec) < 1e-3:
                continue
            f = MultiAffinePoly(basis, c)
            t = float(rng.uniform(0.05, 2.0))
            base = escape_time(f, oracle, dec)
            moved = escape_time(flow(f, t, dec), oracle, dec)
            assert moved.sigma - base.sigma == pytest.approx(t, abs=1e-6)
            assert np.allclose(moved.anchor.coeffs, base.anchor.coeffs, atol=1e-5)

    def test_crossing_uniqueness(self, simplex31):
        dec, basis, oracle = simplex31
        f = MultiAffinePoly(basis, [0.5, 0.25, 0.25])
        res = escape_time(f, oracle, dec)
        for frac in np.linspace(0.05, 0.95, 10):
            assert oracle.is_member(flow(f, -frac * res.sigma, dec))
        for bump in np.linspace(0.01, 1.0, 10):
            assert not oracle.is_member(flow(f, -(res.sigma + bump), dec))

    def test_capped_space_escape(self):
        # mix the capped-space center toward one of its boundary points
        target = normalize_at_ones(
            stable_center(2, 2) * 0.2 + HomPoly(2, 2, (2, 2), {(1, 1): 0.8})
        )
        oracle = capped_lorentzian_oracle()
        res = escape_time(target, oracle, None)
        assert res.sigma > 0.0
        assert res.converged
        assert np.linalg.norm(res.ball_point) == pytest.approx(
            math.exp(-res.sigma), rel=1e-12
        )


def _flowed_members(n, d):
    """Three seeded disjoint-form products at (n, d), flowed inside by 0.3."""
    basis, dec = subset_basis(n, d), uniform_decomposition(n, d)
    rng = np.random.default_rng(29)
    return dec, [flow(random_disjoint_form_product(basis, rng), 0.3, dec) for _ in range(3)]


@pytest.mark.parametrize("n, d", [(6, 3), (8, 4)])
class TestMultiaffineDefaultsToTheChain:
    """With no decomposition a multiaffine flow runs on the composition
    chain at kappa = 1^n, which is the uniform decomposition bit for bit."""

    def test_escape_time(self, n, d):
        dec, members = _flowed_members(n, d)
        oracle = multiaffine_lorentzian_oracle()
        for f in members:
            got, want = escape_time(f, oracle), escape_time(f, oracle, dec)
            assert got.sigma == want.sigma
            assert np.array_equal(got.anchor.coeffs, want.anchor.coeffs)
            assert np.array_equal(got.ball_point, want.ball_point)

    def test_trajectory(self, n, d):
        dec, members = _flowed_members(n, d)
        oracle = multiaffine_lorentzian_oracle()
        times = (-0.2, 0.0, 0.3, 1.0)
        for f in members:
            for got, want in zip(trajectory(f, None, times, oracle), trajectory(f, dec, times, oracle)):
                assert np.array_equal(got.poly.coeffs, want.poly.coeffs)
                assert got.centered_norm == want.centered_norm
                assert got.verdict.status is want.verdict.status


class TestBallCoordinates:
    def test_fixed_point_maps_to_zero(self, simplex31):
        dec, basis, oracle = simplex31
        h = ball_coordinates(equilibrium(dec), oracle, dec)
        assert h.shape == (2,)
        assert np.all(h == 0.0)

    def test_boundary_maps_to_unit_sphere(self):
        dec = uniform_decomposition(3, 2)
        oracle = multiaffine_lorentzian_oracle()
        f = MultiAffinePoly(subset_basis(3, 2), [0.5, 0.5, 0.0])
        h = ball_coordinates(f, oracle, dec)
        assert np.linalg.norm(h) == pytest.approx(1.0, abs=1e-6)

    def test_simplex_example_norm(self, simplex31):
        dec, basis, oracle = simplex31
        f = MultiAffinePoly(basis, [0.5, 0.25, 0.25])
        h = ball_coordinates(f, oracle, dec)
        assert np.linalg.norm(h) == pytest.approx(0.25, abs=1e-6)
        # direction matches the anchor's centered coordinates
        res = escape_time(f, oracle, dec)
        assert np.allclose(h, res.ball_point)

    def test_continuity_probe_on_near_pairs(self):
        # fit a max distortion ratio on one batch of nearby member pairs
        # and require that a fresh batch never jumps past ten times it;
        # an actual discontinuity of the map would blow this up
        dec = uniform_decomposition(3, 2)
        basis = subset_basis(3, 2)
        oracle = multiaffine_lorentzian_oracle()
        rng = np.random.default_rng(64)

        def ratios(count):
            out = []
            while len(out) < count:
                c = rng.dirichlet(np.ones(3))
                f = MultiAffinePoly(basis, c)
                if centered_norm(f, dec) < 1e-3:
                    continue
                step = rng.standard_normal(3)
                step -= step.mean()
                c2 = c + 1e-4 * step / np.linalg.norm(step)
                if np.any(c2 < 0.0):
                    continue
                g = MultiAffinePoly(basis, c2)
                hf = ball_coordinates(f, oracle, dec)
                hg = ball_coordinates(g, oracle, dec)
                gap = float(np.linalg.norm(np.asarray(f.coeffs) - np.asarray(g.coeffs)))
                out.append(float(np.linalg.norm(hf - hg)) / gap)
            return out

        fitted = max(ratios(30))
        assert max(ratios(30)) <= 10.0 * fitted

    def test_injective_on_a_small_sample(self, simplex31):
        dec, basis, oracle = simplex31
        rng = np.random.default_rng(62)
        points = []
        images = []
        while len(points) < 40:
            c = rng.dirichlet(np.ones(3))
            f = MultiAffinePoly(basis, c)
            if centered_norm(f, dec) < 1e-4:
                continue
            if points and min(np.linalg.norm(c - p) for p in points) < 1e-3:
                continue
            points.append(c)
            images.append(ball_coordinates(f, oracle, dec))
        images = np.array(images)
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                assert np.linalg.norm(images[i] - images[j]) > 1e-6


class TestTrajectory:
    def test_single_time_is_input_row(self, simplex31):
        dec, basis, oracle = simplex31
        f = MultiAffinePoly(basis, [0.5, 0.25, 0.25])
        rows = trajectory(f, dec, [0.0], oracle)
        assert len(rows) == 1
        assert np.allclose(rows[0].poly.coeffs, f.coeffs)
        assert rows[0].verdict.status is VerdictStatus.STRICT_INTERIOR

    def test_flat_case_norm_decay(self, simplex31):
        dec, basis, oracle = simplex31
        f = MultiAffinePoly(basis, [0.5, 0.25, 0.25])
        rows = trajectory(f, dec, [0.0, 1.0, 2.0])
        r = rows[0].centered_norm
        assert rows[1].centered_norm == pytest.approx(r * math.exp(-1.0), rel=1e-10)
        assert rows[2].centered_norm == pytest.approx(r * math.exp(-2.0), rel=1e-10)

    def test_boundary_upgrades_to_interior(self):
        dec = uniform_decomposition(3, 2)
        oracle = multiaffine_lorentzian_oracle()
        f = MultiAffinePoly(subset_basis(3, 2), [0.5, 0.5, 0.0])
        rows = trajectory(f, dec, [0.0, 1e-3], oracle)
        assert rows[0].verdict.status is VerdictStatus.BOUNDARY_WITHIN_TOL
        assert rows[1].verdict.status is VerdictStatus.STRICT_INTERIOR


class TestContractiveFlowCheck:
    def test_report_on_members(self):
        dec = uniform_decomposition(4, 2)
        oracle = multiaffine_lorentzian_oracle()
        rng = np.random.default_rng(63)
        members = [random_member_mixture(subset_basis(4, 2), rng) for _ in range(20)]
        members.append(equilibrium(dec))  # excluded from the strict decrease check
        report = contractive_flow_check(dec, oracle, members)
        assert report.ok
        assert report.n_samples == 21
        assert report.semigroup_max <= 1e-10
        assert report.identity_max <= 1e-10
        assert report.mass_max <= 1e-10
        assert not report.contraction_violations
        # spectral continuity bound: the flow never expands distances
        assert report.lipschitz_max_ratio <= 1.0 + 1e-12


def test_ballmap_imports_no_lift_module():
    # flows are built and picked in sep; the ball map reads no lift
    tree = ast.parse((Path(__file__).resolve().parents[1] / "src" / "lorentzflow" / "ballmap.py").read_text())
    relative = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    assert relative <= {"certify", "poly", "sep"}
    assert not any(isinstance(node, ast.Import) and any("lorentzflow" in a.name for a in node.names)
                   for node in ast.walk(tree))
