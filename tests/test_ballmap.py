"""Tests for the contractive-flow checks and escape-time ball coordinates."""

import math

import numpy as np
import pytest

from lorentzflow.ballmap import (
    InfiniteEscape,
    ball_coordinates,
    capped_lorentzian_oracle,
    escape_time,
    multiaffine_lorentzian_oracle,
    trajectory,
)
from lorentzflow.certify import VerdictStatus, certify_multiaffine
from lorentzflow.poly import HomPoly, MultiAffinePoly, normalize_at_ones, subset_basis
from lorentzflow.polarization import stable_center
from lorentzflow.sep import centered_norm, equilibrium, flow, uniform_decomposition

from flow_helpers import contractive_flow_check
from mixtures import random_member_mixture


@pytest.fixture(scope="module")
def simplex31():
    return uniform_decomposition(3, 1), subset_basis(3, 1), multiaffine_lorentzian_oracle()


class TestEscapeTime:
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
