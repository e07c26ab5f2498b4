"""Tests for the lift/project pair, the capped-space flow, and the
distinguished interior point of the capped space."""

import math

import numpy as np
import pytest

from lorentzflow.poly import (
    HomPoly,
    MultiAffinePoly,
    compositions,
    elementary_symmetric,
    normalize_at_ones,
    subset_basis,
)
from lorentzflow.polarization import (
    PolarizationPlan,
    lifted_decomposition,
    polarize_up,
    polarized_flow,
    project_down,
    stable_center,
)
from lorentzflow.sep import centered_norm

from flow_helpers import symmetrize_partition


def _random_capped(rng, n=None, d=None):
    n = n or int(rng.integers(2, 5))
    d = d or int(rng.integers(1, 4))
    kappa = tuple(int(k) for k in rng.integers(1, 4, size=n))
    while sum(kappa) > 12 or sum(kappa) < d:
        kappa = tuple(int(k) for k in rng.integers(1, 4, size=n))
    alphas = [a for a in compositions(d, n, caps=kappa)]
    coeffs = np.abs(rng.standard_normal(len(alphas))) + 0.01
    terms = dict(zip(alphas, coeffs))
    return normalize_at_ones(HomPoly(n, d, kappa, terms))


class TestPolarizeUp:
    def test_square_becomes_product(self):
        f = HomPoly(1, 2, (2,), {(2,): 1.0})
        g = polarize_up(f)
        assert g.n == 2 and g.d == 2
        assert np.allclose(g.coeffs, [1.0])

    def test_mixed_caps_example(self):
        # (w0^2 + w0 w1)/2 with caps (2, 1): the square spreads onto the
        # block pair, the cross term splits evenly across the block
        f = HomPoly(2, 2, (2, 1), {(2, 0): 0.5, (1, 1): 0.5})
        g = polarize_up(f)
        basis = g.basis
        assert g.n == 3
        assert g.coefficient((0, 1)) == pytest.approx(0.5)   # block pair of variable 0
        assert g.coefficient((0, 2)) == pytest.approx(0.25)
        assert g.coefficient((1, 2)) == pytest.approx(0.25)
        assert basis.size == 3

    def test_preserves_value_at_ones(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            f = _random_capped(rng)
            assert polarize_up(f).value_at_ones() == pytest.approx(
                f.value_at_ones(), rel=1e-12
            )

    def test_block_symmetric(self):
        rng = np.random.default_rng(42)
        f = _random_capped(rng, n=2, d=2)
        plan = PolarizationPlan(f.n, f.d, f.kappa)
        g = polarize_up(f, plan)
        sym = symmetrize_partition(g, [list(b) for b in plan.blocks])
        assert np.allclose(sym.coeffs, g.coeffs, atol=1e-14)

    def test_cap_violation_raises(self):
        f = HomPoly(2, 2, (2, 2), {(2, 0): 1.0})
        plan = PolarizationPlan(2, 2, (1, 2))
        with pytest.raises(ValueError, match="exceeds caps"):
            polarize_up(f, plan)


class TestProjectDown:
    def test_block_pair_collapses_to_square(self):
        plan = PolarizationPlan(1, 2, (2,))
        g = MultiAffinePoly(subset_basis(2, 2), [1.0])
        f = project_down(g, plan)
        assert f.terms == {(2,): 1.0}

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            f = _random_capped(rng)
            plan = PolarizationPlan(f.n, f.d, f.kappa)
            back = project_down(polarize_up(f, plan), plan)
            assert back.kappa == f.kappa
            for alpha in f.terms:
                assert back.coefficient(alpha) == pytest.approx(
                    f.coefficient(alpha), rel=1e-12, abs=1e-15
                )

    def test_lift_after_project_symmetrizes(self):
        # a single lifted variable projects to the whole block average
        plan = PolarizationPlan(1, 1, (2,))
        g = MultiAffinePoly(subset_basis(2, 1), [1.0, 0.0])
        f = project_down(g, plan)
        again = polarize_up(f, plan)
        assert np.allclose(again.coeffs, [0.5, 0.5])

    def test_basis_mismatch(self):
        plan = PolarizationPlan(1, 2, (2,))
        with pytest.raises(ValueError):
            project_down(MultiAffinePoly(subset_basis(3, 2), [1, 0, 0]), plan)


class TestStableCenter:
    def test_two_by_two(self):
        f = stable_center(2, 2)
        assert f.terms[(2, 0)] == pytest.approx(1 / 6)
        assert f.terms[(1, 1)] == pytest.approx(4 / 6)
        assert f.terms[(0, 2)] == pytest.approx(1 / 6)

    def test_degree_one_is_average(self):
        f = stable_center(4, 1)
        assert all(c == pytest.approx(1 / 4) for c in f.terms.values())

    def test_lift_is_normalized_elementary(self):
        for n, d in [(2, 2), (3, 2), (2, 3)]:
            f = stable_center(n, d)
            g = polarize_up(f)
            total = math.comb(n * d, d)
            assert np.allclose(g.coeffs, 1 / total, atol=1e-15)

    def test_line_restriction_matches_duplicated_direction(self):
        # restricting the center along y equals restricting the lifted
        # normalized elementary polynomial along y with each entry repeated
        rng = np.random.default_rng(44)
        for n, d in [(2, 2), (3, 2), (2, 4), (3, 3)]:
            f = stable_center(n, d)
            e = normalize_at_ones(elementary_symmetric(n * d, d))
            for _ in range(5):
                y = rng.standard_normal(n)
                y_rep = np.repeat(y, d)
                assert np.allclose(
                    f.restrict_line(y), e.restrict_line(y_rep), atol=1e-10
                )

    def test_size_cap(self):
        with pytest.raises(ValueError):
            stable_center(9, 2)


class TestPolarizedFlow:
    def test_time_zero_identity(self):
        rng = np.random.default_rng(45)
        f = _random_capped(rng, n=3, d=2)
        g = polarized_flow(f, 0.0)
        for alpha in f.terms:
            assert g.coefficient(alpha) == pytest.approx(f.coefficient(alpha), abs=1e-12)

    def test_center_is_fixed_point(self):
        f = stable_center(2, 3)
        for s in [0.1, 1.0, 5.0]:
            g = polarized_flow(f, s)
            for alpha in f.terms:
                assert g.coefficient(alpha) == pytest.approx(f.coefficient(alpha), abs=1e-12)

    def test_semigroup(self):
        rng = np.random.default_rng(46)
        for _ in range(10):
            f = _random_capped(rng, n=3, d=2)
            s, t = rng.uniform(-1, 2, size=2)
            left = polarized_flow(polarized_flow(f, t), s)
            right = polarized_flow(f, s + t)
            err = max(
                abs(left.coefficient(a) - right.coefficient(a))
                for a in set(left.terms) | set(right.terms)
            )
            assert err < 1e-10

    def test_preserves_value_at_ones(self):
        rng = np.random.default_rng(47)
        f = _random_capped(rng, n=4, d=2)
        g = polarized_flow(f, 1.3)
        assert g.value_at_ones() == pytest.approx(1.0, abs=1e-10)

    def test_contracts_toward_center(self):
        rng = np.random.default_rng(48)
        f = _random_capped(rng, n=2, d=2)
        plan = PolarizationPlan(f.n, f.d, f.kappa)
        dec = lifted_decomposition(plan.lifted_n, plan.d)
        norms = [
            centered_norm(polarize_up(polarized_flow(f, s), plan), dec)
            for s in [0.0, 0.5, 1.5, 3.0]
        ]
        assert all(a > b for a, b in zip(norms, norms[1:]))
