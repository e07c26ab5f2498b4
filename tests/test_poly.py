"""Tests for the polynomial substrate."""

import itertools
import math

import numpy as np
import pytest

from lorentzflow.poly import (
    HomPoly,
    MultiAffinePoly,
    compositions,
    elementary_symmetric,
    hessian_quadratic,
    normalize_at_ones,
    subset_basis,
)


def _is_colex_before(s, t):
    # colex order: compare by largest differing element
    diff = set(s) ^ set(t)
    return max(diff) in set(t)


class TestSubsetBasis:
    def test_single_subset(self):
        basis = subset_basis(2, 2)
        assert basis.subsets == ((0, 1),)

    def test_colex_order_three_choose_two(self):
        basis = subset_basis(3, 2)
        assert basis.subsets == ((0, 1), (0, 2), (1, 2))

    def test_six_choose_three_size(self):
        # independent count: direct enumeration
        expected = len(list(itertools.combinations(range(6), 3)))
        assert expected == 20
        assert subset_basis(6, 3).size == 20

    @pytest.mark.parametrize("n,d", [(4, 2), (6, 3), (7, 4)])
    def test_order_is_colex(self, n, d):
        subsets = subset_basis(n, d).subsets
        for a, b in itertools.combinations(subsets, 2):
            assert _is_colex_before(a, b)

    def test_rank_unrank_roundtrip_exhaustive(self):
        for n in range(1, 11):
            for d in range(0, n + 1):
                basis = subset_basis(n, d)
                assert basis.size == math.comb(n, d)
                for i in range(basis.size):
                    assert basis.rank(basis.unrank(i)) == i

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            subset_basis(0, 0)
        with pytest.raises(ValueError):
            subset_basis(3, 4)
        with pytest.raises(ValueError):
            subset_basis(17, 2)

    def test_rank_rejects_foreign_subset(self):
        with pytest.raises(ValueError):
            subset_basis(4, 2).rank((0, 5))


class TestElementarySymmetric:
    def test_three_choose_two(self):
        f = elementary_symmetric(3, 2)
        assert np.array_equal(f.coeffs, np.ones(3))

    def test_two_choose_one(self):
        f = elementary_symmetric(2, 1)
        assert np.array_equal(f.coeffs, np.ones(2))

    def test_normalized_at_ones(self):
        f = normalize_at_ones(elementary_symmetric(3, 2))
        assert f.value_at_ones() == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(f.coeffs, 1.0 / 3.0)


class TestEvaluate:
    def test_elementary_at_ones(self):
        assert elementary_symmetric(3, 2).evaluate([1, 1, 1]) == pytest.approx(3.0)

    def test_product_monomial(self):
        f = MultiAffinePoly(subset_basis(2, 2), [1.0])
        assert f.evaluate([2, 3]) == pytest.approx(6.0)

    def test_collapsed_square_at_ones(self):
        # (w1^2 + 4 w1 w2 + w2^2)/6 at (1, 1); oracle: average the
        # squarefree expansion over the pairs of duplicated variables
        f = HomPoly(2, 2, (2, 2), {(2, 0): 1 / 6, (1, 1): 4 / 6, (0, 2): 1 / 6})
        vals = [1.0, 1.0]
        lifted = [vals[0], vals[0], vals[1], vals[1]]
        oracle = sum(
            lifted[i] * lifted[j] for i, j in itertools.combinations(range(4), 2)
        ) / 6
        assert f.evaluate(vals) == pytest.approx(oracle)
        assert f.evaluate(vals) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            elementary_symmetric(3, 2).evaluate([1.0, 2.0])


class TestDerivative:
    def test_single_variable(self):
        f = elementary_symmetric(3, 2)
        df = f.derivative((0,))
        assert df.d == 1
        assert np.array_equal(df.coeffs, [0.0, 1.0, 1.0])

    def test_empty_set_is_identity(self):
        f = elementary_symmetric(4, 2)
        assert np.array_equal(f.derivative(()).coeffs, f.coeffs)

    def test_two_variables_of_elementary(self):
        # d/dw0 d/dw1 of e_3 over 4 variables leaves w2 + w3; oracle by
        # exact finite differences (multiaffine polynomials are linear in
        # each variable, so central differences are exact)
        f = elementary_symmetric(4, 3)
        df = f.derivative((0, 1))
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = rng.standard_normal(4)
            h = 0.5

            def d0(g, x):
                xp = x.copy(); xm = x.copy()
                xp[0] += h; xm[0] -= h
                return (g.evaluate(xp) - g.evaluate(xm)) / (2 * h)

            fp = p.copy(); fm = p.copy()
            fp[1] += h; fm[1] -= h
            oracle = (d0(f, fp) - d0(f, fm)) / (2 * h)
            assert df.evaluate(p) == pytest.approx(oracle, rel=1e-9, abs=1e-9)
        assert np.allclose(df.coeffs, [0.0, 0.0, 1.0, 1.0])

    def test_finite_difference_random(self):
        rng = np.random.default_rng(11)
        for n, d in [(5, 2), (6, 3)]:
            basis = subset_basis(n, d)
            f = MultiAffinePoly(basis, rng.standard_normal(basis.size))
            i = int(rng.integers(n))
            df = f.derivative((i,))
            for _ in range(10):
                p = rng.standard_normal(n)
                pp = p.copy(); pm = p.copy()
                pp[i] += 1e-3; pm[i] -= 1e-3
                fd = (f.evaluate(pp) - f.evaluate(pm)) / 2e-3
                assert df.evaluate(p) == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_too_many_derivatives(self):
        with pytest.raises(ValueError):
            elementary_symmetric(3, 1).derivative((0, 1))


class TestRestrictLine:
    def test_product_two_vars(self):
        f = MultiAffinePoly(subset_basis(2, 2), [1.0])
        assert np.allclose(f.restrict_line([1.0, -1.0]), [-1.0, 0.0, 1.0])

    def test_linear(self):
        f = elementary_symmetric(2, 1)
        a, b = 0.3, -1.2
        assert np.allclose(f.restrict_line([a, b]), [-(a + b), 2.0])

    def test_zero_direction(self):
        f = MultiAffinePoly(subset_basis(2, 2), [1.0])
        assert np.allclose(f.restrict_line([0.0, 0.0]), [0.0, 0.0, 1.0])

    def test_leading_coefficient_is_value_at_ones(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, n + 1))
            basis = subset_basis(n, d)
            f = MultiAffinePoly(basis, rng.standard_normal(basis.size))
            line = f.restrict_line(rng.standard_normal(n))
            assert line[-1] == pytest.approx(f.value_at_ones(), rel=1e-9, abs=1e-12)

    def test_matches_pointwise_evaluation_after_derivative(self):
        # restriction of a partial derivative agrees with evaluating that
        # derivative along the line
        rng = np.random.default_rng(17)
        for n, d in [(5, 3), (6, 4)]:
            basis = subset_basis(n, d)
            f = MultiAffinePoly(basis, rng.standard_normal(basis.size))
            s = tuple(rng.choice(n, size=d - 2, replace=False))
            q = f.derivative(s)
            y = rng.standard_normal(n)
            line = q.restrict_line(y)
            for t in rng.standard_normal(5):
                direct = q.evaluate(t * np.ones(n) - y)
                via = sum(c * t**k for k, c in enumerate(line))
                assert via == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_hom_poly_restriction(self):
        # ((t - a)^2 + (t + a)^2)/2 = t^2 + a^2 for direction (a, -a)
        f = HomPoly(2, 2, (2, 2), {(2, 0): 0.5, (0, 2): 0.5})
        a = 1 / math.sqrt(2)
        assert np.allclose(f.restrict_line([a, -a]), [a * a, 0.0, 1.0])


class TestHessian:
    def test_elementary_three_vars(self):
        H = hessian_quadratic(elementary_symmetric(3, 2))
        assert np.allclose(H, np.ones((3, 3)) - np.eye(3))
        assert np.allclose(sorted(np.linalg.eigvalsh(H)), [-1.0, -1.0, 2.0])

    def test_single_pair(self):
        H = hessian_quadratic(MultiAffinePoly(subset_basis(2, 2), [1.0]))
        assert np.allclose(H, [[0.0, 1.0], [1.0, 0.0]])

    def test_boundary_example_eigenvalues(self):
        f = MultiAffinePoly(subset_basis(3, 2), [0.5, 0.5, 0.0])
        H = hessian_quadratic(f)
        assert np.allclose(H, [[0, 0.5, 0.5], [0.5, 0, 0], [0.5, 0, 0]])
        r = 1 / math.sqrt(2)
        assert np.allclose(sorted(np.linalg.eigvalsh(H)), [-r, 0.0, r], atol=1e-12)

    def test_reconstructs_quadratic(self):
        rng = np.random.default_rng(23)
        basis = subset_basis(5, 2)
        f = MultiAffinePoly(basis, rng.standard_normal(basis.size))
        H = hessian_quadratic(f)
        for _ in range(5):
            w = rng.standard_normal(5)
            assert 0.5 * w @ H @ w == pytest.approx(f.evaluate(w), rel=1e-12, abs=1e-12)

    def test_hom_poly_diagonal(self):
        f = HomPoly(2, 2, (2, 2), {(2, 0): 1 / 6, (1, 1): 4 / 6, (0, 2): 1 / 6})
        H = hessian_quadratic(f)
        assert np.allclose(H, [[1 / 3, 2 / 3], [2 / 3, 1 / 3]])
        assert np.allclose(sorted(np.linalg.eigvalsh(H)), [-1 / 3, 1.0])

    def test_wrong_degree(self):
        with pytest.raises(ValueError):
            hessian_quadratic(elementary_symmetric(4, 3))

    def test_support_outside_variables(self):
        with pytest.raises(ValueError):
            hessian_quadratic(elementary_symmetric(3, 2), [0, 1])


class TestPlumbing:
    def test_add_sub_scale_norm(self):
        basis = subset_basis(4, 2)
        rng = np.random.default_rng(1)
        a = MultiAffinePoly(basis, rng.standard_normal(basis.size))
        b = MultiAffinePoly(basis, rng.standard_normal(basis.size))
        assert np.allclose((a + b).coeffs, a.coeffs + b.coeffs)
        assert np.allclose((a - b).coeffs, a.coeffs - b.coeffs)
        assert np.allclose((2.5 * a).coeffs, 2.5 * a.coeffs)
        assert a.l2_norm() == pytest.approx(float(np.linalg.norm(a.coeffs)))

    def test_support_tolerance(self):
        basis = subset_basis(3, 2)
        f = MultiAffinePoly(basis, [1.0, 1e-15, 0.5])
        assert f.support() == ((0, 1), (1, 2))
        assert f.support(tol=1e-16) == ((0, 1), (0, 2), (1, 2))

    def test_coeffs_read_only(self):
        f = elementary_symmetric(3, 2)
        with pytest.raises(ValueError):
            f.coeffs[0] = 2.0

    def test_to_hom_roundtrip_values(self):
        rng = np.random.default_rng(9)
        basis = subset_basis(4, 2)
        f = MultiAffinePoly(basis, rng.standard_normal(basis.size))
        g = f.to_hom()
        p = rng.standard_normal(4)
        assert g.evaluate(p) == pytest.approx(f.evaluate(p), rel=1e-12)

    def test_hom_validation(self):
        with pytest.raises(ValueError):
            HomPoly(2, 2, (1, 1), {(2, 0): 1.0})
        with pytest.raises(ValueError):
            HomPoly(2, 2, (2, 2), {(1, 0): 1.0})
        with pytest.raises(ValueError):
            HomPoly(2, 2, (2, 0), {(1, 1): 1.0})

    def test_normalize_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            normalize_at_ones(MultiAffinePoly(subset_basis(2, 1), [1.0, -1.0]))


class TestCompositions:
    def test_counts_without_caps(self):
        for n, d in [(3, 4), (4, 2), (2, 5)]:
            got = list(compositions(d, n))
            assert len(got) == math.comb(n + d - 1, d)
            assert len(set(got)) == len(got)
            assert all(sum(a) == d for a in got)

    def test_caps_filter(self):
        got = set(compositions(2, 2, caps=(1, 2)))
        assert got == {(0, 2), (1, 1)}
