"""Tests for the certification kernels and the three certifiers, with
independent oracles: closed-form discriminants, explicit eigenvalues,
derivative identities, and a sampled line-restriction interior check."""

import itertools
import math

import numpy as np
import pytest

from lorentzflow.certify import (
    RootClass,
    VerdictStatus,
    _checked_eigh,
    _signatures,
    certify_hom,
    certify_multiaffine,
    certify_stable,
    hermite_matrix,
    real_rooted,
    sample_sphere_sumzero,
)
from lorentzflow.poly import (
    HomPoly,
    MultiAffinePoly,
    elementary_symmetric,
    hessian_quadratic,
    normalize_at_ones,
    subset_basis,
)
from lorentzflow.polarization import stable_center
from lorentzflow.samples import random_form_product


def _eigen(H):
    """Ascending eigenvalues and eigenvectors of one symmetric matrix,
    through the stacked kernel with its invariant checks."""
    w, V = _checked_eigh(np.asarray(H, dtype=float)[None])
    return w[0], V[0]


def _signature(H, tol=1e-9):
    """Signature class of one symmetric matrix, and its eigenvalues."""
    w, _ = _eigen(H)
    fail, strict = _signatures(w[None], tol)
    label = "fail" if fail[0] else "strict" if strict[0] else "at_most_one_positive"
    return label, w


class TestSymmetricEigen:
    def test_swap(self):
        w, _ = _eigen([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(w, [-1.0, 1.0])

    def test_flat_minus_identity(self):
        w, _ = _eigen(np.ones((3, 3)) - np.eye(3))
        assert np.allclose(w, [-1.0, -1.0, 2.0], atol=1e-12)

    def test_identity(self):
        w, _ = _eigen(np.eye(4))
        assert np.allclose(w, 1.0)

    def test_invariants_on_random_matrices(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            m = int(rng.integers(2, 8))
            A = rng.standard_normal((m, m))
            H = A + A.T
            w, V = _eigen(H)
            recon = (V * w) @ V.T
            assert np.linalg.norm(recon - H) <= 1e-9 * max(1.0, np.linalg.norm(H))
            assert np.linalg.norm(V.T @ V - np.eye(m)) <= 1e-10 * m
            assert np.all(np.diff(w) >= -1e-12)


class TestSignature:
    def test_elementary_hessian_is_strict(self):
        H = hessian_quadratic(elementary_symmetric(3, 2))
        label, eigs = _signature(H)
        assert label == "strict"
        assert np.allclose(sorted(eigs), [-1, -1, 2])

    def test_boundary_matrix(self):
        H = np.array([[0, 0.5, 0.5], [0.5, 0, 0], [0.5, 0, 0]])
        label, eigs = _signature(H)
        assert label == "at_most_one_positive"
        r = 1 / math.sqrt(2)
        assert np.allclose(sorted(eigs), [-r, 0.0, r], atol=1e-12)

    def test_two_positive_fails(self):
        label, _ = _signature(np.eye(2))
        assert label == "fail"

    def test_zero_matrix_within_tolerance(self):
        label, _ = _signature(np.zeros((3, 3)))
        assert label == "at_most_one_positive"


class TestCertifyMultiaffine:
    def test_normalized_elementary_sweep(self):
        for n in range(2, 7):
            for d in range(2, n + 1):
                f = normalize_at_ones(elementary_symmetric(n, d))
                assert certify_multiaffine(f).status is VerdictStatus.STRICT_INTERIOR, (n, d)

    def test_single_product_monomial(self):
        f = MultiAffinePoly(subset_basis(2, 2), [1.0])
        assert certify_multiaffine(f).status is VerdictStatus.STRICT_INTERIOR

    def test_boundary_two_terms(self):
        f = MultiAffinePoly(subset_basis(3, 2), [0.5, 0.5, 0.0])
        assert certify_multiaffine(f).status is VerdictStatus.BOUNDARY_WITHIN_TOL

    def test_degree_one_cases(self):
        strict = MultiAffinePoly(subset_basis(3, 1), [0.5, 0.3, 0.2])
        assert certify_multiaffine(strict).status is VerdictStatus.STRICT_INTERIOR
        edge = MultiAffinePoly(subset_basis(3, 1), [0.5, 0.5, 0.0])
        assert certify_multiaffine(edge).status is VerdictStatus.BOUNDARY_WITHIN_TOL

    def test_negative_coefficient_rejected_with_witness(self):
        f = MultiAffinePoly(subset_basis(3, 1), [0.6, 0.6, -0.2])
        v = certify_multiaffine(f)
        assert v.status is VerdictStatus.REJECTED
        assert v.witness["kind"] == "negative_coefficient"
        assert v.witness["subset"] == [2]

    def test_disconnected_support_rejected_by_hessian(self):
        # (w0 w1 + w2 w3)/2: two disjoint pairs, two positive eigenvalues
        basis = subset_basis(4, 2)
        coeffs = np.zeros(6)
        coeffs[basis.rank((0, 1))] = 0.5
        coeffs[basis.rank((2, 3))] = 0.5
        f = MultiAffinePoly(basis, coeffs)
        v = certify_multiaffine(f)
        assert v.status is VerdictStatus.REJECTED
        assert v.witness["kind"] == "hessian_signature"

    def test_unnormalized_is_domain_error(self):
        with pytest.raises(ValueError, match="normalized"):
            certify_multiaffine(elementary_symmetric(3, 2))

    def test_rejection_confirmed_by_sampled_line_oracle(self):
        # brute-force interior check: an interior polynomial must give a
        # strictly positive discriminant for the restriction of every
        # (d-2)-fold derivative along every sum-zero direction
        def min_disc(f, n_dirs=1000, seed=99):
            worst = np.inf
            for s in itertools.combinations(range(f.n), f.d - 2):
                q = f.derivative(s)
                live = [i for i in range(f.n) if i not in s]
                for y_small in sample_sphere_sumzero(len(live), n_dirs, seed):
                    y = np.zeros(f.n)
                    y[live] = y_small
                    c = q.restrict_line(y)
                    worst = min(worst, c[1] ** 2 - 4 * c[2] * c[0])
            return worst

        coeffs = np.zeros(6)
        basis = subset_basis(4, 2)
        coeffs[basis.rank((0, 1))] = 0.5
        coeffs[basis.rank((2, 3))] = 0.5
        rejected = MultiAffinePoly(basis, coeffs)
        assert certify_multiaffine(rejected).status is VerdictStatus.REJECTED
        assert min_disc(rejected) < 1e-12

        interior = normalize_at_ones(elementary_symmetric(4, 2))
        assert min_disc(interior) > 0.0


class TestCertifyHom:
    def test_collapsed_square_strict(self):
        f = HomPoly(2, 2, (2, 2), {(2, 0): 1 / 6, (1, 1): 4 / 6, (0, 2): 1 / 6})
        assert certify_hom(f).status is VerdictStatus.STRICT_INTERIOR

    def test_univariate_square_is_strict(self):
        # the capped space with one variable is a single point, so the
        # point is its own interior; the lift is a bare product monomial
        # which certifies strict, and a direct line check agrees (the only
        # restriction is (t - y)^2 with y forced to 0 on the sum-zero
        # sphere of one coordinate, which never exists, so no direction
        # can falsify it)
        f = HomPoly(1, 2, (2,), {(2,): 1.0})
        assert certify_hom(f).status is VerdictStatus.STRICT_INTERIOR

    def test_sum_of_squares_rejected(self):
        f = HomPoly(2, 2, (2, 2), {(2, 0): 0.5, (0, 2): 0.5})
        v = certify_hom(f)
        assert v.status is VerdictStatus.REJECTED
        assert v.witness["kind"] == "hessian_signature"
        assert v.witness["exponent"] == [0, 0]
        assert np.allclose(v.witness["eigenvalues"], [0.5, 0.5, -0.5, -0.5], rtol=0, atol=1e-12)

    def test_cap_violation_is_domain_error(self):
        f = HomPoly(2, 3, (3, 3), {(3, 0): 0.5, (0, 3): 0.5})
        # rebuilding with tighter caps must fail before certification
        with pytest.raises(ValueError):
            HomPoly(2, 3, (2, 3), f.terms)


class TestHermiteKernel:
    def test_hankel_examples(self):
        assert np.allclose(hermite_matrix([-1, 0, 1]), [[2, 0], [0, 2]])
        assert np.allclose(hermite_matrix([1, 0, 1]), [[2, 0], [0, -2]])
        assert np.allclose(hermite_matrix([1, -2, 1]), [[2, 2], [2, 2]])

    def test_power_sums_against_roots(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            roots = rng.standard_normal(int(rng.integers(2, 6)))
            coeffs = np.array([1.0])
            for r in roots:
                coeffs = np.convolve(coeffs, [-r, 1.0])
            H = hermite_matrix(coeffs)
            m = len(roots)
            for i in range(m):
                for j in range(m):
                    assert H[i, j] == pytest.approx(
                        float(np.sum(roots ** (i + j))), rel=1e-8, abs=1e-8
                    )

    def test_root_classification_examples(self):
        assert real_rooted([-1, 0, 1]).kind is RootClass.ALL_REAL_DISTINCT
        assert real_rooted([1, -2, 1]).kind is RootClass.ALL_REAL_WITH_TIES
        assert real_rooted([1, 0, 1]).kind is RootClass.NOT_ALL_REAL

    def test_degree_drop_is_flagged(self):
        r = real_rooted([-1.0, 0.0, 1.0, 1e-20])
        assert r.degree_dropped
        assert r.kind is RootClass.ALL_REAL_DISTINCT

    def test_zero_polynomial_is_domain_error(self):
        with pytest.raises(ValueError):
            real_rooted([0.0, 0.0])
        with pytest.raises(ValueError):
            hermite_matrix([0.0])

    def test_agreement_with_quadratic_discriminant(self):
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 1000:
            c = rng.standard_normal(3)
            if abs(c[2]) < 0.1:
                continue
            disc = c[1] ** 2 - 4 * c[2] * c[0]
            if abs(disc) < 1e-10:
                continue
            want = RootClass.ALL_REAL_DISTINCT if disc > 0 else RootClass.NOT_ALL_REAL
            assert real_rooted(c).kind is want
            checked += 1

    def test_agreement_with_cubic_discriminant(self):
        rng = np.random.default_rng(54)
        checked = 0
        while checked < 1000:
            d0, c1, b2, a3 = rng.standard_normal(4)
            if abs(a3) < 0.1:
                continue
            disc = (
                18 * a3 * b2 * c1 * d0
                - 4 * b2**3 * d0
                + b2**2 * c1**2
                - 4 * a3 * c1**3
                - 27 * a3**2 * d0**2
            )
            if abs(disc) < 1e-10:
                continue
            want = RootClass.ALL_REAL_DISTINCT if disc > 0 else RootClass.NOT_ALL_REAL
            assert real_rooted([d0, c1, b2, a3]).kind is want
            checked += 1


class TestSphereSampler:
    def test_two_coordinates(self):
        pts = sample_sphere_sumzero(2, 16, seed=1)
        r = 1 / math.sqrt(2)
        for p in pts:
            assert np.allclose(np.abs(p), r, atol=1e-12)

    def test_sum_and_norm(self):
        pts = sample_sphere_sumzero(6, 100, seed=2)
        assert np.max(np.abs(pts.sum(axis=1))) <= 1e-12
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-12

    def test_deterministic(self):
        a = sample_sphere_sumzero(4, 32, seed=7)
        b = sample_sphere_sumzero(4, 32, seed=7)
        assert np.array_equal(a, b)

    def test_needs_two_coordinates(self):
        with pytest.raises(ValueError):
            sample_sphere_sumzero(1, 4, seed=0)


class TestCertifyStable:
    def test_product_monomial_line(self):
        f = MultiAffinePoly(subset_basis(2, 2), [1.0])
        y = np.array([1.0, -1.0]) / math.sqrt(2)
        line = f.restrict_line(y)
        assert np.allclose(line, [-0.5, 0.0, 1.0])
        assert real_rooted(line).kind is RootClass.ALL_REAL_DISTINCT
        assert certify_stable(f).status is VerdictStatus.STRICT_INTERIOR

    def test_sum_of_squares_rejected_with_direction(self):
        f = HomPoly(2, 2, (2, 2), {(2, 0): 0.5, (0, 2): 0.5})
        v = certify_stable(f)
        assert v.status is VerdictStatus.REJECTED
        y = np.array(v.witness["direction"])
        assert abs(y.sum()) < 1e-9
        line = np.array(v.witness["line_coefficients"])
        assert line[0] == pytest.approx(0.5, abs=1e-9)

    def test_normalized_elementary_all_shapes(self):
        for n in range(2, 7):
            for d in range(1, n + 1):
                f = normalize_at_ones(elementary_symmetric(n, d)).to_hom()
                v = certify_stable(f, directions=64, seed=5)
                assert v.status is not VerdictStatus.REJECTED, (n, d)

    def test_univariate_trivially_accepted(self):
        f = HomPoly(1, 3, (3,), {(3,): 1.0})
        assert certify_stable(f).status is VerdictStatus.STRICT_INTERIOR

    def test_center_interior_small_shapes(self):
        for n, d in [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)]:
            v = certify_stable(stable_center(n, d), directions=128, seed=9)
            assert v.status is VerdictStatus.STRICT_INTERIOR, (n, d)

    def test_products_are_stable_and_lorentzian(self):
        # random products of nonnegative linear forms never reject, under
        # either certificate; stability implies the Lorentzian membership,
        # so the lifted verdict must be boundary or better every time
        rng = np.random.default_rng(56)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            d = int(rng.integers(1, 4))
            f = random_form_product(n, d, rng)
            assert certify_stable(f, directions=32, seed=3).is_member
            assert certify_hom(f).is_member

    def test_negative_coefficient_rejected(self):
        f = HomPoly(2, 2, (2, 2), {(2, 0): 0.6, (1, 1): 0.6, (0, 2): -0.2})
        v = certify_stable(f)
        assert v.status is VerdictStatus.REJECTED
        assert v.witness["kind"] == "negative_coefficient"


class TestDerivativeIdentity:
    def test_elementary_restriction_is_scaled_derivative(self):
        # (n-d)! times the restriction of the degree-d elementary
        # polynomial along y equals the (n-d)-th derivative of the monic
        # polynomial with roots y
        rng = np.random.default_rng(57)
        for n in range(2, 7):
            for d in range(0, n + 1):
                e = elementary_symmetric(n, d)
                for _ in range(5):
                    y = rng.standard_normal(n)
                    p = np.array([1.0])
                    for r in y:
                        p = np.convolve(p, [-r, 1.0])
                    for _ in range(n - d):
                        p = np.array([k * p[k] for k in range(1, p.size)])
                    got = math.factorial(n - d) * e.restrict_line(y)
                    scale = max(1.0, float(np.max(np.abs(p))))
                    assert np.allclose(got, p, atol=1e-9 * scale), (n, d)

    def test_distinct_roots_when_few_ties_in_direction(self):
        # directions with at most n-d+1 equal coordinates restrict the
        # elementary polynomial to a polynomial with distinct real roots
        rng = np.random.default_rng(58)
        for n, d in [(4, 2), (5, 3), (6, 3)]:
            e = normalize_at_ones(elementary_symmetric(n, d))
            for _ in range(20):
                y = rng.standard_normal(n)
                assert real_rooted(e.restrict_line(y)).kind is RootClass.ALL_REAL_DISTINCT
