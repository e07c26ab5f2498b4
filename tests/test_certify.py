"""Tests for the certification kernels and the three certifiers, with
independent oracles: closed-form discriminants, explicit eigenvalues,
derivative identities, and a sampled line-restriction interior check."""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from certify_reference import RootClass, hessian_quadratic, real_rooted
from lorentzflow import certify as C
from lorentzflow.ballmap import stable_oracle
from lorentzflow.certify import (
    VerdictStatus,
    _checked_eigh,
    _hankel,
    _proved_distinct,
    _proved_strict,
    _signatures,
    _trim_rows,
    certify_hom,
    certify_multiaffine,
    certify_stable,
    sample_sphere_sumzero,
)
from lorentzflow.poly import (
    HomPoly,
    MultiAffinePoly,
    elementary_symmetric,
    normalize_at_ones,
    subset_basis,
)
from lorentzflow.polarization import stable_center
from lorentzflow.samples import random_disjoint_form_product, random_form_product


def hermite_matrix(coeffs):
    """Hankel matrix of root power sums of one polynomial, trimmed of
    degenerate leading coefficients, through the stacked kernel."""
    c = np.asarray(coeffs, dtype=float).reshape(1, -1)
    deg = _trim_rows(c)
    return _hankel(c[:, : deg[0] + 1])[0]


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


def _with_spectrum(w, rng, tilt=0.0):
    """Symmetric matrix with eigenvalues w whose eigenvector of w[0] is
    the ones vector, tilted by ``tilt`` times Gaussian noise."""
    k = len(w)
    X = rng.standard_normal((k, k))
    X[:, 0] = 1.0 + tilt * rng.standard_normal(k)
    V, _ = np.linalg.qr(X)
    Q = (V * np.asarray(w, dtype=float)) @ V.T
    return (Q + Q.T) / 2


def _row_signature(Q, rest, tol):
    """(fail, strict) of one lifted row: eig(Q) through the checked
    eigensolve, then the within-block values."""
    w = np.sort(np.concatenate([_checked_eigh(Q[None])[0][0], rest]))
    fail, strict = _signatures(w[None], tol)
    return bool(fail[0]), bool(strict[0])


class TestStrictProof:
    """``_proved_strict`` accepts only rows that ``_signatures`` calls
    strict, and declines every row it cannot prove."""

    def test_declines_second_eigenvalue_between_slack_and_cutoff(self):
        tol, k = 1e-3, 6
        others = [1.0] + [-1.0] * (k - 2)
        # the cutoff counts the trace norm, the slack bounds it by sqrt(k) ||Q||_F
        lam2 = -tol * (np.abs(others).sum() + math.sqrt(k) * np.linalg.norm(others)) / 2
        w = [others[0], lam2, *others[1:]]
        Q = _with_spectrum(w, np.random.default_rng(1))
        cutoff = tol * np.abs(w).sum()
        slack_floor = tol * math.sqrt(k) * np.linalg.norm(Q)
        assert cutoff < -lam2 < slack_floor
        assert _row_signature(Q, np.empty(0), tol) == (False, True)
        assert not _proved_strict(Q[None], np.empty((1, 0)), tol)

    def test_declines_two_positive_eigenvalues(self):
        Q = _with_spectrum([1.0, 0.5, -1.0, -1.0], np.random.default_rng(2))
        assert _row_signature(Q, np.empty(0), 1e-9) == (True, False)
        assert not _proved_strict(Q[None], np.empty((1, 0)), 1e-9)

    def test_declines_a_within_block_value_above_slack(self):
        Q = np.ones((4, 4)) - np.eye(4)
        assert _proved_strict(Q[None], np.array([[-1.0, -0.5]]), 1e-9)
        for value in (0.0, -0.5e-9):
            rest = np.array([-1.0, value])
            assert not _proved_strict(Q[None], rest[None], 1e-9)
            assert _row_signature(Q, rest, 1e-9) == (False, False)

    def test_negative_tol_proves_nothing(self):
        # a negative tol lowers the cut of _signatures below zero, where
        # the slack no longer bounds it
        Q = np.ones((4, 4)) - np.eye(4)
        assert _proved_strict(Q[None], np.empty((1, 0)), 0.0)
        for tol in (-1e-4, float("nan")):
            assert not _proved_strict(Q[None], np.empty((1, 0)), tol)
        # c01 = c23 = 2y + delta, every other pair y: the Hessian has a
        # second positive eigenvalue of about delta, inside the cut at
        # -1e-4, which the certificate refuses before any work
        delta = 1e-5
        y = (1 - 2 * delta) / 8
        basis = subset_basis(4, 2)
        coeffs = np.full(basis.size, y)
        coeffs[[basis.rank((0, 1)), basis.rank((2, 3))]] = 2 * y + delta
        with pytest.raises(ValueError, match="finite and nonnegative"):
            certify_multiaffine(MultiAffinePoly(basis, coeffs), tol=-1e-4)

    def test_each_flag_is_its_own_matrix(self):
        # a mixed stack: accepted, declined by the factorization, by a
        # pivot and by the first checks; each flag is the one-matrix call's
        rng = np.random.default_rng(38)
        for k in (2, 3, 5, 8):
            for tol in (1e-9, 0.0):
                Qs, rests = [], []
                for second in (-0.5, -1e-3, -tol, 0.0, 1e-3, 0.5):
                    for tilt in (0.0, 0.3):
                        Qs.append(_with_spectrum([1.0, second] + [-1.0] * (k - 2), rng, tilt))
                        rests.append(-rng.uniform(0.1, 1.0, size=2))
                Qs.append(-np.ones((k, k)))  # fails the Rayleigh check
                rests.append(np.array([-1.0, -0.5]))
                Qs.append(np.ones((k, k)) - np.eye(k))
                rests.append(np.array([-1.0, 0.0]))  # a within-block value above -slack
                order = rng.permutation(len(Qs))
                Q, rest = np.array(Qs)[order], np.array(rests)[order]
                flags = _proved_strict(Q, rest, tol)
                alone = [bool(_proved_strict(Q[i : i + 1], rest[i : i + 1], tol)[0]) for i in range(len(Q))]
                assert flags.tolist() == alone, (k, tol)
                assert 0 < sum(alone) < len(alone), (k, tol)
                # the accepted ones alone take the stacked path
                accepted = np.flatnonzero(flags)
                assert _proved_strict(Q[accepted], rest[accepted], tol).all()

    def test_accepted_rows_are_strict(self):
        # lambda_2 on both sides of the cutoff, up to rounding distance
        rng = np.random.default_rng(36)
        accepted = declined = 0
        for k in range(2, 17):
            for tol in (1e-9, 0.0, 1e-6, -1e-4):
                for offset in (-1e-3, -1e-9, -1e-13, 0.0, 1e-13, 1e-9, 1e-3):
                    for tilt in (0.0, 0.3):
                        rest = -rng.uniform(0.1, 1.0, size=int(rng.integers(0, 4)))
                        lower = -rng.uniform(0.1, 1.0, size=k - 2)
                        top = 1.0 + rng.uniform()
                        total = top + np.abs(lower).sum() + np.abs(rest).sum()
                        cutoff = tol * max(1.0, total)
                        cutoff = tol * max(1.0, total + cutoff)
                        w = [top, -cutoff - offset, *lower]
                        Q = _with_spectrum(w, rng, tilt)
                        if _proved_strict(Q[None], rest[None], tol):
                            accepted += 1
                            assert _row_signature(Q, rest, tol) == (False, True), (k, tol, offset, tilt)
                        else:
                            declined += 1
        assert accepted > 0 and declined > 0


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


def _pair_line(others, centre, x):
    """Ascending coefficients of the monic polynomial with roots
    ``others`` and a pair around ``centre``: real at centre -/+ x for
    x > 0, complex at centre -/+ i|x| for x < 0."""
    coeffs = np.array([centre * centre - x * abs(x), -2.0 * centre, 1.0])
    for r in others:
        coeffs = np.convolve(coeffs, [-r, 1.0])
    return coeffs


def _gap(lines, tol):
    """Per line of one degree: the smallest Hankel eigenvalue less the
    cut tol * max(1, trace) of ``_root_classes``, over that scale; with the
    Hankel matrices and their scales."""
    H = _hankel(lines)
    scale = np.maximum(1.0, np.trace(H, axis1=1, axis2=2))
    return (np.linalg.eigvalsh(H)[:, 0] - tol * scale) / scale, H, scale


class TestHankelProof:
    """``_proved_distinct`` proves only lines that the eigenvalue calls
    distinct, right at its cut too, and a negative or NaN tol proves
    nothing."""

    OFFSETS = (0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1e-3, -1e-3)

    @staticmethod
    def _lines(m, tol, rng, cases=3):
        """Lines of degree m whose smallest Hankel eigenvalue sits at the
        cut plus each offset times the scale: the pair's gap bisected to
        adjacent floats on both sides of every target, with the lines of a
        grid of gaps through the crossing. The other roots are jittered
        Chebyshev points, which keep the Hankel matrices as well
        conditioned as real roots allow; all roots lie in the unit disc."""
        chebyshev = np.cos(np.pi * (2 * np.arange(m - 2) + 1) / (2 * max(m - 2, 1)))
        others = 0.9 * chebyshev + rng.uniform(-0.05, 0.05, size=(cases, m - 2))
        centres = rng.uniform(-0.5, 0.5, size=cases)
        make = lambda xs: np.array([_pair_line(o, c, x) for o, c, x in zip(others, centres, xs)])
        lines = [make(np.full(cases, x)) for x in np.concatenate([-np.geomspace(0.4, 1e-8, 9), np.geomspace(1e-8, 0.4, 9)])]
        for offset in TestHankelProof.OFFSETS:
            lo, hi = np.full(cases, -0.4), np.full(cases, 0.4)
            below, above = (_gap(make(x), tol)[0] < offset for x in (lo, hi))
            keep = below & ~above  # the crossing lies inside [-0.4, 0.4]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                low = _gap(make(mid), tol)[0] < offset
                lo, hi = np.where(low, mid, lo), np.where(low, hi, mid)
            lines += [make(lo)[keep], make(hi)[keep]]
        return np.concatenate(lines)

    @pytest.mark.parametrize("tol", [1e-9, 0.0, 1e-6])
    def test_proved_lines_are_distinct(self, tol):
        rng = np.random.default_rng(40)
        proved_any = declined_any = 0
        for m in range(2, 17):
            lines = self._lines(m, tol, rng)
            gap, H, scale = _gap(lines, tol)
            proved = _proved_distinct(H, scale, tol)
            # distinct under eigvalsh alone: the smallest eigenvalue clears the cut
            assert (gap[proved] > 0).all(), (m, tol, gap[proved].min())
            proved_any += int(proved.sum())
            declined_any += int((~proved & (gap > 0)).sum())
            # the classes of _root_classes are those of the eigenvalue alone
            w0, eff = np.linalg.eigvalsh(H)[:, 0], tol * scale
            want = np.where(w0 > eff, C._DISTINCT, np.where(w0 < -eff, C._COMPLEX, C._TIES))
            assert np.array_equal(C._root_classes(lines, tol), want), (m, tol)
        assert proved_any and declined_any

    def test_negative_or_nan_tol_proves_nothing(self):
        lines = np.array([_pair_line([0.5, -0.5], 0.0, 0.25)])
        H = _hankel(lines)
        scale = np.maximum(1.0, np.trace(H, axis1=1, axis2=2))
        assert _proved_distinct(H, scale, 0.0).all()
        for tol in (-1e-4, float("nan")):
            assert not _proved_distinct(H, scale, tol).any()

    def test_each_flag_is_its_own_line(self):
        rng = np.random.default_rng(41)
        for m in (2, 3, 5, 8):
            lines = self._lines(m, 1e-9, rng, cases=2)
            lines = lines[rng.permutation(len(lines))]
            H = _hankel(lines)
            scale = np.maximum(1.0, np.trace(H, axis1=1, axis2=2))
            flags = _proved_distinct(H, scale, 1e-9)
            alone = [bool(_proved_distinct(H[i : i + 1], scale[i : i + 1], 1e-9)[0]) for i in range(len(H))]
            assert flags.tolist() == alone
            assert 0 < sum(alone) < len(alone)


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

    @pytest.mark.parametrize("directions, seed", [(0, 1729), (-3, -2), (64, -1)])
    def test_bad_sampling_is_refused_before_any_work(self, directions, seed):
        # a linear form and a single variable take no sample at all, and
        # were once certified strict with no direction
        for f in (normalize_at_ones(elementary_symmetric(3, 1)), HomPoly(1, 3, (3,), {(3,): 1.0})):
            with pytest.raises(ValueError, match="direction|seed"):
                certify_stable(f, directions, seed)
        with pytest.raises(ValueError, match="direction|seed"):
            sample_sphere_sumzero(3, directions, seed)
        with pytest.raises(ValueError, match="direction|seed"):
            stable_oracle(directions, seed)

    def test_negative_coefficient_rejected(self):
        f = HomPoly(2, 2, (2, 2), {(2, 0): 0.6, (1, 1): 0.6, (0, 2): -0.2})
        v = certify_stable(f)
        assert v.status is VerdictStatus.REJECTED
        assert v.witness["kind"] == "negative_coefficient"

    def test_negative_multiaffine_coefficient_names_its_exponent(self):
        # x0 x3 at n = 6: the witness is its 0/1 exponent, not the subset
        basis = subset_basis(6, 2)
        coeffs = np.full(basis.size, 0.1)
        coeffs[basis.rank((0, 3))] = -0.5
        f = normalize_at_ones(MultiAffinePoly(basis, coeffs))
        assert certify_stable(f).witness == {
            "kind": "negative_coefficient", "exponent": [1, 0, 0, 1, 0, 0], "value": f.coeffs[basis.rank((0, 3))]}

    def test_unstored_zero_coefficients_count(self):
        # x0 (x1 + x2) / 2: the coefficient of x1 x2 is zero however it is
        # stored, so all three forms get the one verdict
        f = MultiAffinePoly(subset_basis(3, 2), [0.5, 0.5, 0.0])
        explicit = HomPoly(3, 2, (1, 1, 1), {(1, 1, 0): 0.5, (1, 0, 1): 0.5, (0, 1, 1): 0.0})
        verdicts = [certify_stable(g) for g in (f, f.to_hom(), explicit)]
        assert verdicts[0].status is VerdictStatus.BOUNDARY_WITHIN_TOL
        assert verdicts[1] == verdicts[0] and verdicts[2] == verdicts[0]
        # a capped polynomial with an in-cap exponent left out is on the
        # boundary too
        assert certify_stable(HomPoly(2, 2, (2, 2), {(2, 0): 0.5, (1, 1): 0.5})).status is VerdictStatus.BOUNDARY_WITHIN_TOL


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


def test_certify_imports_no_flow_module():
    # the certificate reads the exponent layout and the lift's values from
    # poly; the flow modules import it, never the other way round
    tree = ast.parse((Path(__file__).resolve().parents[1] / "src" / "lorentzflow" / "certify.py").read_text())
    relative = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    assert relative == {"poly", "strata"}


class TestRefusedTolerance:
    """Every certificate refuses a tolerance outside [0, inf), NaN
    included, before any work."""

    @pytest.mark.parametrize("tol", [float("nan"), math.inf, -0.5, -1e-4])
    def test_refused_before_the_normalization_check(self, tol):
        for f in (normalize_at_ones(elementary_symmetric(4, 2)), elementary_symmetric(4, 2)):
            for certify in (certify_multiaffine, lambda g, t: certify_hom(g.to_hom(), t),
                            lambda g, t: certify_stable(g, tol=t)):
                with pytest.raises(ValueError, match="finite and nonnegative"):
                    certify(f, tol)


def test_empty_support():
    # every coefficient of normalized e_2(4) is 1/6, within tol = 0.5, and
    # no Hessian fails at that cut
    f = normalize_at_ones(elementary_symmetric(4, 2))
    for verdict in (certify_multiaffine(f, 0.5), certify_hom(f.to_hom(), 0.5)):
        assert verdict.status is VerdictStatus.REJECTED
        assert verdict.witness == {"kind": "empty_support"}


class TestCheckedEigh:
    """The certificate checks what the eigensolver returns. A boundary
    input, whose block ``_proved_strict`` declines, reaches it."""

    @pytest.fixture()
    def boundary(self):
        f = random_disjoint_form_product(subset_basis(6, 3), np.random.default_rng(0))
        assert certify_multiaffine(f).status is VerdictStatus.BOUNDARY_WITHIN_TOL
        return f

    @staticmethod
    def _patch(monkeypatch, change):
        eigh = np.linalg.eigh

        def changed(H):
            w, V = eigh(H)
            return change(w.copy(), V.copy())

        monkeypatch.setattr(np.linalg, "eigh", changed)

    def test_bent_eigenvector(self, boundary, monkeypatch):
        # twice the first eigenvector with a quarter of its eigenvalue: the
        # same matrix, bit for bit, from vectors that are not orthonormal
        def bend(w, V):
            V[..., 0] *= 2.0
            w[..., 0] /= 4.0
            return w, V

        self._patch(monkeypatch, bend)
        with pytest.raises(RuntimeError, match="orthonormality"):
            certify_multiaffine(boundary)

    def test_shifted_eigenvalue(self, boundary, monkeypatch):
        def shift(w, V):
            w[..., -1] += 1.0
            return w, V

        self._patch(monkeypatch, shift)
        with pytest.raises(RuntimeError, match="reconstruction"):
            certify_multiaffine(boundary)
