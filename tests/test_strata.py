"""Tests for the discrete support checks, cross-validated against
independently written exhaustive oracles and a spectral characterization
for quadratic supports."""

import itertools

import numpy as np
import pytest

from lorentzflow.poly import HomPoly, MultiAffinePoly, subset_basis
from lorentzflow.strata import (
    BasisFamily,
    MConvexCandidate,
    is_m_convex,
    is_matroid_bases,
    support_stratum,
)


def _oracle_exchange_points(points, n):
    """Verbatim restatement of the exponent exchange axiom, collected over
    all violations with no early exit."""
    points = set(points)
    ok = True
    for a in points:
        for b in points:
            for i in range(n):
                if a[i] <= b[i]:
                    continue
                moves = []
                for j in range(n):
                    if a[j] < b[j]:
                        cand = list(a)
                        cand[i] -= 1
                        cand[j] += 1
                        moves.append(tuple(cand) in points)
                ok = ok and any(moves)
    return ok


def _oracle_exchange_bases(bases):
    """Verbatim restatement of basis exchange over frozensets."""
    fam = {frozenset(b) for b in bases}
    ok = True
    for b1 in fam:
        for b2 in fam:
            for x in b1 - b2:
                ok = ok and any((b1 - {x}) | {y} in fam for y in b2 - b1)
    return ok


class TestMConvex:
    def test_uniform_pairs(self):
        cand = MConvexCandidate(3, 2, [(1, 1, 0), (1, 0, 1), (0, 1, 1)])
        assert is_m_convex(cand)

    def test_gap_fails_with_witness(self):
        cand = MConvexCandidate(2, 2, [(2, 0), (0, 2)])
        res = is_m_convex(cand)
        assert not res
        alpha, beta, i = res.witness
        assert {alpha, beta} == {(2, 0), (0, 2)}
        assert alpha[i] > beta[i]

    def test_singleton(self):
        assert is_m_convex(MConvexCandidate(3, 2, [(1, 1, 0)]))

    def test_interval_of_collapsed_square(self):
        assert is_m_convex(MConvexCandidate(2, 2, [(2, 0), (1, 1), (0, 2)]))

    def test_empty_is_domain_error(self):
        with pytest.raises(ValueError):
            is_m_convex(MConvexCandidate(2, 2, []))

    def test_bad_point_rejected(self):
        with pytest.raises(ValueError):
            MConvexCandidate(2, 2, [(1, 0)])


class TestMatroidBases:
    def test_two_overlapping_pairs(self):
        assert is_matroid_bases(BasisFamily(3, 2, [(0, 1), (0, 2)]))

    def test_disjoint_pairs_fail(self):
        res = is_matroid_bases(BasisFamily(4, 2, [(0, 1), (2, 3)]))
        assert not res
        b1, b2, x = res.witness
        assert x in b1 and x not in b2

    def test_all_pairs_uniform(self):
        fam = BasisFamily(4, 2, itertools.combinations(range(4), 2))
        assert is_matroid_bases(fam)

    def test_empty_is_domain_error(self):
        with pytest.raises(ValueError):
            is_matroid_bases(BasisFamily(3, 2, []))


class TestCrossOracles:
    def test_multiaffine_exchange_equals_basis_exchange(self):
        # on 0/1 exponent vectors the two checks must agree; exhaustive
        # over every nonempty family for small ground sets
        for n in range(2, 6):
            for d in range(1, min(n, 3) + 1):
                subsets = list(itertools.combinations(range(n), d))
                if len(subsets) > 10:
                    continue
                for mask in range(1, 2 ** len(subsets)):
                    fam = [s for k, s in enumerate(subsets) if mask >> k & 1]
                    pts = []
                    for s in fam:
                        v = [0] * n
                        for i in s:
                            v[i] = 1
                        pts.append(tuple(v))
                    got_m = bool(is_m_convex(MConvexCandidate(n, d, pts)))
                    got_b = bool(is_matroid_bases(BasisFamily(n, d, fam)))
                    assert got_m == got_b, (n, d, fam)

    def test_matches_verbatim_oracles_on_n4_d2(self):
        subsets = list(itertools.combinations(range(4), 2))
        for mask in range(1, 2 ** len(subsets)):
            fam = [s for k, s in enumerate(subsets) if mask >> k & 1]
            assert bool(is_matroid_bases(BasisFamily(4, 2, fam))) == _oracle_exchange_bases(fam)
        pts_all = [
            tuple(a)
            for a in itertools.product(range(3), repeat=3)
            if sum(a) == 2
        ]
        for mask in range(1, 2 ** len(pts_all)):
            pts = [p for k, p in enumerate(pts_all) if mask >> k & 1]
            got = bool(is_m_convex(MConvexCandidate(3, 2, pts)))
            assert got == _oracle_exchange_points(pts, 3)

    def test_spectral_characterization_rank_two(self):
        # a family of pairs is matroid bases exactly when its adjacency
        # matrix has at most one positive eigenvalue (connected graphs with
        # one positive adjacency eigenvalue are the complete multipartite
        # ones, which are exactly the rank-two matroids)
        subsets = list(itertools.combinations(range(4), 2))
        for mask in range(1, 2 ** len(subsets)):
            fam = [s for k, s in enumerate(subsets) if mask >> k & 1]
            A = np.zeros((4, 4))
            for i, j in fam:
                A[i, j] = A[j, i] = 1.0
            positives = int(np.sum(np.linalg.eigvalsh(A) > 1e-9))
            assert bool(is_matroid_bases(BasisFamily(4, 2, fam))) == (positives <= 1), fam


def test_certified_member_supports_pass_exchange():
    # the support of anything the Lorentzian certificate accepts must
    # satisfy basis exchange (and the exponent exchange through 0/1
    # vectors)
    from lorentzflow.certify import certify_multiaffine
    from mixtures import random_member_mixture

    rng = np.random.default_rng(81)
    for n, d in [(4, 2), (5, 2), (5, 3)]:
        for _ in range(10):
            f = random_member_mixture(subset_basis(n, d), rng)
            assert certify_multiaffine(f).is_member
            report = support_stratum(f, tol=1e-9)
            assert report.check.ok
            pts = []
            for s in report.support.bases:
                v = [0] * n
                for i in s:
                    v[i] = 1
                pts.append(tuple(v))
            assert is_m_convex(MConvexCandidate(n, d, pts))


class TestSupportStratum:
    def test_full_uniform_support(self):
        f = MultiAffinePoly(subset_basis(3, 2), [1 / 3] * 3)
        report = support_stratum(f)
        assert report.kind == "matroid_bases"
        assert report.support.bases == frozenset({(0, 1), (0, 2), (1, 2)})
        assert report.check.ok

    def test_two_term_support(self):
        f = MultiAffinePoly(subset_basis(3, 2), [0.5, 0.5, 0.0])
        report = support_stratum(f)
        assert report.support.bases == frozenset({(0, 1), (0, 2)})
        assert report.check.ok

    def test_collapsed_square_support(self):
        f = HomPoly(2, 2, (2, 2), {(2, 0): 1 / 6, (1, 1): 4 / 6, (0, 2): 1 / 6})
        report = support_stratum(f)
        assert report.kind == "m_convex"
        assert report.support.points == frozenset({(2, 0), (1, 1), (0, 2)})
        assert report.check.ok

    def test_negative_coefficient_rejected_with_location(self):
        f = MultiAffinePoly(subset_basis(3, 2), [0.5, 0.6, -0.1])
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            support_stratum(f)

    def test_tiny_negative_within_tol_passes(self):
        f = MultiAffinePoly(subset_basis(3, 2), [0.5, 0.5, -1e-15])
        report = support_stratum(f)
        assert report.support.bases == frozenset({(0, 1), (0, 2)})
