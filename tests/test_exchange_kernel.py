"""The vectorized exchange kernel against the pair-by-pair reference loops
of ``certify_reference``: the same verdicts on every small 0/1 family, on
seeded matroids and random families at n = 6 and 7 and on seeded capped
sets, with each witness the first violation in the documented order;
plain-int witnesses, the int64 refusal, and the spanning-tree
certificate at (16,8)."""

import itertools
import json
import time

import numpy as np
import pytest

import matroids
from certify_reference import compositions, is_m_convex_reference, is_matroid_bases_reference
from lorentzflow.certify import VerdictStatus, certify_hom, certify_multiaffine
from lorentzflow import strata
from lorentzflow.samples import random_form_product
from lorentzflow.strata import exchange_violation
from strata_wrappers import BasisFamily, MConvexCandidate, is_m_convex, is_matroid_bases


def _first_violation(points):
    """Brute-force scan in the documented order: alpha, then beta, in colex
    order (the last coordinate compared first), then i ascending."""
    pts = set(points)
    order = sorted(pts, key=lambda a: a[::-1])
    n = len(order[0])
    for alpha in order:
        for beta in order:
            for i in range(n):
                if alpha[i] <= beta[i]:
                    continue
                moves = []
                for j in range(n):
                    if alpha[j] < beta[j]:
                        moved = list(alpha)
                        moved[i] -= 1
                        moved[j] += 1
                        moves.append(tuple(moved))
                if not pts.intersection(moves):
                    return alpha, beta, i
    return None


def _indicators(n, family):
    return [tuple(int(i in s) for i in range(n)) for s in family]


def _subset(alpha):
    return tuple(i for i, a in enumerate(alpha) if a)


def _check_bases(n, d, family):
    fam = BasisFamily(n, d, family)
    got = is_matroid_bases(fam)
    assert got.ok == is_matroid_bases_reference(fam).ok, (n, d, family)
    first = _first_violation(_indicators(n, fam.bases))
    if first is None:
        assert got.witness is None
    else:
        alpha, beta, i = first
        assert got.witness == (_subset(alpha), _subset(beta), i), (n, d, family)
    return got.ok


def _check_points(n, d, points):
    cand = MConvexCandidate(n, d, points)
    got = is_m_convex(cand)
    assert got.ok == is_m_convex_reference(cand).ok, (n, d, points)
    assert got.witness == _first_violation(cand.points), (n, d, points)
    return got.ok


class TestAgainstReferenceLoops:
    def test_every_small_zero_one_family(self):
        # every nonempty family of d-subsets wherever there are at most 10
        for n in range(1, 6):
            for d in range(n + 1):
                subsets = list(itertools.combinations(range(n), d))
                if len(subsets) > 10:
                    continue
                for mask in range(1, 2 ** len(subsets)):
                    _check_bases(n, d, [s for k, s in enumerate(subsets) if mask >> k & 1])

    @pytest.mark.parametrize("n, d", [(6, 3), (6, 4), (7, 3), (7, 4)])
    def test_seeded_families(self, n, d):
        rng = np.random.default_rng(100 * n + d)
        makers = [matroids.transversal, matroids.partition, matroids.random_family]
        if n <= d * (d + 1) // 2:
            # a simple graph on d + 1 vertices with n edges
            makers.append(matroids.graphic)
        verdicts = set()
        for make in makers:
            for _ in range(8):
                family = make(rng, n, d)
                ok = _check_bases(n, d, family)
                assert ok or make is matroids.random_family, make.__name__
                verdicts.add(ok)
                # one basis fewer or one d-subset more: often no matroid
                drop = int(rng.integers(len(family)))
                if len(family) > 1:
                    verdicts.add(_check_bases(n, d, family[:drop] + family[drop + 1 :]))
                extra = tuple(sorted(rng.choice(n, d, replace=False).tolist()))
                verdicts.add(_check_bases(n, d, family + [extra]))
        assert verdicts == {True, False}

    def test_seeded_capped_sets(self):
        rng = np.random.default_rng(2019)
        verdicts = set()
        for n in range(1, 6):
            for d in range(1, 6):
                for _ in range(6):
                    kappa = tuple(int(k) for k in rng.integers(1, d + 1, size=n))
                    if sum(kappa) < d:
                        continue
                    box = list(compositions(d, n, kappa))
                    keep = rng.uniform(size=len(box)) < rng.uniform()
                    keep[int(rng.integers(len(box)))] = True
                    verdicts.add(_check_points(n, d, [a for a, k in zip(box, keep) if k]))
                    if n >= 2:
                        # the support of a product of forms is M-convex;
                        # without one point it often is not
                        support = sorted(random_form_product(n, d, rng).support())
                        assert _check_points(n, d, support)
                        del support[int(rng.integers(len(support)))]
                        if support:
                            verdicts.add(_check_points(n, d, support))
        assert verdicts == {True, False}


class TestWitness:
    def test_plain_ints_in_documented_order(self):
        # (0, 1) and (2, 3): both (0, 1, ...) orders fail; colex puts
        # (0, 1) first, and 0 is its first element not in (2, 3)
        res = is_matroid_bases(BasisFamily(4, 2, [(2, 3), (0, 1)]))
        assert res.witness == ((0, 1), (2, 3), 0)
        alpha, beta, i = exchange_violation(np.array([[0, 2], [2, 0]], dtype=np.int32))
        assert (alpha, beta, i) == ((2, 0), (0, 2), 0)
        for value in (*alpha, *beta, i):
            assert type(value) is int
        assert json.loads(json.dumps([alpha, beta, i])) == [[2, 0], [0, 2], 0]

    def test_certificates_report_the_first_violation(self):
        # x0 x1 x2 + x3 x4 x5: every Hessian has one positive eigenvalue,
        # and the support fails exchange
        f = matroids.basis_polynomial(6, 3, [(3, 4, 5), (0, 1, 2)])
        want = {"kind": "support_exchange", "element": 0}
        assert certify_multiaffine(f).witness == {**want, "basis_one": [0, 1, 2], "basis_two": [3, 4, 5]}
        assert certify_hom(f.to_hom()).witness == {
            **want, "exponent_one": [1, 1, 1, 0, 0, 0], "exponent_two": [0, 0, 0, 1, 1, 1]}

    def test_first_violation_past_the_first_block(self, monkeypatch):
        # one alpha row per block: the scan must still report the first
        # violation, with its alpha taken from the right block
        monkeypatch.setattr(strata, "_EXCHANGE_BLOCK_PAIRS", 40)
        rng = np.random.default_rng(7)
        late = 0
        for _ in range(30):
            family = matroids.random_family(rng, 7, 3)
            if not _check_bases(7, 3, family):
                late += is_matroid_bases(BasisFamily(7, 3, family)).witness[0] != min(family, key=lambda s: s[::-1])
        assert late > 0

    def test_codes_past_int64_are_refused(self):
        # every maximum 16 at n = 16: 17^16 codes do not fit in int64
        points = 16 * np.eye(16, dtype=int)
        with pytest.raises(ValueError, match="int64"):
            exchange_violation(points)
        with pytest.raises(ValueError, match="int64"):
            is_m_convex(MConvexCandidate(16, 16, points))
        # maxima 14: 15^16 codes fit
        points = 14 * np.eye(16, dtype=int) + 2 * np.roll(np.eye(16, dtype=int), 1, axis=1)
        assert exchange_violation(points) == _first_violation(map(tuple, points.tolist()))


def test_spanning_tree_certificate_at_sixteen():
    # a seeded graph with 9 vertices and 16 edges: its spanning trees are
    # a proper subset of the 8-subsets, so the certificate runs the
    # exchange check on the boundary path
    rng = np.random.default_rng(16)
    f = matroids.basis_polynomial(16, 8, matroids.graphic(rng, 16, 8))
    assert np.count_nonzero(f.coeffs) < f.coeffs.size
    t0 = time.perf_counter()
    v = certify_multiaffine(f)
    assert time.perf_counter() - t0 < 1.0
    assert v.status is VerdictStatus.BOUNDARY_WITHIN_TOL
