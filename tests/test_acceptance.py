"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import itertools
import math
import time

import numpy as np
import pytest

from lorentzflow.ballmap import (
    ball_coordinates,
    escape_time,
    multiaffine_lorentzian_oracle,
)
from lorentzflow.certify import (
    RootClass,
    VerdictStatus,
    certify_multiaffine,
    certify_stable,
    real_rooted,
)
from lorentzflow.poly import (
    HomPoly,
    MultiAffinePoly,
    compositions,
    elementary_symmetric,
    hessian_quadratic,
    normalize_at_ones,
    subset_basis,
)
from lorentzflow.polarization import (
    PolarizationPlan,
    lifted_decomposition,
    polarize_up,
    project_down,
    stable_center,
)
from lorentzflow.samples import (
    random_form_product,
    random_interior_member,
    zero_coefficient_boundary,
)
from lorentzflow.sep import (
    PeriodicFlowError,
    build_generator,
    centered_norm,
    flow,
    uniform_decomposition,
    uniform_rates,
)
from lorentzflow.strata import (
    BasisFamily,
    MConvexCandidate,
    is_m_convex,
    is_matroid_bases,
)

from flow_helpers import radius_bounds


def _report(num, name, started):
    print(f"[acceptance] criterion {num:02d} ({name}): PASS "
          f"({time.perf_counter() - started:.2f}s)")


def test_criterion_01_normalized_elementary_is_strict_interior():
    started = time.perf_counter()
    for n in range(2, 7):
        for d in range(2, n + 1):
            f = normalize_at_ones(elementary_symmetric(n, d))
            assert certify_multiaffine(f).status is VerdictStatus.STRICT_INTERIOR, (n, d)
            # eigenvalue multiset of the derivative quadratics of the
            # unnormalized polynomial: one at n-d+1 and n-d+1 copies of -1
            e = elementary_symmetric(n, d)
            for s in itertools.combinations(range(n), d - 2):
                live = [i for i in range(n) if i not in s]
                eigs = np.sort(np.linalg.eigvalsh(hessian_quadratic(e.derivative(s), live)))
                expected = np.array([-1.0] * (n - d + 1) + [float(n - d + 1)])
                assert np.max(np.abs(eigs - expected)) <= 1e-9, (n, d, s)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(1, "normalized elementary polynomials strictly interior", started)


def test_criterion_02_spectral_ordering():
    started = time.perf_counter()
    with pytest.raises(PeriodicFlowError):
        build_generator(subset_basis(2, 1), uniform_rates(2))
    for n in range(2, 7):
        for d in range(1, min(3, n) + 1):
            if (n, d) == (2, 1):
                continue  # excluded: single-swap action is periodic
            dec = uniform_decomposition(n, d)
            w = dec.eigenvalues
            assert w[0] == 1.0
            if dec.size > 1:
                assert w[0] - w[1] > 1e-9, (n, d)
                assert w[-1] > -1.0 + 1e-9, (n, d)
                assert np.max(np.abs(dec.vectors[:, 1:].sum(axis=0))) <= 1e-9, (n, d)
            ones = np.full(dec.size, 1.0 / math.sqrt(dec.size))
            assert np.allclose(dec.vectors[:, 0], ones, atol=1e-12)
    dec31 = uniform_decomposition(3, 1)
    assert np.max(np.abs(dec31.eigenvalues - np.array([1.0, 0.0, 0.0]))) <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(2, "spectral ordering for uniform rates", started)


def test_criterion_03_contraction_sandwich():
    started = time.perf_counter()
    rng = np.random.default_rng(301)
    shapes = [(4, 2), (5, 2), (5, 3), (6, 3)]
    decs = {nd: uniform_decomposition(*nd) for nd in shapes}
    for k in range(1000):
        n, d = shapes[k % len(shapes)]
        dec = decs[(n, d)]
        basis = subset_basis(n, d)
        f = MultiAffinePoly(basis, rng.standard_normal(basis.size))
        s = float(rng.uniform(1e-6, 3.0))
        r = centered_norm(f, dec)
        lo, hi = radius_bounds(r, s, dec)
        got = centered_norm(flow(f, s, dec), dec)
        assert lo - 1e-8 <= got <= hi + 1e-8, (n, d, s)
    # equality case: when the second and last eigenvalues agree the two
    # bounds coincide and the contraction is exact
    dec = decs[(4, 2)]
    eq_dec = uniform_decomposition(3, 1)
    assert eq_dec.eigenvalues[1] == pytest.approx(eq_dec.eigenvalues[-1], abs=1e-12)
    basis31 = subset_basis(3, 1)
    for _ in range(50):
        f = MultiAffinePoly(basis31, rng.standard_normal(3))
        s = float(rng.uniform(0.01, 3.0))
        r = centered_norm(f, eq_dec)
        lo, hi = radius_bounds(r, s, eq_dec)
        assert lo == pytest.approx(hi, rel=1e-12)
        assert centered_norm(flow(f, s, eq_dec), eq_dec) == pytest.approx(lo, rel=1e-9, abs=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(3, "contraction sandwich on 1000 random flows", started)


def test_criterion_04_flow_preserves_membership():
    started = time.perf_counter()
    rng = np.random.default_rng(401)
    shapes = [(3, 2), (4, 2), (2, 3), (3, 3)]
    for k in range(100):
        n, d = shapes[k % len(shapes)]
        f = random_form_product(n, d, rng)
        plan = PolarizationPlan(f.n, f.d, f.kappa)
        dec = lifted_decomposition(plan.lifted_n, plan.d)
        lifted = polarize_up(f, plan)
        for s in (0.1, 1.0, 10.0):
            moved = flow(lifted, s, dec)
            assert certify_multiaffine(moved).status is not VerdictStatus.REJECTED, (n, d, s)
            capped = project_down(moved, plan)
            v = certify_stable(capped, directions=256, seed=401)
            assert v.status is not VerdictStatus.REJECTED, (n, d, s)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(4, "membership closed under the flow (100 members x 3 times)", started)


def test_criterion_05_boundary_moves_strictly_inside():
    started = time.perf_counter()
    basis = subset_basis(3, 2)
    dec = uniform_decomposition(3, 2)
    f = MultiAffinePoly(basis, [0.5, 0.5, 0.0])
    assert certify_multiaffine(f).status is VerdictStatus.BOUNDARY_WITHIN_TOL
    assert certify_multiaffine(flow(f, 1e-3, dec)).status is VerdictStatus.STRICT_INTERIOR
    rng = np.random.default_rng(501)
    shapes = [(3, 2), (4, 2)]
    decs = {nd: uniform_decomposition(*nd) for nd in shapes}
    upgraded = 0
    tried = 0
    while upgraded < 20:
        tried += 1
        assert tried < 500, "boundary generator stalled"
        n, d = shapes[tried % len(shapes)]
        b = subset_basis(n, d)
        member = random_interior_member(b, decs[(n, d)], rng)
        g = zero_coefficient_boundary(member, int(rng.integers(b.size)))
        if g is None:
            continue  # surgery left the space; discard
        assert certify_multiaffine(g).status is VerdictStatus.BOUNDARY_WITHIN_TOL
        pushed = flow(g, 1e-3, decs[(n, d)])
        assert certify_multiaffine(pushed).status is VerdictStatus.STRICT_INTERIOR
        upgraded += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(5, "boundary members upgrade to strict interior", started)


def test_criterion_06_semigroup_and_mass():
    started = time.perf_counter()
    rng = np.random.default_rng(601)
    shapes = [(4, 2), (5, 3)]
    decs = {nd: uniform_decomposition(*nd) for nd in shapes}
    worst_semigroup = 0.0
    worst_mass = 0.0
    for k in range(200):
        n, d = shapes[k % len(shapes)]
        dec = decs[(n, d)]
        basis = subset_basis(n, d)
        c = rng.standard_normal(basis.size)
        f = MultiAffinePoly(basis, c / np.linalg.norm(c))
        s, t = (float(v) for v in rng.uniform(-3.0, 3.0, size=2))
        left = flow(flow(f, t, dec), s, dec)
        right = flow(f, s + t, dec)
        worst_semigroup = max(
            worst_semigroup, float(np.linalg.norm(left.coeffs - right.coeffs))
        )
        worst_mass = max(
            worst_mass, abs(flow(f, s, dec).value_at_ones() - f.value_at_ones())
        )
    assert worst_semigroup <= 1e-10
    assert worst_mass <= 1e-10
    _report(6, "semigroup law and mass preservation", started)


def test_criterion_07_polarization_round_trip_and_center():
    started = time.perf_counter()
    rng = np.random.default_rng(701)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        kappa = tuple(int(k) for k in rng.integers(1, 4, size=n))
        while sum(kappa) > 12 or sum(kappa) < d:
            kappa = tuple(int(k) for k in rng.integers(1, 4, size=n))
        alphas = list(compositions(d, n, caps=kappa))
        f = normalize_at_ones(
            HomPoly(n, d, kappa, dict(zip(alphas, np.abs(rng.standard_normal(len(alphas))) + 0.01)))
        )
        plan = PolarizationPlan(n, d, kappa)
        back = project_down(polarize_up(f, plan), plan)
        err = max(abs(back.coefficient(a) - f.coefficient(a)) for a in alphas)
        assert err <= 1e-12
    center = stable_center(2, 2)
    assert center.terms[(2, 0)] == 1 / 6
    assert center.terms[(1, 1)] == 4 / 6
    assert center.terms[(0, 2)] == 1 / 6
    for n in range(1, 10):
        for d in range(1, 10):
            if n * d > 9:
                continue
            v = certify_stable(stable_center(n, d), directions=256, seed=701)
            assert v.status is VerdictStatus.STRICT_INTERIOR, (n, d)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(7, "polarization round trip and interior center", started)


def test_criterion_08_real_rootedness_kernel():
    started = time.perf_counter()
    rng = np.random.default_rng(801)
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
    # scaled line restrictions of the elementary polynomials match the
    # iterated derivative of the monic polynomial with the direction's
    # coordinates as roots
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
                assert np.max(np.abs(got - p)) <= 1e-9 * scale, (n, d)
    _report(8, "root kernel agrees with discriminants and derivatives", started)


def test_criterion_09_escape_time_and_equivariance():
    started = time.perf_counter()
    dec = uniform_decomposition(3, 1)
    basis = subset_basis(3, 1)
    oracle = multiaffine_lorentzian_oracle()
    f = MultiAffinePoly(basis, [0.5, 0.25, 0.25])
    res = escape_time(f, oracle, dec)
    assert abs(res.sigma - math.log(4.0)) <= 1e-6
    assert np.max(np.abs(res.anchor.coeffs - np.array([1.0, 0.0, 0.0]))) <= 1e-6
    rng = np.random.default_rng(901)
    done = 0
    while done < 50:
        c = rng.dirichlet(np.ones(3))
        g = MultiAffinePoly(basis, c)
        if centered_norm(g, dec) < 1e-3:
            continue
        t = float(rng.uniform(0.05, 2.0))
        base = escape_time(g, oracle, dec)
        moved = escape_time(flow(g, t, dec), oracle, dec)
        assert abs(moved.sigma - base.sigma - t) <= 1e-6
        done += 1
    _report(9, "escape time value and flow equivariance", started)


def test_criterion_10_ball_map_probes():
    started = time.perf_counter()
    basis = subset_basis(3, 2)
    dec = uniform_decomposition(3, 2)
    oracle = multiaffine_lorentzian_oracle()
    rng = np.random.default_rng(1001)
    kept = []
    while len(kept) < 1000:
        c = rng.dirichlet(np.ones(3))
        f = MultiAffinePoly(basis, c)
        if centered_norm(f, dec) < 1e-6:
            continue
        if kept and float(np.min(np.linalg.norm(np.array(kept) - c, axis=1))) < 1e-4:
            continue
        kept.append(c)
    images = np.array(
        [ball_coordinates(MultiAffinePoly(basis, c), oracle, dec) for c in kept]
    )
    assert images.shape == (1000, 2)
    diff = images[:, None, :] - images[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    dist[np.diag_indices(1000)] = np.inf
    assert float(dist.min()) > 1e-6
    # boundary members land on the unit sphere
    for _ in range(50):
        pair = rng.dirichlet(np.ones(2))
        slot = int(rng.integers(3))
        c = np.insert(pair, slot, 0.0)
        h = ball_coordinates(MultiAffinePoly(basis, c), oracle, dec)
        assert abs(float(np.linalg.norm(h)) - 1.0) <= 1e-6
    _report(10, "ball map injectivity and boundary norms", started)


def test_criterion_11_strata_against_exhaustive_oracles():
    started = time.perf_counter()

    def oracle_bases(fam):
        fam = {frozenset(b) for b in fam}
        return all(
            any((b1 - {x}) | {y} in fam for y in b2 - b1)
            for b1 in fam
            for b2 in fam
            for x in b1 - b2
        )

    def oracle_points(points, n):
        points = set(points)

        def moved(a, i, j):
            v = list(a)
            v[i] -= 1
            v[j] += 1
            return tuple(v)

        return all(
            any(a[j] < b[j] and moved(a, i, j) in points for j in range(n))
            for a in points
            for b in points
            for i in range(n)
            if a[i] > b[i]
        )

    for n in range(2, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1, 2 ** len(pairs)):
            fam = [p for k, p in enumerate(pairs) if mask >> k & 1]
            got = bool(is_matroid_bases(BasisFamily(n, 2, fam)))
            assert got == oracle_bases(fam), (n, fam)
        points = [a for a in itertools.product(range(3), repeat=n) if sum(a) == 2]
        for mask in range(1, 2 ** len(points)):
            pts = [p for k, p in enumerate(points) if mask >> k & 1]
            got = bool(is_m_convex(MConvexCandidate(n, 2, pts)))
            assert got == oracle_points(pts, n), (n, pts)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(11, "exchange checks match exhaustive oracles", started)
