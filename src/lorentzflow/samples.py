"""Seeded generators of certified member polynomials.

Products of linear forms with nonnegative coefficients are real stable,
hence Lorentzian; in the multiaffine world the same holds for products of
forms over disjoint variable groups. Everything here is built from those
two facts, with a certification filter where a construction is only
usually a member (coefficient surgery).
"""

from __future__ import annotations

import numpy as np

from .certify import VerdictStatus, certify_multiaffine
from .poly import HomPoly, MultiAffinePoly, SubsetBasis, normalize_at_ones
from .sep import SpectralDecomposition, flow


def random_form_product(n: int, d: int, rng) -> HomPoly:
    """Product of d linear forms with positive entries, normalized at the
    all-ones point. Real stable with nonnegative coefficients by
    construction."""
    if d == 0:
        return HomPoly(n, 0, (1,) * n, {(0,) * n: 1.0})
    forms = np.abs(rng.standard_normal((d, n))) + 0.05
    acc = {(0,) * n: 1.0}
    for k in range(d):
        nxt: dict[tuple, float] = {}
        for alpha, c in acc.items():
            for i in range(n):
                beta = list(alpha)
                beta[i] += 1
                beta = tuple(beta)
                nxt[beta] = nxt.get(beta, 0.0) + c * forms[k, i]
        acc = nxt
    kappa = tuple(max(1, max(alpha[i] for alpha in acc)) for i in range(n))
    return normalize_at_ones(HomPoly(n, d, kappa, acc))


def random_disjoint_form_product(basis: SubsetBasis, rng) -> MultiAffinePoly:
    """Multiaffine member: product of d linear forms over a random
    partition of the variables into d nonempty groups, with positive
    weights, normalized."""
    n, d = basis.n, basis.d
    if d < 1 or d > n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    perm = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=d - 1, replace=False)) if d > 1 else np.array([], dtype=int)
    groups = np.split(perm, cuts)
    weights = np.abs(rng.standard_normal(n)) + 0.05
    coeffs = np.zeros(basis.size)
    stack = [((), 1.0)]
    for g in groups:
        nxt = []
        for chosen, w in stack:
            for i in g:
                nxt.append((chosen + (int(i),), w * weights[i]))
        stack = nxt
    for chosen, w in stack:
        coeffs[basis.rank(chosen)] += w
    return normalize_at_ones(MultiAffinePoly(basis, coeffs))


def random_interior_member(
    basis: SubsetBasis,
    dec: SpectralDecomposition,
    rng,
    depth: float = 0.5,
    tol: float = 1e-9,
) -> MultiAffinePoly:
    """Strict-interior member: flow a disjoint-group product forward by
    ``depth``, which moves it strictly inside, and certify it once."""
    cand = flow(random_disjoint_form_product(basis, rng), depth, dec)
    if certify_multiaffine(cand, tol).status is not VerdictStatus.STRICT_INTERIOR:
        raise RuntimeError(f"flowed member is not strict after depth {depth}")
    return cand


def zero_coefficient_boundary(
    f: MultiAffinePoly, index: int, tol: float = 1e-9
) -> MultiAffinePoly | None:
    """Push a member onto the boundary by zeroing one coefficient and
    renormalizing. Returns None when the surgery leaves the space: the
    certificate rejects, its exchange check on the zeroed support
    included."""
    coeffs = f.coeffs.copy()
    if coeffs[index] <= 0.0:
        return None
    coeffs[index] = 0.0
    if coeffs.sum() <= 0.0:
        return None
    cand = normalize_at_ones(MultiAffinePoly(f.basis, coeffs))
    verdict = certify_multiaffine(cand, tol)
    if verdict.status is not VerdictStatus.BOUNDARY_WITHIN_TOL:
        return None
    return cand
