"""Seeded input generators for the benchmark.

Every generator takes a ``numpy.random.Generator`` and returns a
normalized polynomial whose class is known by construction, so a
certificate's verdict can be checked against it. Only the polynomial
classes ``MultiAffinePoly`` and ``HomPoly`` and the basis helpers of
the package are used here; its own samplers are not, so the package
receives inputs it did not make.
"""

from __future__ import annotations

import math

import numpy as np

from lorentzflow.poly import HomPoly, MultiAffinePoly, normalize_at_ones, subset_basis


def positive_forms(rng, d: int, n: int) -> np.ndarray:
    """d linear forms in n variables with weights bounded away from 0."""
    return np.abs(rng.standard_normal((d, n))) + 0.05


def multiaffine_part(forms: np.ndarray) -> MultiAffinePoly:
    """Multiaffine part of the product of the rows of ``forms``: the
    coefficient of x_S is the permanent of the columns S. It is real
    stable with nonnegative coefficients, hence Lorentzian; its support
    is the transversal matroid of the forms' zero patterns."""
    d, n = forms.shape
    acc = {0: 1.0}
    for row in forms:
        nxt: dict[int, float] = {}
        for mask, c in acc.items():
            for i in range(n):
                bit = 1 << i
                if not mask & bit and row[i] != 0.0:
                    nxt[mask | bit] = nxt.get(mask | bit, 0.0) + c * row[i]
        acc = nxt
    basis = subset_basis(n, d)
    coeffs = np.zeros(basis.size)
    for mask, c in acc.items():
        coeffs[basis.rank(i for i in range(n) if mask >> i & 1)] = c
    return normalize_at_ones(MultiAffinePoly(basis, coeffs))


def partition_product(rng, n: int, d: int) -> MultiAffinePoly:
    """Product of d positive linear forms over a seeded partition of the
    variables into d groups of near-equal size: a member on the boundary
    (its support is a partition matroid, not the full basis)."""
    sizes = [n // d + (1 if k < n % d else 0) for k in range(d)]
    perm = rng.permutation(n)
    forms = np.zeros((d, n))
    start = 0
    for k, size in enumerate(sizes):
        group = perm[start : start + size]
        forms[k, group] = np.abs(rng.standard_normal(size)) + 0.05
        start += size
    return multiaffine_part(forms)


def transversal_boundary(rng, n: int, d: int) -> MultiAffinePoly:
    """Multiaffine part of a product of positive forms where the last
    d - d//2 forms vanish on a seeded half T of the variables: the support
    is {S : |S & T| <= d//2}, a transversal matroid that is large but not
    full, so the Lorentzian certificate has to run its exchange check."""
    forms = positive_forms(rng, d, n)
    half = rng.choice(n, size=n // 2, replace=False)
    forms[d // 2 :, half] = 0.0
    return multiaffine_part(forms)


def hessian_fail(rng, n: int, d: int) -> MultiAffinePoly:
    """(a x_p x_q + b x_r x_s) times d-2 further weighted variables: the
    quadratic factor has two positive Hessian eigenvalues, so this is
    not Lorentzian."""
    perm = [int(v) for v in rng.permutation(n)]
    p, q, r, s = perm[:4]
    rest = perm[4 : 4 + d - 2]
    w = np.abs(rng.standard_normal(2 + len(rest))) + 0.05
    basis = subset_basis(n, d)
    coeffs = np.zeros(basis.size)
    tail = float(np.prod(w[2:]))
    coeffs[basis.rank([p, q] + rest)] = w[0] * tail
    coeffs[basis.rank([r, s] + rest)] = w[1] * tail
    return normalize_at_ones(MultiAffinePoly(basis, coeffs))


def negative_coefficient(rng, f: MultiAffinePoly) -> MultiAffinePoly:
    """A member with one coefficient made clearly negative, renormalized."""
    coeffs = f.coeffs.copy()
    coeffs[int(rng.integers(coeffs.size))] = -0.05 * float(coeffs.max())
    return normalize_at_ones(MultiAffinePoly(f.basis, coeffs))


def capped_form_product(rng, n: int, d: int) -> HomPoly:
    """Product of d positive linear forms in n variables, caps (d,)*n.
    Real stable with positive coefficients: an interior member."""
    forms = positive_forms(rng, d, n)
    acc = {(0,) * n: 1.0}
    for row in forms:
        nxt: dict[tuple, float] = {}
        for alpha, c in acc.items():
            for i in range(n):
                beta = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
                nxt[beta] = nxt.get(beta, 0.0) + c * row[i]
        acc = nxt
    return normalize_at_ones(HomPoly(n, d, (d,) * n, acc))


def capped_block_product(rng, kappa, d: int) -> HomPoly:
    """Capped member with caps ``kappa``: the multiaffine part of a product
    of forms on the lifted variables whose weights are constant on each
    block, collapsed back onto the original variables. The lifted
    polynomial is Lorentzian and block-symmetric, so the capped one is a
    capped Lorentzian polynomial with full support (interior)."""
    n = len(kappa)
    base = positive_forms(rng, d, n)
    lifted = multiaffine_part(np.repeat(base, kappa, axis=1))
    owner = np.repeat(np.arange(n), kappa)
    terms: dict[tuple, float] = {}
    for subset, c in zip(lifted.basis.subsets, lifted.coeffs):
        alpha = [0] * n
        for v in subset:
            alpha[owner[v]] += 1
        key = tuple(alpha)
        terms[key] = terms.get(key, 0.0) + float(c)
    return normalize_at_ones(HomPoly(n, d, tuple(kappa), terms))


def elementary(n: int, d: int) -> MultiAffinePoly:
    """Normalized e_d(n): the flow's fixed point, strictly interior."""
    basis = subset_basis(n, d)
    return MultiAffinePoly(basis, np.full(basis.size, 1.0 / math.comb(n, d)))
