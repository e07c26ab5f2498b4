"""Reference samplers: the seeded products as they were first written,
multiplied out one term at a time in dicts of exponent tuples and stacks
of subsets. ``samples`` multiplies on exponent codes instead and must give
the same bits from the same generator state."""

import numpy as np

from lorentzflow.poly import HomPoly, MultiAffinePoly, SubsetBasis, normalize_at_ones


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
