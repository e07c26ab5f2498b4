"""Seeded generators of certified member polynomials.

Products of linear forms with nonnegative coefficients are real stable,
hence Lorentzian; in the multiaffine world the same holds for products of
forms over disjoint variable groups. Everything here is built from those
two facts, with a certification filter where a construction is only
usually a member (coefficient surgery). Both products multiply out on
the exponent codes of ``poly.exponent_table``, so a shape whose codes
pass int64 is refused before any form is drawn.
"""

from __future__ import annotations

import numpy as np

from .certify import VerdictStatus, certify_multiaffine
from .poly import HomPoly, MultiAffinePoly, SubsetBasis, normalize_at_ones
from .sep import SpectralDecomposition, flow

# how far random_interior_member flows its product forward
INTERIOR_DEPTH = 0.5


def _product(table, forms) -> np.ndarray:
    """Coefficients in ``table`` order of the product of linear forms,
    each a pair (variables, weights). Every term of the running product
    times every term of the next form reaches a code; each code sums the
    terms that reach it from 0.0 in that order, and the codes are kept
    in the order they are first reached."""
    codes, values = np.zeros(1, dtype=np.int64), np.ones(1)
    for variables, weights in forms:
        reached = (codes[:, None] + table.radix[variables]).ravel()
        codes, first, where = np.unique(reached, return_index=True, return_inverse=True)
        order = np.argsort(first)
        codes, values = codes[order], np.bincount(where, weights=(values[:, None] * weights).ravel())[order]
    coeffs = np.zeros(table.codes.size)
    coeffs[np.searchsorted(table.codes, codes)] = values
    return coeffs


def random_form_product(n: int, d: int, rng) -> HomPoly:
    """Product of d linear forms with positive entries, normalized at the
    all-ones point. Real stable with nonnegative coefficients by
    construction; every x_i^d appears, so the caps are max(d, 1)."""
    zero = HomPoly(n, d, (max(d, 1),) * n, {})  # checks n and d, and refuses codes past int64
    forms = np.abs(rng.standard_normal((d, n))) + 0.05
    return normalize_at_ones(zero._like(_product(zero.table, [(slice(None), row) for row in forms])))


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
    return normalize_at_ones(MultiAffinePoly(basis, _product(basis.table, [(g, weights[g]) for g in groups])))


def random_interior_member(basis: SubsetBasis, dec: SpectralDecomposition, rng) -> MultiAffinePoly:
    """Strict-interior member: flow a disjoint-group product forward by
    ``INTERIOR_DEPTH``, which moves it strictly inside, and certify it
    once at the default tolerance."""
    cand = flow(random_disjoint_form_product(basis, rng), INTERIOR_DEPTH, dec)
    if certify_multiaffine(cand).status is not VerdictStatus.STRICT_INTERIOR:
        raise RuntimeError(f"flowed member is not strict after depth {INTERIOR_DEPTH}")
    return cand
