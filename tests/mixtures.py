"""Seeded mixtures of member polynomials for tests: a convex mixture of
disjoint-group products is not always a member, so draws are certified
and retried. Also the zero-coefficient surgery that pushes a member onto
the boundary."""

from __future__ import annotations

import numpy as np

from lorentzflow.certify import VerdictStatus, certify_multiaffine
from lorentzflow.poly import MultiAffinePoly, SubsetBasis, normalize_at_ones
from lorentzflow.samples import random_disjoint_form_product


def random_member_mixture(
    basis: SubsetBasis,
    rng,
    parts: int = 2,
    tol: float = 1e-9,
    max_tries: int = 200,
) -> MultiAffinePoly:
    """Convex mixture of disjoint-group products that certifies as a
    member; mixtures are not automatically members, so rejected draws are
    discarded and retried."""
    for _ in range(max_tries):
        weights = rng.dirichlet(np.ones(parts))
        mix = np.zeros(basis.size)
        for w in weights:
            mix += w * random_disjoint_form_product(basis, rng).coeffs
        cand = MultiAffinePoly(basis, mix)
        if certify_multiaffine(cand, tol).is_member:
            return cand
    raise RuntimeError(f"no certified mixture found in {max_tries} tries")


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
