"""Seeded mixtures of member polynomials for tests: a convex mixture of
disjoint-group products is not always a member, so draws are certified
and retried."""

import numpy as np

from lorentzflow.certify import certify_multiaffine
from lorentzflow.poly import MultiAffinePoly, SubsetBasis
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
