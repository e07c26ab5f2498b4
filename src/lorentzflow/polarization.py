"""Polarization: the linear isomorphism between degree-capped polynomials
and multiaffine polynomials that are symmetric within blocks of fresh
variables, plus the capped-space flow obtained by conjugating the
multiaffine flow with it.

Lifting replaces the i-th variable raised to the power a by the degree-a
elementary symmetric polynomial in that variable's block, divided by the
number of its monomials; projecting substitutes every block variable back
to the original one. Lift-then-project is the identity; project-then-lift
symmetrizes within blocks.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .poly import (
    HomPoly,
    MultiAffinePoly,
    MAX_VARS,
    compositions,
    subset_basis,
)
from .sep import SpectralDecomposition, flow, uniform_decomposition


class PolarizationPlan:
    """Block layout for a lift: variable i of the capped space owns a block
    of kappa_i fresh variables, laid out consecutively."""

    __slots__ = ("n", "d", "kappa", "blocks", "lifted_basis")

    def __init__(self, n: int, d: int, kappa):
        kappa = tuple(int(k) for k in kappa)
        if len(kappa) != n or any(k < 1 for k in kappa):
            raise ValueError(f"caps must be {n} positive integers, got {kappa}")
        total = sum(kappa)
        if total > MAX_VARS:
            raise ValueError(
                f"lifted space needs {total} variables, above the cap of {MAX_VARS}"
            )
        blocks = []
        offset = 0
        for k in kappa:
            blocks.append(tuple(range(offset, offset + k)))
            offset += k
        self.n = n
        self.d = d
        self.kappa = kappa
        self.blocks = tuple(blocks)
        self.lifted_basis = subset_basis(total, d)

    @property
    def lifted_n(self) -> int:
        return self.lifted_basis.n

    def __repr__(self):
        return f"PolarizationPlan(n={self.n}, d={self.d}, kappa={self.kappa})"


def polarize_up(f: HomPoly, plan: PolarizationPlan | None = None) -> MultiAffinePoly:
    """Lift a capped polynomial to the multiaffine polynomial that is
    symmetric within each block. Each term transports its coefficient,
    split evenly, to every lifted subset that picks the term's exponent
    from each block."""
    if plan is None:
        plan = PolarizationPlan(f.n, f.d, f.kappa)
    if plan.n != f.n or plan.d != f.d:
        raise ValueError(f"plan {plan!r} does not match polynomial {f!r}")
    basis = plan.lifted_basis
    out = np.zeros(basis.size)
    for alpha, c in f.terms.items():
        if any(a > k for a, k in zip(alpha, plan.kappa)):
            raise ValueError(f"exponent {alpha} exceeds caps {plan.kappa}")
        weight = c
        for a, k in zip(alpha, plan.kappa):
            weight /= math.comb(k, a)
        pools = [
            itertools.combinations(block, a)
            for block, a in zip(plan.blocks, alpha)
            if a > 0
        ]
        for pick in itertools.product(*pools):
            subset = tuple(sorted(itertools.chain.from_iterable(pick)))
            out[basis.rank(subset)] += weight
    return MultiAffinePoly(basis, out)


def project_down(g: MultiAffinePoly, plan: PolarizationPlan) -> HomPoly:
    """Substitute every block variable back to its owner: the coefficient
    of a lifted subset lands on the exponent vector counting how many of
    its elements each block contributed."""
    if g.basis != plan.lifted_basis:
        raise ValueError(f"polynomial lives on {g.basis!r}, plan expects {plan.lifted_basis!r}")
    block_of = {}
    for bi, block in enumerate(plan.blocks):
        for v in block:
            block_of[v] = bi
    terms: dict[tuple, float] = {}
    for subset, c in zip(g.basis.subsets, g.coeffs):
        if c == 0.0:
            continue
        alpha = [0] * plan.n
        for v in subset:
            alpha[block_of[v]] += 1
        key = tuple(alpha)
        terms[key] = terms.get(key, 0.0) + float(c)
    return HomPoly(plan.n, plan.d, plan.kappa, terms)


@lru_cache(maxsize=32)
def lifted_decomposition(lifted_n: int, d: int) -> SpectralDecomposition:
    """Cached uniform-rate spectral decomposition on the lifted basis;
    building it dominates the cost of capped-space flows."""
    return uniform_decomposition(lifted_n, d)


def polarized_flow(
    f: HomPoly,
    s: float,
    plan: PolarizationPlan | None = None,
    dec: SpectralDecomposition | None = None,
) -> HomPoly:
    """Flow a capped polynomial: lift, run the multiaffine flow with
    uniform rates on the lifted variables, project back."""
    if plan is None:
        plan = PolarizationPlan(f.n, f.d, f.kappa)
    if dec is None:
        dec = lifted_decomposition(plan.lifted_n, plan.d)
    lifted = polarize_up(f, plan)
    return project_down(flow(lifted, s, dec), plan)


def stable_center(n: int, d: int) -> HomPoly:
    """The distinguished interior point of the capped space with all caps
    equal to the degree: collapse the normalized elementary symmetric
    polynomial on n*d variables by identifying each block with one
    variable. The coefficient of an exponent vector is the product of
    per-block binomials over the total count."""
    if d < 1:
        raise ValueError(f"degree must be at least 1, got {d}")
    if n < 1 or n * d > MAX_VARS:
        raise ValueError(f"n*d = {n * d} outside 1..{MAX_VARS}")
    denom = math.comb(n * d, d)
    terms = {}
    for alpha in compositions(d, n, caps=(d,) * n):
        num = 1
        for a in alpha:
            num *= math.comb(d, a)
        terms[alpha] = num / denom
    return HomPoly(n, d, (d,) * n, terms)
