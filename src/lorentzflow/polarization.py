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

import math
from functools import lru_cache

import numpy as np

from .poly import (
    HomPoly,
    MultiAffinePoly,
    MAX_VARS,
    _subset_table,
    compositions,
    exponent_code,
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


@lru_cache(maxsize=32)
def _lift(d: int, kappa: tuple):
    """The exponent code of the caps at degree d (``exponent_code``), the
    ascending codes of its degree-d exponents, their binomials
    C(kappa_i, alpha_i) (n, N), and, for every lifted subset in colex
    order, the position of its composition among those codes. A lifted
    subset's composition counts its elements per block, so its code is
    the sum of its elements' place values. All read-only."""
    radix, base, codes = exponent_code(kappa, d, d)
    alphas = (codes[:, None] // radix) % base
    comb = np.array([[math.comb(k, a) for a in range(d + 1)] for k in kappa], dtype=float)
    binom = np.take_along_axis(comb, alphas.T, axis=1)
    index = np.searchsorted(codes, np.repeat(radix, kappa)[_subset_table(sum(kappa), d)].sum(axis=1))
    for arr in (radix, alphas, codes, binom, index):
        arr.flags.writeable = False
    return radix, alphas, codes, binom, index


def polarize_up(f: HomPoly, plan: PolarizationPlan | None = None) -> MultiAffinePoly:
    """Lift a capped polynomial to the multiaffine polynomial that is
    symmetric within each block. Each term's coefficient, divided by
    prod_i C(kappa_i, alpha_i) one variable at a time, goes to every
    lifted subset that picks the term's exponent from each block: one
    gather over the lifted basis."""
    if plan is None:
        plan = PolarizationPlan(f.n, f.d, f.kappa)
    if plan.n != f.n or plan.d != f.d:
        raise ValueError(f"plan {plan!r} does not match polynomial {f!r}")
    radix, _, codes, binom, index = _lift(plan.d, plan.kappa)
    alphas = np.array(list(f.terms), dtype=np.int64).reshape(-1, f.n)
    over = np.flatnonzero((alphas > plan.kappa).any(axis=1))
    if over.size:
        raise ValueError(f"exponent {tuple(alphas[over[0]].tolist())} exceeds caps {plan.kappa}")
    g = np.zeros(codes.size)
    g[np.searchsorted(codes, alphas @ radix)] = list(f.terms.values())
    for row in binom:
        g /= row
    return MultiAffinePoly(plan.lifted_basis, g[index])


def project_down(g: MultiAffinePoly, plan: PolarizationPlan) -> HomPoly:
    """Substitute every block variable back to its owner: the coefficient
    of a lifted subset lands on the exponent vector counting how many of
    its elements each block contributed. One ``np.bincount`` sums the
    nonzero lifted coefficients per composition in basis order; the terms
    come in the order of each composition's first nonzero subset."""
    if g.basis != plan.lifted_basis:
        raise ValueError(f"polynomial lives on {g.basis!r}, plan expects {plan.lifted_basis!r}")
    _, alphas, codes, _, index = _lift(plan.d, plan.kappa)
    live = np.flatnonzero(g.coeffs)
    pos = index[live]
    sums = np.bincount(pos, weights=g.coeffs[live], minlength=codes.size)
    _, first = np.unique(pos, return_index=True)
    order = pos[np.sort(first)]
    return HomPoly(plan.n, plan.d, plan.kappa, dict(zip(map(tuple, alphas[order].tolist()), sums[order].tolist())))


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
