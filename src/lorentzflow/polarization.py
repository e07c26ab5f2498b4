"""Polarization: the linear isomorphism between degree-capped polynomials
and multiaffine polynomials that are symmetric within blocks of fresh
variables, plus the capped-space flow that this isomorphism conjugates
out of the multiaffine one.

Lifting replaces the i-th variable raised to the power a by the degree-a
elementary symmetric polynomial in that variable's block, divided by the
number of its monomials; projecting substitutes every block variable back
to the original one. Lift-then-project is the identity; project-then-lift
symmetrizes within blocks.

On block-symmetric vectors the uniform exclusion flow is the multi-urn
Bernoulli-Laplace chain on the compositions alpha <= kappa, so capped
flows run on that chain's few states and never build the lift; only a
``PolarizationPlan``, which holds the lifted basis, needs sum(kappa) <= 16.
For every kappa the chain holds the inclusion maps of
``sep._InclusionMaps`` and no eigenbasis; at kappa = 1^n it is the
uniform multiaffine flow.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .poly import HomPoly, MultiAffinePoly, MAX_VARS, exponent_table, subset_basis
from .sep import SpectralDecomposition, _binomials, _uniform, flow, uniform_decomposition


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


def _lift_values(f) -> np.ndarray:
    """The coefficient g(alpha) = c_alpha / prod_i C(kappa_i, alpha_i)
    that the lift gives every lifted subset of composition alpha, in code
    order, divided one variable at a time so that every caller gets the
    same bits. At kappa = 1^n every binomial is 1 and g is f's own
    read-only vector."""
    if max(f.kappa) == 1:
        return f.coeffs
    g = f.coeffs.copy()
    for row in _binomials(f.d, f.kappa):
        g /= row
    return g


@lru_cache(maxsize=32)
def _lift(d: int, kappa: tuple) -> np.ndarray:
    """For every lifted subset in colex order, the position of its
    composition in ``exponent_table(d, kappa)``. A lifted subset's
    composition counts its elements per block, so its code is the sum of
    its elements' place values. Read-only."""
    table = exponent_table(d, kappa)
    lifted = exponent_table(d, (1,) * sum(kappa)).factors
    index = np.searchsorted(table.codes, np.repeat(table.radix, kappa)[lifted].sum(axis=1))
    index.flags.writeable = False
    return index


def _on_plan(f, plan: PolarizationPlan):
    """f with the plan's caps."""
    if plan.n != f.n or plan.d != f.d:
        raise ValueError(f"plan {plan!r} does not match polynomial {f!r}")
    return f if f.kappa == plan.kappa else HomPoly(plan.n, plan.d, plan.kappa, f.terms)


def polarize_up(f: HomPoly, plan: PolarizationPlan | None = None) -> MultiAffinePoly:
    """Lift a capped polynomial to the multiaffine polynomial that is
    symmetric within each block: every lifted subset gets the lift's
    coefficient of its composition (``_lift_values``), one gather over
    the lifted basis."""
    if plan is None:
        plan = PolarizationPlan(f.n, f.d, f.kappa)
    g = _lift_values(_on_plan(f, plan))
    return MultiAffinePoly(plan.lifted_basis, g[_lift(plan.d, plan.kappa)])


def project_down(g: MultiAffinePoly, plan: PolarizationPlan) -> HomPoly:
    """Substitute every block variable back to its owner: the coefficient
    of a lifted subset lands on the exponent vector counting how many of
    its elements each block contributed. One ``np.bincount`` sums the
    lifted coefficients per composition in basis order."""
    if g.basis != plan.lifted_basis:
        raise ValueError(f"polynomial lives on {g.basis!r}, plan expects {plan.lifted_basis!r}")
    index = _lift(plan.d, plan.kappa)
    sums = np.bincount(index, weights=g.coeffs, minlength=exponent_table(plan.d, plan.kappa).codes.size)
    return HomPoly._from_coeffs(plan.n, plan.d, plan.kappa, sums)


@lru_cache(maxsize=32)
def lifted_decomposition(lifted_n: int, d: int) -> SpectralDecomposition:
    """Cached uniform flow on the lifted basis, from its inclusion maps:
    the flow that ``composition_chain`` reduces, kept for callers that
    flow lifted polynomials themselves."""
    return uniform_decomposition(lifted_n, d)


@lru_cache(maxsize=32)
def composition_chain(d: int, kappa: tuple) -> SpectralDecomposition:
    """The multi-urn Bernoulli-Laplace chain on the compositions
    alpha <= kappa of d (Diaconis-Shahshahani 1987), which is the lifted
    uniform flow seen on block-symmetric vectors, for every cap vector:
    its ``sep._InclusionMaps`` split a vector into Johnson eigenspace
    parts with no eigenbasis. The chain is reversible for
    W = prod_i C(kappa_i, alpha_i), and its weights are sqrt(W). At
    kappa = 1^n it is ``uniform_decomposition(n, d)``."""
    if sum(kappa) < 2:
        raise ValueError(f"need at least two lifted variables, got {sum(kappa)}")
    return _uniform(d, kappa)


def _on_chain(f, plan: PolarizationPlan | None, dec: SpectralDecomposition | None):
    """f with the plan's caps, and the composition chain that flows it.
    With no plan, f keeps its caps and no lift is built. A lifted ``dec``
    is only checked to be the uniform flow on the plan's lifted basis."""
    if dec is not None:
        plan = plan or PolarizationPlan(f.n, f.d, f.kappa)
        if dec.basis != plan.lifted_basis:
            raise ValueError(f"decomposition lives on {dec.basis!r}, plan expects {plan.lifted_basis!r}")
        if not dec.rates.uniform:
            raise ValueError("capped flows use uniform rates on the lifted variables")
    if plan is not None:
        f = _on_plan(f, plan)
    return f, composition_chain(f.d, f.kappa)


def polarized_flow(
    f: HomPoly,
    s: float,
    plan: PolarizationPlan | None = None,
    dec: SpectralDecomposition | None = None,
) -> HomPoly:
    """Flow a capped or multiaffine polynomial for time ``s``: the
    uniform-rate flow on the lifted variables, which ``sep.flow`` runs on
    the composition chain of f's (d, kappa) as
    c' = W (P_0 g + sum_k exp(-s (1 - lambda_k)) P_k g), g = c / W, on the
    coefficients c in code order. A decomposition ``dec`` is only checked
    to be the uniform one on the plan's lifted basis; it is not used."""
    f, chain = _on_chain(f, plan, dec)
    return flow(f, s, chain)


def stable_center(n: int, d: int) -> HomPoly:
    """The distinguished interior point of the capped space with all caps
    equal to the degree: collapse the normalized elementary symmetric
    polynomial on n*d variables by identifying each block with one
    variable. The coefficient of an exponent vector is the product of
    per-block binomials over the total count."""
    if d < 1:
        raise ValueError(f"degree must be at least 1, got {d}")
    if n < 1 or n > MAX_VARS:
        raise ValueError(f"n={n} outside 1..{MAX_VARS}")
    kappa = (d,) * n
    return HomPoly._from_coeffs(n, d, kappa, _binomials(d, kappa).prod(axis=0) / math.comb(n * d, d))
