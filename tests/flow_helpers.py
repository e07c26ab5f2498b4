"""Flow helpers that only the tests use: the primitivity of a generator,
the dense flow matrix, the contraction sandwich radii, block
symmetrization, and a numerical check of the contractive-flow properties
on given members.
"""

import math
from dataclasses import dataclass

import numpy as np

from lorentzflow.ballmap import MembershipOracle
from lorentzflow.poly import MultiAffinePoly
from lorentzflow.sep import (
    PeriodicFlowError,
    SepGenerator,
    SpectralDecomposition,
    _decay_factors,
    centered_norm,
    flow,
)


def check_primitivity(gen, max_power: int | None = None) -> int:
    """Smallest power of the generator with all entries positive, found by
    iterated boolean products. Accepts a SepGenerator or a raw square
    matrix; raises PeriodicFlowError when no power up to the cap works."""
    M = gen.matrix if isinstance(gen, SepGenerator) else np.asarray(gen, dtype=float)
    size = M.shape[0]
    if max_power is None:
        max_power = 2 * size
    step = M > 0.0
    reach = step.copy()
    for m in range(1, max_power + 1):
        if reach.all():
            return m
        reach = (reach.astype(np.int64) @ step.astype(np.int64)) > 0
    raise PeriodicFlowError(f"no positive power up to {max_power}; the action is not primitive")


def flow_matrix(s: float, dec: SpectralDecomposition) -> np.ndarray:
    """Dense matrix of the time-s flow."""
    V = dec.vectors
    return (V * _decay_factors(s, dec)) @ V.T


def radius_bounds(r: float, s: float, dec: SpectralDecomposition):
    """Sandwich radii for the image of a centered ball of radius ``r``
    under the time-s flow: the slowest and fastest mode decay rates give
    (inner, outer) = (r*exp(-s*(1-lambda_min)), r*exp(-s*(1-lambda_second)))."""
    if r < 0.0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    lam = dec.eigenvalues
    lam_second = float(lam[1]) if dec.size > 1 else 1.0
    lam_min = float(lam[-1]) if dec.size > 1 else 1.0
    return (
        r * math.exp(-s * (1.0 - lam_min)),
        r * math.exp(-s * (1.0 - lam_second)),
    )


def symmetrize_partition(f: MultiAffinePoly, blocks) -> MultiAffinePoly:
    """Average the coefficients of ``f`` over all permutations of the
    variables inside each block of the given partition. Computed by
    averaging coefficients over orbit classes of subsets (the class of a
    subset is how many of its elements fall in each block)."""
    blocks = [tuple(sorted(set(b))) for b in blocks]
    flat = sorted(i for b in blocks for i in b)
    if flat != list(range(f.n)):
        raise ValueError(f"{blocks} is not a partition of 0..{f.n - 1}")
    block_of = {}
    for bi, b in enumerate(blocks):
        for i in b:
            block_of[i] = bi
    groups = {}
    for idx, subset in enumerate(f.basis.subsets):
        sig = [0] * len(blocks)
        for i in subset:
            sig[block_of[i]] += 1
        groups.setdefault(tuple(sig), []).append(idx)
    out = np.empty_like(f.coeffs)
    for idxs in groups.values():
        out[idxs] = float(f.coeffs[idxs].mean())
    return MultiAffinePoly(f.basis, out)


@dataclass(frozen=True)
class FlowCheckReport:
    n_samples: int
    identity_max: float
    semigroup_max: float
    mass_max: float
    contraction_violations: tuple
    lipschitz_max_ratio: float

    @property
    def ok(self) -> bool:
        return (
            self.identity_max <= 1e-10
            and self.semigroup_max <= 1e-10
            and self.mass_max <= 1e-10
            and not self.contraction_violations
        )


def contractive_flow_check(
    dec: SpectralDecomposition,
    oracle: MembershipOracle,
    samples,
    times=(0.01, 0.1, 1.0),
    pair_times=((0.3, 0.7), (1.5, -0.5), (-0.2, 0.9)),
) -> FlowCheckReport:
    """Numerically verify the contractive-flow properties on the given
    member polynomials: time-zero identity, the two-sided semigroup law,
    mass preservation, strict decrease of the centered norm for positive
    times (skipping the fixed point), and a spectral Lipschitz bound as a
    continuity probe."""
    identity_max = 0.0
    semigroup_max = 0.0
    mass_max = 0.0
    violations = []
    lipschitz_max = 0.0
    members = [g for g in samples if oracle.is_member(g)]
    for f in members:
        identity_max = max(
            identity_max, float(np.max(np.abs(flow(f, 0.0, dec).coeffs - f.coeffs)))
        )
        for s1, s2 in pair_times:
            left = flow(f, s1, dec)
            left = flow(left, s2, dec)
            right = flow(f, s1 + s2, dec)
            semigroup_max = max(
                semigroup_max, float(np.linalg.norm(left.coeffs - right.coeffs))
            )
        base = centered_norm(f, dec)
        for s in times:
            g = flow(f, float(s), dec)
            mass_max = max(mass_max, abs(g.value_at_ones() - f.value_at_ones()))
            if base > 1e-12 and not centered_norm(g, dec) < base:
                violations.append((f, float(s)))
    for a, b in zip(members, members[1:]):
        diff = float(np.linalg.norm(a.coeffs - b.coeffs))
        if diff < 1e-12:
            continue
        for s in times:
            moved = float(
                np.linalg.norm(flow(a, float(s), dec).coeffs - flow(b, float(s), dec).coeffs)
            )
            lipschitz_max = max(lipschitz_max, moved / diff)
    return FlowCheckReport(
        len(members),
        identity_max,
        semigroup_max,
        mass_max,
        tuple(violations),
        lipschitz_max,
    )
