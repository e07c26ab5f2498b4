"""Flow helpers that only the tests use: the primitivity of a generator,
the dense flow matrix, the contraction sandwich radii, block
symmetrization, a numerical check of the contractive-flow properties on
given members, the per-subset loops that built the generator, the lift
and the projection, kept as the oracles of their array forms, the
lift -> dense flow -> project path, the oracle of the composition chain,
the flow's fixed point on a subset basis, the closed-form Johnson
eigenbasis, the dense oracle of every uniform flow, the unweighted and
lifted Helmert frames, the oracles of the ball map's weighted frame, and the
ball coordinate of a member, which is ``escape_time``'s ball point away
from the fixed point.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from lorentzflow.ballmap import CENTER_EPS, MembershipOracle, escape_time
from lorentzflow.poly import HomPoly, MultiAffinePoly, exponent_table, subset_basis
from lorentzflow.polarization import (
    PolarizationPlan,
    lifted_decomposition,
    polarize_up,
    project_down,
)
from lorentzflow.sep import (
    PeriodicFlowError,
    SpectralDecomposition,
    _binomials,
    _checked_spectrum,
    _decay_factors,
    _dense,
    _eigh,
    _fill,
    _resolve,
    centered_norm,
    flow,
    uniform_rates,
)


def equilibrium(dec: SpectralDecomposition) -> MultiAffinePoly:
    """The flow's fixed point on a subset basis: the normalized all-ones
    coefficient vector."""
    size = dec.size
    return MultiAffinePoly(dec.basis, np.full(size, 1.0 / size))


def _johnson(n: int, d: int):
    """Descending eigenvalues and an orthonormal eigenbasis of the uniform
    generator on the d-subsets of n >= 2, with no eigensolver: the Johnson
    scheme J(n, d) gives label k the eigenvalue 1 - k (n + 1 - k) / C(n, 2)
    (Delsarte 1973). In colex order the subsets without n - 1, J(n - 1, d),
    precede those with it, J(n - 1, d - 1), and for n >= 2d the adjacency
    is [[A', B^T], [B, A'']], B the inclusion of (d-1)- in d-subsets. A
    column u of J(n - 1, d) of label k < d pairs with v = B u / sigma,
    sigma^2 = (d - k)(n - d - k), and a 2 x 2 rotation turns [u; 0], [0; v]
    into columns of labels k and k + 1; label d spans ker B and stays
    [u; 0]. Complements reverse colex order, and J(n, 1) is Helmert's."""
    sizes = [math.comb(n, k) for k in range(min(d, n - d) + 1)]  # label k has C(n, k) - C(n, k - 1) columns
    labels = np.searchsorted(sizes, np.arange(sizes[-1]), side="right")
    eigenvalues = 1.0 - labels * (n + 1 - labels) / math.comb(n, 2)
    if 2 * d > n:
        return eigenvalues, _johnson(n, n - d)[1][::-1]
    if d < 2:  # the Helmert basis of the n singletons, or of the empty set alone
        m = np.arange(math.comb(n, d))
        V = np.triu(np.ones((m.size, m.size)), 1)
        V[m, m], V[:, 0] = -m, 1.0
        return eigenvalues, V / np.sqrt(np.where(m > 0, m * (m + 1.0), m.size))
    w, U = _johnson(n - 1, d)
    k = np.cumsum(np.diff(w, prepend=1.0) < 0)  # a column's label counts the eigenvalue drops up to it
    n1, n2 = U.shape[0], math.comb(n - 1, d - 1)  # the n2 columns of label < d come first
    below, here = (exponent_table(j, (1,) * (n - 1)).codes for j in (d - 1, d))
    up = below[:, None] | (1 << np.arange(n - 1))
    gather = np.searchsorted(here, up[up != below[:, None]]).reshape(n2, n - d)
    Bu = sum(U[g, :n2] for g in gather.T)  # one gather per free slot of the (d-1)-subsets
    Bu /= np.sqrt((d - k[:n2]) * (n - d - k[:n2]))
    c, s = np.sqrt((n - d - k) / (n - 2.0 * k)), np.sqrt((d - k) / (n - 2.0 * k))
    # label k starts at C(n, k - 1): column j of U goes to j + C(n - 1, k - 2), its partner to j + C(n - 1, k + 1)
    shift = np.array([0, 0] + [math.comb(n - 1, j) for j in range(d + 2)])
    same, plus = np.arange(n1) + shift[k], np.arange(n2) + shift[k[:n2] + 3]
    V = np.zeros((n1 + n2, n1 + n2))
    V[:n1, same], V[n1:, same[:n2]] = U * c, Bu * s[:n2]
    V[:n1, plus], V[n1:, plus] = U[:, :n2] * -s[:n2], Bu * c[:n2]
    return eigenvalues, V


def dense_decomposition(d: int, kappa: tuple) -> SpectralDecomposition:
    """The dense oracle of the uniform flow on the compositions
    alpha <= kappa of d: the eigensolver's eigenbasis of the fill at rate
    1 / C(sum(kappa), 2) on every lifted pair, checked by
    ``_checked_spectrum``, as a decomposition whose flow reads it. At
    kappa = 1^n it lives on the subset basis with uniform rates, else on
    the chain, with weights sqrt(prod_i C(kappa_i, alpha_i))."""
    n, q = len(kappa), 1.0 / math.comb(sum(kappa), 2)
    fill = _fill(d, kappa, [(pair, q) for pair in itertools.combinations_with_replacement(range(n), 2)])
    weights = np.sqrt(_binomials(d, kappa).prod(axis=0))
    w, V = _checked_spectrum(fill, weights, _eigh(_dense(fill)))
    if max(kappa) == 1:
        return SpectralDecomposition(subset_basis(n, d), w, V, uniform_rates(n))
    return SpectralDecomposition(None, w, V, None, d=d, kappa=kappa, weights=weights)


def helmert_reference(c: np.ndarray) -> np.ndarray:
    """Helmert coordinates h_k = (c_0+...+c_{k-1} - k c_k)/sqrt(k(k+1)),
    k = 1..N-1, of the centered vector: an isometry of the sum-zero
    hyperplane onto R^(N-1). The oracle of the ball map's weighted frame
    at unit weights."""
    c = c - c.mean()
    k = np.arange(1, c.size)
    return (np.cumsum(c)[:-1] - k * c[1:]) / np.sqrt(k * (k + 1.0))


def lifted_frame(g: HomPoly, plan: PolarizationPlan | None = None) -> np.ndarray:
    """Helmert coordinates of a capped polynomial's lift: C(sum(kappa), d) - 1
    of them, the oracle of the chain's weighted frame."""
    return helmert_reference(polarize_up(g, plan).coeffs)


def _swap_subset(subset, i, j):
    s = set(subset)
    has_i = i in s
    has_j = j in s
    if has_i != has_j:
        s ^= {i, j}
    return tuple(sorted(s))


def build_generator_reference(basis, rates):
    """The generator matrix entry by entry: position (A, B) sums the rates
    of the transpositions mapping subset B to subset A."""
    size = basis.size
    L = np.zeros((size, size))
    for (i, j), q in rates.rates.items():
        for b, subset in enumerate(basis.subsets):
            a = basis.rank(_swap_subset(subset, i, j))
            L[a, b] += q
    return L


def polarize_up_reference(f: HomPoly, plan: PolarizationPlan | None = None) -> MultiAffinePoly:
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


def project_down_reference(g: MultiAffinePoly, plan: PolarizationPlan) -> HomPoly:
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


def polarized_flow_reference(f: HomPoly, s: float, plan: PolarizationPlan | None = None) -> HomPoly:
    """Flow a capped polynomial through the lift: lift, run the dense
    uniform-rate flow on the lifted variables, project back."""
    if plan is None:
        plan = PolarizationPlan(f.n, f.d, f.kappa)
    dec = lifted_decomposition(plan.lifted_n, plan.d)
    return project_down(flow(polarize_up(f, plan), s, dec), plan)


def check_primitivity(gen, max_power: int | None = None) -> int:
    """Smallest power of the generator with all entries positive, found by
    iterated boolean products, of a square matrix such as
    ``build_generator``'s; raises PeriodicFlowError when no power up to
    the cap works."""
    M = np.asarray(gen, dtype=float)
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
    return (V * _decay_factors(s, dec.eigenvalues)) @ V.T


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


def ball_coordinates(
    f,
    oracle: MembershipOracle,
    dec: SpectralDecomposition | None = None,
    s_max: float = 50.0,
    tol: float = 1e-8,
    plan: PolarizationPlan | None = None,
) -> np.ndarray:
    """Candidate ball coordinate of a member: zero at the fixed point,
    exp(-sigma) times the anchor direction elsewhere; unit norm exactly on
    the boundary."""
    g, flow_dec = _resolve(f, dec, plan)
    if centered_norm(g, flow_dec) < CENTER_EPS:
        return np.zeros(flow_dec.size - 1)
    result = escape_time(f, oracle, dec, s_max=s_max, tol=tol, plan=plan)
    return result.ball_point
