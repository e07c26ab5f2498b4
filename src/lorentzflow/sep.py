"""The symmetric exclusion process as a linear flow on multiaffine
polynomial coefficients.

A convex combination of variable transpositions acts on the subset basis
as a symmetric doubly stochastic matrix. Its spectral decomposition gives
a closed-form flow: the mass-preserving direction is left alone and every
orthogonal mode decays (forward time) or grows (backward time) at a rate
set by its eigenvalue gap. All flow operations here go through that
spectral form, so the semigroup law holds to round-off in both time
directions.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .poly import MultiAffinePoly, SubsetBasis, subset_basis

# exp overflow guard for backward flow; doubles top out near exp(709)
_MAX_EXPONENT = 700.0


class PeriodicFlowError(ValueError):
    """The transposition action is periodic on this basis, so the strict
    spectral ordering needed by the flow fails."""


class FlowOverflowError(ValueError):
    """Backward flow would overflow double precision."""


class TranspositionRates:
    """Nonnegative rates on unordered variable pairs, summing to one, whose
    positive-rate pairs connect all variables (equivalently: the chosen
    transpositions generate the full symmetric group)."""

    __slots__ = ("n", "rates")

    def __init__(self, n: int, rates):
        if n < 2:
            raise ValueError(f"need at least two variables, got n={n}")
        clean = {}
        for pair, q in rates.items():
            i, j = sorted(int(v) for v in pair)
            if i == j or i < 0 or j >= n:
                raise ValueError(f"bad transposition pair {pair}")
            q = float(q)
            if q < 0.0:
                raise ValueError(f"negative rate {q} for pair {pair}")
            if q > 0.0:
                clean[(i, j)] = clean.get((i, j), 0.0) + q
        total = sum(clean.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"rates sum to {total}, expected 1")
        # support graph must connect all n variables
        seen = {0}
        frontier = [0]
        adj = {v: set() for v in range(n)}
        for (i, j) in clean:
            adj[i].add(j)
            adj[j].add(i)
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if len(seen) != n:
            raise ValueError("rate support does not generate the symmetric group "
                             f"(variables {sorted(set(range(n)) - seen)} unreachable)")
        self.n = n
        self.rates = clean

    def __repr__(self):
        return f"TranspositionRates(n={self.n}, npairs={len(self.rates)})"


def uniform_rates(n: int) -> TranspositionRates:
    """Equal rate on every pair of variables."""
    if n < 2:
        raise ValueError(f"need at least two variables, got n={n}")
    q = 1.0 / math.comb(n, 2)
    return TranspositionRates(n, {p: q for p in itertools.combinations(range(n), 2)})


def _swap_subset(subset, i, j):
    s = set(subset)
    has_i = i in s
    has_j = j in s
    if has_i != has_j:
        s ^= {i, j}
    return tuple(sorted(s))


class SepGenerator:
    """Convex combination of transposition actions on a subset basis;
    symmetric and doubly stochastic by construction."""

    __slots__ = ("basis", "matrix", "rates")

    def __init__(self, basis: SubsetBasis, matrix: np.ndarray, rates: TranspositionRates):
        self.basis = basis
        m = np.array(matrix, dtype=float)
        m.flags.writeable = False
        self.matrix = m
        self.rates = rates


def build_generator(basis: SubsetBasis, rates: TranspositionRates) -> SepGenerator:
    """Assemble the generator matrix entry by entry: position (A, B) sums
    the rates of the transpositions mapping subset B to subset A."""
    if rates.n != basis.n:
        raise ValueError(f"rates are on {rates.n} variables, basis on {basis.n}")
    size = basis.size
    if size == 2:
        # Only n=2, d=1 has a two-element basis; the single available
        # transposition is a pure swap there, which is periodic and puts
        # an eigenvalue at -1.
        raise PeriodicFlowError(
            "a two-dimensional subset basis gives a periodic swap action; "
            "this configuration is excluded"
        )
    L = np.zeros((size, size))
    for (i, j), q in rates.rates.items():
        for b, subset in enumerate(basis.subsets):
            a = basis.rank(_swap_subset(subset, i, j))
            L[a, b] += q
    if not np.allclose(L, L.T, atol=1e-12):
        raise ValueError("generator failed to come out symmetric")
    return SepGenerator(basis, L, rates)


class SpectralDecomposition:
    """Descending eigenvalues and an orthonormal eigenbasis of a generator.
    The top eigenvalue is pinned to 1 with the uniform vector. Inside a
    repeated eigenvalue the eigenvectors are whatever the eigensolver
    returns: the flow acts on each eigenspace as a whole, so nothing
    downstream depends on that choice of basis."""

    __slots__ = ("basis", "eigenvalues", "vectors", "rates")

    def __init__(self, basis, eigenvalues, vectors, rates):
        self.basis = basis
        ev = np.array(eigenvalues, dtype=float)
        vv = np.array(vectors, dtype=float)
        ev.flags.writeable = False
        vv.flags.writeable = False
        self.eigenvalues = ev
        self.vectors = vv
        self.rates = rates

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    @property
    def spectral_gap(self) -> float:
        if self.size < 2:
            return 0.0
        return float(1.0 - self.eigenvalues[1])

    def __repr__(self):
        return f"SpectralDecomposition(n={self.basis.n}, d={self.basis.d}, size={self.size})"


def spectral(gen: SepGenerator) -> SpectralDecomposition:
    """Eigendecomposition of the generator with the invariants the flow
    relies on: a simple top eigenvalue at 1, everything else strictly
    above -1, and orthonormal eigenvectors whose non-equilibrium modes
    carry no mass."""
    L = gen.matrix
    size = L.shape[0]
    w, vectors = np.linalg.eigh(L)
    w = w[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    if abs(w[0] - 1.0) > 1e-9:
        raise ValueError(f"top eigenvalue {w[0]} is not 1")
    if size > 1:
        if w[0] - w[1] <= 1e-9:
            raise PeriodicFlowError("top eigenvalue is not simple")
        if w[size - 1] <= -1.0 + 1e-9:
            raise PeriodicFlowError(
                f"bottom eigenvalue {w[size - 1]} is not strictly above -1"
            )
    w[0] = 1.0
    # the generator is doubly stochastic and its top eigenvalue is simple,
    # so eigh's column 0 is the uniform vector up to sign and round-off;
    # pin it exactly
    vectors[:, 0] = 1.0 / math.sqrt(size)
    # invariant checks: reconstruction, orthonormality, zero mass of the
    # non-equilibrium modes
    recon = (vectors * w) @ vectors.T
    scale = max(1.0, float(np.linalg.norm(L)))
    if np.linalg.norm(recon - L) > 1e-9 * scale:
        raise RuntimeError("spectral reconstruction error too large")
    if np.linalg.norm(vectors.T @ vectors - np.eye(size)) > 1e-10 * max(1.0, size):
        raise RuntimeError("eigenvectors failed orthonormality")
    if size > 1:
        mass = np.abs(vectors[:, 1:].sum(axis=0))
        if np.max(mass) > 1e-9:
            raise RuntimeError("non-equilibrium mode with nonzero mass")
    return SpectralDecomposition(gen.basis, w, vectors, gen.rates)


def _check_compatible(f: MultiAffinePoly, dec: SpectralDecomposition) -> None:
    if f.basis != dec.basis:
        raise ValueError(
            f"polynomial lives on {f.basis!r}, decomposition on {dec.basis!r}"
        )


def _decay_factors(s: float, dec: SpectralDecomposition) -> np.ndarray:
    lam = dec.eigenvalues
    if s < 0.0 and (-s) * (1.0 - lam[-1]) > _MAX_EXPONENT:
        raise FlowOverflowError(
            f"backward flow by {s} would exceed the overflow guard"
        )
    return np.exp(-s * (1.0 - lam))


def flow(f: MultiAffinePoly, s: float, dec: SpectralDecomposition) -> MultiAffinePoly:
    """Apply the flow for time ``s`` (negative s runs it backward)."""
    _check_compatible(f, dec)
    V = dec.vectors
    x = V.T @ f.coeffs
    return MultiAffinePoly(f.basis, V @ (_decay_factors(s, dec) * x))


def eigen_coords(f: MultiAffinePoly, dec: SpectralDecomposition):
    """Coordinates of ``f`` split into the mass coordinate (the value at
    the all-ones point, i.e. the coefficient on the normalized elementary
    symmetric equilibrium) and the coordinates on the decomposition's own
    non-equilibrium eigenvectors. Inside a repeated eigenvalue those
    eigenvectors are the eigensolver's choice, so only the per-eigenspace
    norms of these coordinates are basis-independent."""
    _check_compatible(f, dec)
    x0 = float(f.coeffs.sum())
    x = dec.vectors[:, 1:].T @ f.coeffs
    return x0, x


def centered_norm(f: MultiAffinePoly, dec: SpectralDecomposition) -> float:
    """Euclidean norm of the non-equilibrium coordinates, computed as the
    distance of the coefficient vector from its mean (the same value in
    any orthonormal eigenbasis)."""
    _check_compatible(f, dec)
    return float(np.linalg.norm(f.coeffs - f.coeffs.mean()))


def equilibrium(dec: SpectralDecomposition) -> MultiAffinePoly:
    """The flow's fixed point: the normalized all-ones coefficient vector."""
    size = dec.size
    return MultiAffinePoly(dec.basis, np.full(size, 1.0 / size))


def uniform_decomposition(n: int, d: int) -> SpectralDecomposition:
    """Spectral decomposition for uniform rates on the (n, d) basis."""
    return spectral(build_generator(subset_basis(n, d), uniform_rates(n)))
