"""The symmetric exclusion process as a linear flow on polynomial
coefficients.

A convex combination of variable transpositions acts on the subset basis
as a symmetric doubly stochastic matrix. Its spectral decomposition gives
a closed-form flow: the mass-preserving direction is left alone and every
orthogonal mode decays (forward time) or grows (backward time) at a rate
set by its eigenvalue gap. All flow operations here go through that
spectral form, so the semigroup law holds to round-off in both time
directions. One generator fill, ``_generator``, keyed by (d, kappa,
rates), serves ``build_generator`` and ``polarization.composition_chain``,
and one ``flow`` serves both polynomial types.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .poly import SubsetBasis, _freeze, exponent_table, subset_basis

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
        # support graph must connect all n variables: grow the component
        # of 0 by every pair that touches it, n - 1 times
        seen = {0}
        for _ in range(n - 1):
            seen |= {v for pair in clean if seen.intersection(pair) for v in pair}
        if len(seen) != n:
            raise ValueError("rate support does not generate the symmetric group "
                             f"(variables {sorted(set(range(n)) - seen)} unreachable)")
        self.n = n
        self.rates = clean

    def __repr__(self):
        return f"TranspositionRates(n={self.n}, npairs={len(self.rates)})"


def uniform_rates(n: int) -> TranspositionRates:
    """Equal rate on every pair of variables."""
    pairs = list(itertools.combinations(range(n), 2))
    return TranspositionRates(n, {p: 1.0 / len(pairs) for p in pairs})


def _generator(d: int, kappa: tuple, rates) -> np.ndarray:
    """The symmetrized generator of the exclusion flow on the compositions
    alpha <= kappa of d, in code order. ``rates`` lists ((b, c), q), q the
    rate of each lifted pair of one variable in block b and one in block c.
    Swapping an element of b in the subset for one of c outside it moves
    alpha to alpha - e_b + e_c, so a pair adds its moves, q sqrt(alpha_b
    (kappa_c - alpha_c) (alpha_c + 1) (kappa_b - alpha_b + 1)) and the same
    with b and c exchanged, off the diagonal: the root of the product of
    the two opposite rates, the same bit for bit from either side. It adds
    its stays, q (alpha_b alpha_c + (kappa_b - alpha_b)(kappa_c - alpha_c)),
    or q C(kappa_b, 2) when b = c, on the diagonal, the one place where
    pairs meet; they are summed there in the order of ``rates``."""
    radix, _, codes, digits, _ = exponent_table(d, kappa)
    A = np.zeros((codes.size, codes.size))  # before the temporaries: a heap hole below it lifts peak RSS
    alphas = digits.T.astype(np.int64)
    free = np.array(kappa, dtype=np.int64)[:, None] - alphas  # (n, M) room left in each block
    stay = np.zeros(codes.size)
    for (b, c), q in rates:
        stay += q * (math.comb(kappa[b], 2) if b == c else alphas[b] * alphas[c] + free[b] * free[c])
    (b, c), q = np.array([pair for pair, _ in rates]).T, np.array([q for _, q in rates])
    moving = b != c
    x, y = np.concatenate([b[moving], c[moving]]), np.concatenate([c[moving], b[moving]])
    k, src = np.nonzero((alphas[x] > 0) & (free[y] > 0))  # ordered pair k moves state src by e_y - e_x
    dst = np.searchsorted(codes, codes[src] + (radix[y] - radix[x])[k])
    x, y = x[k], y[k]
    root = np.sqrt(alphas[x, src] * free[y, src] * (alphas[y, src] + 1) * (free[x, src] + 1))
    A[dst, src] = np.tile(q[moving], 2)[k] * root
    A[np.diag_indices(codes.size)] = stay
    return A


def build_generator(basis: SubsetBasis, rates: TranspositionRates) -> np.ndarray:
    """The read-only generator matrix, a convex combination of
    transposition actions, symmetric and doubly stochastic: position
    (A, B) sums the rates of the transpositions mapping subset B to
    subset A, added in the order of the rates. It is ``_generator`` at
    kappa = 1^n, where a composition is a subset."""
    if rates.n != basis.n:
        raise ValueError(f"rates are on {rates.n} variables, basis on {basis.n}")
    if basis.size == 2:
        # Only n=2, d=1 has a two-element basis; the single available
        # transposition is a pure swap there, which is periodic and puts
        # an eigenvalue at -1.
        raise PeriodicFlowError(
            "a two-dimensional subset basis gives a periodic swap action; "
            "this configuration is excluded"
        )
    L = _generator(basis.d, (1,) * basis.n, rates.rates.items())
    # (A, B) and (B, A) hold one transposition's move, q sqrt(1), so they
    # agree bit for bit
    if not np.array_equal(L, L.T):
        raise ValueError("generator failed to come out symmetric")
    return _freeze(L)


class SpectralDecomposition:
    """Descending eigenvalues and an orthonormal eigenbasis V of a symmetric
    generator for the polynomials with (n, d, kappa), and read-only
    ``weights`` w: the flow maps c to w V e^{-s(1-lambda)} V^T (c / w).
    On a subset ``basis`` w = 1; on the composition chain, which has no
    basis or rates, w_alpha = sqrt(prod_i C(kappa_i, alpha_i)). The top
    eigenvalue is pinned to 1 with eigenvector w / |w|. Inside a repeated
    eigenvalue the eigenvectors are whatever the eigensolver returns: the
    flow acts on each eigenspace as a whole, so nothing downstream depends
    on that choice of basis."""

    __slots__ = ("basis", "eigenvalues", "vectors", "rates", "n", "d", "kappa", "weights")

    def __init__(self, basis, eigenvalues, vectors, rates, *, d=None, kappa=None, weights=None):
        if basis is not None:
            d, kappa = basis.d, (1,) * basis.n
        self.basis, self.rates = basis, rates
        self.n, self.d, self.kappa = len(kappa), d, kappa
        self.eigenvalues = _freeze(np.array(eigenvalues, dtype=float))
        self.vectors = _freeze(np.array(vectors, dtype=float))
        self.weights = _freeze(np.ones(self.size) if weights is None else np.array(weights, dtype=float))

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    @property
    def spectral_gap(self) -> float:
        if self.size < 2:
            return 0.0
        return float(1.0 - self.eigenvalues[1])

    def __repr__(self):
        return f"SpectralDecomposition(n={self.n}, d={self.d}, kappa={self.kappa}, size={self.size})"


def _checked_spectrum(A: np.ndarray, mass: np.ndarray):
    """Descending eigenvalues and orthonormal eigenvectors of a symmetric
    matrix that is similar, through a diagonal scaling, to a reversible
    stochastic matrix whose mass functional is ``mass`` (all ones when
    the matrix is doubly stochastic). Checks the invariants the flow
    relies on: a simple top eigenvalue at 1, everything else strictly
    above -1, reconstruction, orthonormality, and non-equilibrium modes
    that carry no mass. The top eigenvector is mass / |mass| up to sign
    and round-off, and is pinned to it exactly."""
    size = A.shape[0]
    w, vectors = np.linalg.eigh(A)
    w = w[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    if abs(w[0] - 1.0) > 1e-9:
        raise ValueError(f"top eigenvalue {w[0]} is not 1")
    if size > 1:
        if w[0] - w[1] <= 1e-9:
            raise PeriodicFlowError("periodic flow: top eigenvalue is not simple")
        if w[size - 1] <= -1.0 + 1e-9:
            raise PeriodicFlowError(f"periodic flow: bottom eigenvalue {w[size - 1]} is not strictly above -1")
    w[0] = 1.0
    vectors[:, 0] = mass / np.linalg.norm(mass)
    recon = (vectors * w) @ vectors.T
    scale = max(1.0, float(np.linalg.norm(A)))
    if np.linalg.norm(recon - A) > 1e-9 * scale:
        raise RuntimeError("spectral reconstruction error too large")
    if np.linalg.norm(vectors.T @ vectors - np.eye(size)) > 1e-10 * max(1.0, size):
        raise RuntimeError("eigenvectors failed orthonormality")
    if size > 1 and np.max(np.abs(mass @ vectors[:, 1:])) > 1e-9:
        raise RuntimeError("non-equilibrium mode with nonzero mass")
    return w, vectors


def spectral(basis: SubsetBasis, rates: TranspositionRates) -> SpectralDecomposition:
    """Eigendecomposition of the generator of ``rates`` on ``basis``, with
    the invariants of ``_checked_spectrum``: the generator is doubly
    stochastic, so its equilibrium is the uniform vector."""
    w, vectors = _checked_spectrum(build_generator(basis, rates), np.ones(basis.size))
    return SpectralDecomposition(basis, w, vectors, rates)


def _check_compatible(f, dec: SpectralDecomposition) -> None:
    if (f.n, f.d, f.kappa) != (dec.n, dec.d, dec.kappa):
        raise ValueError(f"polynomial has (n, d, kappa) {(f.n, f.d, f.kappa)}, decomposition {(dec.n, dec.d, dec.kappa)}")


def _decay_factors(s: float, lam: np.ndarray) -> np.ndarray:
    """Per-mode factors exp(-s (1 - lambda)) of the time-s flow, for
    descending eigenvalues ``lam``."""
    if s < 0.0 and (-s) * (1.0 - lam[-1]) > _MAX_EXPONENT:
        raise FlowOverflowError(
            f"backward flow by {s} would exceed the overflow guard"
        )
    return np.exp(-s * (1.0 - lam))


def flow(f, s: float, dec: SpectralDecomposition):
    """Apply the flow for time ``s`` (negative s runs it backward) to a
    multiaffine or capped polynomial with the decomposition's (n, d, kappa)."""
    _check_compatible(f, dec)
    V, w = dec.vectors, dec.weights
    x = V.T @ (f.coeffs / w)
    return f._like(w * (V @ (_decay_factors(s, dec.eigenvalues) * x)))


def eigen_coords(f, dec: SpectralDecomposition):
    """Coordinates of ``f`` split into the mass coordinate (the value at
    the all-ones point, i.e. the coefficient on the normalized
    equilibrium) and the coordinates of c / w on the decomposition's own
    non-equilibrium eigenvectors. Inside a repeated eigenvalue those
    eigenvectors are the eigensolver's choice, so only the per-eigenspace
    norms of these coordinates are basis-independent."""
    _check_compatible(f, dec)
    x0 = float(f.coeffs.sum())
    x = dec.vectors[:, 1:].T @ (f.coeffs / dec.weights)
    return x0, x


def _centered(f, dec: SpectralDecomposition) -> np.ndarray:
    """x = c / w less its component along w, (x.w / w.w) w: the
    non-equilibrium part of f in the flow's orthonormal coordinates, in
    code order. At w = 1 it is c - mean(c), bit for bit."""
    _check_compatible(f, dec)
    w = dec.weights
    x = f.coeffs / w
    return x - ((x * w).sum() / (w * w).sum()) * w


def centered_norm(f, dec: SpectralDecomposition) -> float:
    """Euclidean norm of the non-equilibrium coordinates, computed as the
    norm of ``_centered`` (the same value in any orthonormal eigenbasis)."""
    return float(np.linalg.norm(_centered(f, dec)))


def uniform_decomposition(n: int, d: int) -> SpectralDecomposition:
    """Spectral decomposition for uniform rates on the (n, d) basis."""
    return spectral(subset_basis(n, d), uniform_rates(n))
