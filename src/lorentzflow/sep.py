"""The symmetric exclusion process as a linear flow on polynomial
coefficients.

A convex combination of variable transpositions acts on the subset basis
as a symmetric doubly stochastic matrix. Its spectral decomposition gives
a closed-form flow: the mass-preserving direction is left alone and every
orthogonal mode decays (forward time) or grows (backward time) at a rate
set by its eigenvalue gap. All flow operations here go through that
spectral form, so the semigroup law holds to round-off in both time
directions. One generator fill, ``_fill``, serves ``build_generator``
and ``polarization.composition_chain``, uniform flows take a closed-form
eigenbasis, ``_johnson``, and one ``flow`` serves both polynomial types.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .poly import SubsetBasis, _freeze, exponent_table, subset_basis

# exp overflow guard for backward flow; doubles top out near exp(709)
_MAX_EXPONENT = 700.0
_PERIODIC = "periodic flow: bottom eigenvalue {} is not strictly above -1"


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

    @property
    def uniform(self) -> bool:
        """Whether these are exactly the rates of ``uniform_rates(n)``."""
        return len(self.rates) == math.comb(self.n, 2) and set(self.rates.values()) == {1.0 / len(self.rates)}

    def __repr__(self):
        return f"TranspositionRates(n={self.n}, npairs={len(self.rates)})"


def uniform_rates(n: int) -> TranspositionRates:
    """Equal rate on every pair of variables."""
    pairs = list(itertools.combinations(range(n), 2))
    return TranspositionRates(n, {p: 1.0 / len(pairs) for p in pairs})


def _fill(d: int, kappa: tuple, rates):
    """The symmetrized generator of the exclusion flow on the compositions
    alpha <= kappa of d, in code order, as distinct entries (dst, src,
    moves) off the diagonal and ``stay`` on it. ``rates`` lists ((b, c), q),
    q the rate of each lifted pair of one variable in block b and one in
    block c. Swapping an element of b in the subset for one of c outside it
    moves alpha to alpha - e_b + e_c, so a pair adds its moves, q sqrt(
    alpha_b (kappa_c - alpha_c) (alpha_c + 1) (kappa_b - alpha_b + 1)) and
    the same with b and c exchanged: the root of the product of the two
    opposite rates, the same bit for bit from either side. It adds its
    stays, q (alpha_b alpha_c + (kappa_b - alpha_b)(kappa_c - alpha_c)), or
    q C(kappa_b, 2) when b = c, where pairs meet; they are summed there in
    the order of ``rates``."""
    radix, _, codes, digits, _ = exponent_table(d, kappa)
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
    return dst, src, np.tile(q[moving], 2)[k] * root, stay


def _dense(fill) -> np.ndarray:
    """The matrix of a ``_fill``."""
    dst, src, moves, stay = fill
    A = np.diag(stay)
    A[dst, src] = moves
    return A


def build_generator(basis: SubsetBasis, rates: TranspositionRates) -> np.ndarray:
    """The read-only generator matrix, a convex combination of
    transposition actions, symmetric and doubly stochastic: position
    (A, B) sums the rates of the transpositions mapping subset B to
    subset A, added in the order of the rates. It is the ``_fill`` at
    kappa = 1^n, where a composition is a subset."""
    if rates.n != basis.n:
        raise ValueError(f"rates are on {rates.n} variables, basis on {basis.n}")
    if basis.size == 2:
        # only n=2, d=1 has a two-element basis; its one transposition is
        # a pure swap, with eigenvalues 1 and -1
        raise PeriodicFlowError(_PERIODIC.format(-1.0))
    L = _dense(_fill(basis.d, (1,) * basis.n, rates.rates.items()))
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
    eigenvalue the eigenvectors are ``_johnson``'s for uniform flows, else
    the eigensolver's: the flow acts on each eigenspace as a whole, so
    nothing downstream depends on that choice of basis."""

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


def _eigh(A: np.ndarray):
    """Descending eigenvalues and eigenvectors from the dense eigensolver."""
    w, vectors = np.linalg.eigh(A)
    return w[::-1].copy(), vectors[:, ::-1].copy()


def _checked_spectrum(fill, mass: np.ndarray, eig):
    """Checks the descending eigenvalues and eigenvectors ``eig`` of the
    matrix of ``fill``, which is similar, through a diagonal scaling, to a
    reversible stochastic matrix whose mass functional is ``mass`` (all
    ones when the matrix is doubly stochastic): a simple top eigenvalue at
    1, everything else strictly above -1, reconstruction (the fill is
    subtracted from V diag(w) V^T in place), orthonormality, and
    non-equilibrium modes that carry no mass. The top eigenvector is
    mass / |mass| up to sign and round-off, and is pinned to it exactly."""
    (dst, src, moves, stay), (w, vectors) = fill, eig
    size = stay.size
    if abs(w[0] - 1.0) > 1e-9:
        raise ValueError(f"top eigenvalue {w[0]} is not 1")
    if size > 1:
        if w[0] - w[1] <= 1e-9:
            raise PeriodicFlowError("periodic flow: top eigenvalue is not simple")
        if w[size - 1] <= -1.0 + 1e-9:
            raise PeriodicFlowError(_PERIODIC.format(w[size - 1]))
    w[0] = 1.0
    vectors[:, 0] = mass / np.linalg.norm(mass)
    residual = (vectors * w) @ vectors.T
    residual[dst, src] -= moves
    residual[np.diag_indices(size)] -= stay
    scale = max(1.0, math.sqrt(moves @ moves + stay @ stay))
    if np.linalg.norm(residual) > 1e-9 * scale:
        raise RuntimeError("spectral reconstruction error too large")
    gram = vectors.T @ vectors
    gram[np.diag_indices(size)] -= 1.0
    if np.linalg.norm(gram) > 1e-10 * max(1.0, size):
        raise RuntimeError("eigenvectors failed orthonormality")
    if size > 1 and np.max(np.abs(mass @ vectors[:, 1:])) > 1e-9:
        raise RuntimeError("non-equilibrium mode with nonzero mass")
    return w, vectors


def spectral(basis: SubsetBasis, rates: TranspositionRates) -> SpectralDecomposition:
    """Eigendecomposition of the generator of ``rates`` on ``basis``, with
    the invariants of ``_checked_spectrum``: the generator is doubly
    stochastic, so its equilibrium is the uniform vector. Uniform rates
    use the closed form, others the eigensolver."""
    if rates.n != basis.n:
        raise ValueError(f"rates are on {rates.n} variables, basis on {basis.n}")
    eig = _johnson(basis.n, basis.d) if rates.uniform else _eigh(build_generator(basis, rates))
    w, vectors = _checked_spectrum(_fill(basis.d, (1,) * basis.n, rates.rates.items()), np.ones(basis.size), eig)
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
    eigenvectors are one choice among many, so only the per-eigenspace
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
