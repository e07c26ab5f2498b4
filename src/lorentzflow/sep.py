"""The symmetric exclusion process as a linear flow on polynomial
coefficients.

A convex combination of variable transpositions acts on the subset basis
as a symmetric doubly stochastic matrix. The flow splits a coefficient
vector into its eigenspace parts: the mass-preserving part is left alone
and every other part decays (forward time) or grows (backward time) at a
rate set by its eigenvalue gap, so the semigroup law holds to round-off in
both time directions. Uniform rates, on every cap vector, hold no
eigenbasis: ``_InclusionMaps`` finds the Johnson eigenspace parts from the
maps that add and remove one lifted variable, and their eigenvalues are in
closed form. Only custom rates build the dense generator (``_fill``, one
fill for every generator) and call the eigensolver. One ``flow`` serves
both polynomial types.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .poly import SubsetBasis, _freeze, exponent_code, exponent_table, subset_basis

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


@lru_cache(maxsize=32)
def _binomials(d: int, kappa: tuple) -> np.ndarray:
    """C(kappa_i, alpha_i), shape (n, N), over the exponents of
    ``exponent_table(d, kappa)``: the number of ways block i picks alpha_i
    of its variables. Read-only."""
    comb = np.array([[math.comb(k, a) for a in range(d + 1)] for k in kappa], dtype=float)
    binom = np.take_along_axis(comb, exponent_table(d, kappa).digits.T, axis=1)
    binom.flags.writeable = False
    return binom


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


def _johnson_spectrum(total: int, sizes) -> np.ndarray:
    """The eigenvalue of every Johnson label k, 1 - k (total + 1 - k) /
    C(total, 2) (Delsarte 1973), and the descending spectrum on levels of
    ``sizes`` compositions, where label k has multiplicity
    sizes[k] - sizes[k - 1]. Refuses the periodic swap, total = 2 at
    degree 1."""
    labels = np.arange(len(sizes))
    values = 1.0 - labels * (total + 1 - labels) / math.comb(total, 2)
    spectrum = np.repeat(values, np.diff(sizes, prepend=0))
    if spectrum[-1] <= -1.0 + 1e-9:
        raise PeriodicFlowError(_PERIODIC.format(spectrum[-1]))
    return values, spectrum


def _inclusion(src: np.ndarray, dst: np.ndarray, room: np.ndarray, step: np.ndarray, weighted: bool):
    """The map onto the level of codes ``dst`` from that of ``src``,
    slot-major: row r gathers the codes dst[r] + step[b], weighted
    room[r, b] > 0, and pads with src.size, an appended zero. Every
    neighbour code must be found exactly."""
    live = room > 0
    rows, blocks = np.nonzero(live)
    slots = (np.cumsum(live, axis=1) - 1)[rows, blocks]
    target = dst[rows] + step[blocks]
    index = np.searchsorted(src, target)
    if not np.array_equal(src[np.minimum(index, src.size - 1)], target):
        raise RuntimeError("inclusion map: a neighbour code is missing from its level")
    gather = np.full((int(live.sum(axis=1).max()), dst.size), src.size, dtype=np.intp)
    gather[slots, rows] = index
    if not weighted:
        return gather, None
    weight = np.zeros(gather.shape)
    weight[slots, rows] = room[rows, blocks]
    return gather, weight


def _apply(x: np.ndarray, inclusion) -> np.ndarray:
    """An ``_inclusion`` applied to x (vector or columns, last row the
    appended zero): one gather, one sum over the slots, a zero appended."""
    gather, weight = inclusion
    y = np.take(x, gather, axis=0)
    if weight is not None:
        y *= weight if x.ndim == 1 else weight[:, :, None]
    out = np.empty((gather.shape[1] + 1,) + x.shape[1:])
    np.add.reduce(y, axis=0, out=out[:-1])
    out[-1] = 0.0
    return out


class _InclusionMaps:
    """The uniform flow on the compositions alpha <= kappa of d with no
    eigenbasis. On block-symmetric functions g = c / W of lifted subsets,
    W = prod_b C(kappa_b, alpha_b), ``up[j]`` adds a lifted variable to
    level j, (Ug)(alpha) = sum_b alpha_b g(alpha - e_b), and ``down[j]``,
    D = U^T, removes one from level j + 1, (Dg)(beta) = sum_b
    (kappa_b - beta_b) g(beta + e_b), for j < L = min(d, N - d),
    N = sum(kappa). On level L the generator is a I + b (UD - L I). By the
    lattice's sl_2 action (Proctor 1982) level L is the sum of the Johnson
    eigenspaces U^(L-k) ker D (Filmus 2016), and D U^t h =
    t (N - 2k - t + 1) U^(t-1) h on ker D at level k, so one sweep down
    and one up find every part P_k g. For d > N/2, g is read on the
    complements kappa - alpha, level N - d in reversed code order, which
    commute with the flow."""

    __slots__ = ("binomials", "count", "flip", "sizes", "up", "down", "sweep", "a", "b", "eigenvalues", "spectrum",
                 "live")

    def __init__(self, d: int, kappa: tuple):
        total = sum(kappa)
        top = min(d, total - d)
        caps = np.array(kappa, dtype=np.int64)
        # one radix for every level, the radix of level d's own table
        radix, base, *codes = exponent_code(kappa, d, *range(top + 1), d)
        self.sizes = [c.size for c in codes[:-1]]
        self.eigenvalues, self.spectrum = _johnson_spectrum(total, self.sizes)
        digits = [(c[:, None] // radix) % base for c in codes]
        self.flip = top < d
        if self.flip and not np.array_equal(digits[top], caps - digits[-1][::-1]):
            raise RuntimeError("complements are not in reversed code order")
        weighted = max(kappa) > 1
        self.up = [_inclusion(codes[j], codes[j + 1], digits[j + 1], -radix, weighted) for j in range(top)]
        self.down = [_inclusion(codes[j + 1], codes[j], caps - digits[j], radix, weighted) for j in range(top)]
        self.binomials = _binomials(d, kappa).prod(axis=0) if weighted else 1.0  # W
        self.count = math.comb(total, d)  # sum of the binomials, the lifted basis size
        self.live = np.flatnonzero(np.diff(self.sizes, prepend=0)[1:]) + 1  # labels of nonzero multiplicity
        # D^(L-j) U^(L-k) h_k = sweep[j, k] U^(j-k) h_k: the product of t (N - 2k - t + 1), j - k < t <= L - k
        self.sweep = np.zeros((top + 1, top + 1))
        for k in range(1, top + 1):
            for j in range(k, top + 1):
                self.sweep[j, k] = math.prod(t * (total - 2 * k - t + 1) for t in range(j - k + 1, top - k + 1))
        self.b = 1.0 / math.comb(total, 2)
        self.a = self.b * (math.comb(top, 2) + math.comb(total - top, 2))

    def generator(self, x: np.ndarray, shift=0.0) -> np.ndarray:
        """a x + b (UD x - L x) - shift x on the columns of x, vectors on
        level L: one lowering and one raising of the whole stack."""
        top = len(self.up)
        ud = _apply(_apply(np.concatenate((x, np.zeros((1, x.shape[1])))), self.down[top - 1]), self.up[top - 1])
        return self.b * ud[:-1] + (self.a - self.b * top - shift) * x

    def check(self, parts: np.ndarray, scale: float) -> None:
        """Every part P_k g, a column of ``parts``, must satisfy
        |A P_k g - lambda_k P_k g|_inf <= 1e-10 scale, scale = |g - P_0 g|_inf."""
        worst = float(np.abs(self.generator(parts, self.eigenvalues[1:])).max(initial=0.0))
        if not worst <= 1e-10 * scale:
            raise RuntimeError(f"eigenspace parts fail the eigen-equation: residual {worst:.3g} against {scale:.3g}")

    def parts(self, coeffs: np.ndarray):
        """P_0 g = sum(c) / sum(W), taken out first so that the mean does
        not cancel against the small parts, and the checked parts P_k g of
        g = c / W, labels of nonzero multiplicity, as (M, m) columns."""
        g = coeffs / self.binomials
        mass = float(coeffs.sum()) / self.count
        top = len(self.up)
        if top == 0:
            return mass, np.zeros((g.size, 0))
        x = g - mass
        # the mass that rounding leaves in g - P_0 g goes back to P_0
        drift = float((x * self.binomials).sum()) / self.count
        mass, x = mass + drift, x - drift
        levels = [None] * (top + 1)  # g_j = D^(L-j) (g - P_0 g), each with the appended zero
        levels[top] = np.append(x[::-1] if self.flip else x, 0.0)
        for j in range(top - 1, 0, -1):
            levels[j] = _apply(levels[j + 1], self.down[j])
        # h_j = (g_j - sum_{k<j} sweep[j, k] U^(j-k) h_k) / sweep[j, j]; stack holds U^(j-k) h_k, k <= j
        stack = (levels[1] / self.sweep[1, 1])[:, None]
        for j in range(2, top + 1):
            raised = _apply(stack, self.up[j - 1])
            h = (levels[j] - raised @ self.sweep[j, 1:j]) / self.sweep[j, j]
            stack = np.concatenate((raised, h[:, None]), axis=1)
        stack = stack[:-1]
        self.check(stack, float(np.abs(x).max()))
        if self.live.size < top:
            stack = stack[:, self.live - 1]
        return mass, stack[::-1] if self.flip else stack


class SpectralDecomposition:
    """The flow for the polynomials with (n, d, kappa): descending
    ``eigenvalues``, the top one 1, and read-only ``weights`` w of the
    orthonormal coordinates c / w, 1 on a subset ``basis`` and
    sqrt(prod_i C(kappa_i, alpha_i)) on the composition chain, which has no
    basis or rates. Uniform rates hold ``_InclusionMaps`` and closed-form
    eigenvalues, custom rates the eigensolver's eigenbasis ``vectors``. A
    uniform decomposition builds ``vectors`` from the dense generator only
    when read; no flow reads it."""

    __slots__ = ("basis", "eigenvalues", "_vectors", "rates", "n", "d", "kappa", "weights", "_maps")

    def __init__(self, basis, eigenvalues, vectors, rates, *, d=None, kappa=None, weights=None, maps=None):
        if basis is not None:
            d, kappa = basis.d, (1,) * basis.n
        self.basis, self.rates, self._maps = basis, rates, maps
        self.n, self.d, self.kappa = len(kappa), d, kappa
        self.eigenvalues = _freeze(np.array(eigenvalues, dtype=float))
        self._vectors = None if vectors is None else _freeze(np.array(vectors, dtype=float))
        self.weights = _freeze(np.ones(self.size) if weights is None else np.array(weights, dtype=float))

    @property
    def vectors(self) -> np.ndarray:
        if self._vectors is None:
            q = 1.0 / math.comb(sum(self.kappa), 2)
            pairs = itertools.combinations_with_replacement(range(self.n), 2)
            fill = _fill(self.d, self.kappa, [(pair, q) for pair in pairs])
            self._vectors = _freeze(_checked_spectrum(fill, self.weights, _eigh(_dense(fill)))[1])
        return self._vectors

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


def _uniform(d: int, kappa: tuple, basis=None, rates=None) -> SpectralDecomposition:
    """The uniform flow on the compositions alpha <= kappa of d, from its
    inclusion maps."""
    maps = _InclusionMaps(d, kappa)
    weights = np.sqrt(np.broadcast_to(maps.binomials, maps.spectrum.shape))
    return SpectralDecomposition(basis, maps.spectrum, None, rates, d=d, kappa=kappa, weights=weights, maps=maps)


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
    """The flow of ``rates`` on ``basis``: uniform rates take the inclusion
    maps, others the eigensolver on the dense generator, with the
    invariants of ``_checked_spectrum``; the generator is doubly
    stochastic, so its equilibrium is the uniform vector."""
    if rates.n != basis.n:
        raise ValueError(f"rates are on {rates.n} variables, basis on {basis.n}")
    if rates.uniform:
        return _uniform(basis.d, (1,) * basis.n, basis, rates)
    eig = _eigh(build_generator(basis, rates))
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


def _flow_at(f, dec: SpectralDecomposition):
    """The function s -> flow(f, s, dec). f is split into its eigenspace
    parts once; each time is then a weighted sum of them."""
    _check_compatible(f, dec)
    maps = dec._maps
    if maps is None:
        V, w = dec.vectors, dec.weights
        x = V.T @ (f.coeffs / w)
        return lambda s: f._like(w * (V @ (_decay_factors(s, dec.eigenvalues) * x)))
    mass, parts = maps.parts(f.coeffs)
    lam = maps.eigenvalues[np.append(0, maps.live)]  # label 0, the mass, keeps the guard on the bottom one
    return lambda s: f._like(maps.binomials * (mass + parts @ _decay_factors(s, lam)[1:]))


def flow(f, s: float, dec: SpectralDecomposition):
    """Apply the flow for time ``s`` (negative s runs it backward) to a
    multiaffine or capped polynomial with the decomposition's (n, d, kappa):
    c' = W (P_0 g + sum_k exp(-s (1 - lambda_k)) P_k g), g = c / W."""
    return _flow_at(f, dec)(s)


def eigen_coords(f, dec: SpectralDecomposition):
    """The mass coordinate of ``f``, its value at the all-ones point, and
    one row per eigenvalue below 1: the part in that eigenspace of the
    orthonormal coordinates c / w. On a uniform decomposition the row of
    Johnson label k is sqrt(W) P_k g, g = c / W; on a dense one it is
    V_k V_k^T (c / w), V_k the eigenvectors of one eigenvalue (within
    1e-9). The rows are orthogonal and sum to the centered coordinates, so
    their norms are the per-eigenspace norms, which depend on no choice of
    eigenbasis."""
    _check_compatible(f, dec)
    x0 = float(f.coeffs.sum())
    if dec._maps is not None:
        return x0, (dec._maps.parts(f.coeffs)[1] * dec.weights[:, None]).T
    x, V = f.coeffs / dec.weights, dec.vectors
    groups = np.split(np.arange(1, dec.size), np.flatnonzero(np.diff(dec.eigenvalues[1:]) < -1e-9) + 1)
    return x0, np.array([V[:, k] @ (V[:, k].T @ x) for k in groups if k.size]).reshape(-1, dec.size)


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
    """The uniform-rate flow on the (n, d) basis, from its inclusion maps;
    built afresh on every call."""
    return spectral(subset_basis(n, d), uniform_rates(n))
