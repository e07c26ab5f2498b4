"""Polynomial substrate: subset bases, multiaffine and degree-capped
homogeneous polynomials, and the operations everything else consumes.

Conventions
-----------
Variables are indexed 0..n-1. A multiaffine monomial is identified with
the subset of variables it contains; the basis of degree-d multiaffine
monomials is ordered colexicographically. Capped polynomials store a
sparse map from exponent vectors (integer tuples summing to the degree)
to coefficients. Univariate restriction coefficients are returned in
ascending order, constant term first.

All polynomial objects are immutable after construction; every operation
returns a new object, so instances are safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

# Hard cap on variable counts. C(n, d) grows fast and nothing at desk
# scale needs more; failing loudly beats a silent combinatorial blowup.
MAX_VARS = 16


def _check_dims(n: int, d: int) -> None:
    if n <= 0:
        raise ValueError(f"need at least one variable, got n={n}")
    if d < 0 or d > n:
        raise ValueError(f"degree d={d} outside 0..{n}")
    if n > MAX_VARS:
        raise ValueError(f"n={n} exceeds the hard cap of {MAX_VARS} variables")


class SubsetBasis:
    """All d-element subsets of {0, ..., n-1} in colexicographic order.

    Subsets are sorted integer tuples. ``rank`` and ``unrank`` are mutually
    inverse bijections between subsets and positions 0..C(n,d)-1.
    """

    __slots__ = ("n", "d", "subsets", "_positions")

    def __init__(self, n: int, d: int):
        _check_dims(n, d)
        self.n = n
        self.d = d
        # colex: compare largest elements first
        self.subsets = tuple(
            sorted(itertools.combinations(range(n), d), key=lambda s: s[::-1])
        )
        self._positions = {s: i for i, s in enumerate(self.subsets)}

    @property
    def size(self) -> int:
        return len(self.subsets)

    def rank(self, subset) -> int:
        key = tuple(sorted(subset))
        try:
            return self._positions[key]
        except KeyError:
            raise ValueError(f"{subset} is not a {self.d}-subset of 0..{self.n - 1}")

    def unrank(self, i: int):
        return self.subsets[i]

    def __iter__(self):
        return iter(self.subsets)

    def __eq__(self, other):
        return isinstance(other, SubsetBasis) and (self.n, self.d) == (other.n, other.d)

    def __hash__(self):
        return hash((self.n, self.d))

    def __repr__(self):
        return f"SubsetBasis(n={self.n}, d={self.d}, size={self.size})"


@lru_cache(maxsize=None)
def subset_basis(n: int, d: int) -> SubsetBasis:
    """Cached SubsetBasis constructor; bases are immutable and shared."""
    return SubsetBasis(n, d)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class MultiAffinePoly:
    """Homogeneous multiaffine polynomial, dense on a SubsetBasis.

    f(w) = sum over d-subsets S of coeffs[rank(S)] * prod_{i in S} w_i.
    """

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: SubsetBasis, coeffs):
        c = np.array(coeffs, dtype=float)
        if c.shape != (basis.size,):
            raise ValueError(
                f"coefficient vector has shape {c.shape}, basis needs ({basis.size},)"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        self.basis = basis
        self.coeffs = _freeze(c)

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def d(self) -> int:
        return self.basis.d

    def coefficient(self, subset) -> float:
        return float(self.coeffs[self.basis.rank(subset)])

    def evaluate(self, point) -> float:
        p = np.asarray(point, dtype=float)
        if p.shape != (self.n,):
            raise ValueError(f"point has shape {p.shape}, expected ({self.n},)")
        total = 0.0
        for subset, a in zip(self.basis.subsets, self.coeffs):
            if a != 0.0:
                total += a * float(np.prod(p[list(subset)])) if subset else a
        return float(total)

    def value_at_ones(self) -> float:
        return float(self.coeffs.sum())

    def derivative(self, subset) -> "MultiAffinePoly":
        """Iterated partial derivative with respect to every variable in
        ``subset``; the result never involves those variables again."""
        s = tuple(sorted(set(subset)))
        if any(i < 0 or i >= self.n for i in s):
            raise ValueError(f"{subset} is not a subset of 0..{self.n - 1}")
        if len(s) > self.d:
            raise ValueError(f"cannot take {len(s)} derivatives of a degree-{self.d} polynomial")
        out_basis = subset_basis(self.n, self.d - len(s))
        sset = set(s)
        out = np.zeros(out_basis.size)
        for j, t in enumerate(out_basis.subsets):
            if sset.isdisjoint(t):
                out[j] = self.coeffs[self.basis.rank(s + t)]
        return MultiAffinePoly(out_basis, out)

    def restrict_line(self, direction) -> np.ndarray:
        """Ascending coefficients of t -> f(t*ones - direction)."""
        y = np.asarray(direction, dtype=float)
        if y.shape != (self.n,):
            raise ValueError(f"direction has shape {y.shape}, expected ({self.n},)")
        return restrict_lines(self, y[None])[0]

    def support(self, tol: float = 1e-12):
        """Subsets whose coefficient exceeds tol relative to the largest."""
        scale = float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0
        cut = tol * scale
        return tuple(
            s for s, a in zip(self.basis.subsets, self.coeffs) if abs(a) > cut
        )

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def to_hom(self) -> "HomPoly":
        terms = {}
        for subset, a in zip(self.basis.subsets, self.coeffs):
            if a != 0.0:
                alpha = [0] * self.n
                for i in subset:
                    alpha[i] = 1
                terms[tuple(alpha)] = float(a)
        return HomPoly(self.n, self.d, (1,) * self.n, terms)

    def __add__(self, other):
        if not isinstance(other, MultiAffinePoly) or other.basis != self.basis:
            return NotImplemented
        return MultiAffinePoly(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other):
        if not isinstance(other, MultiAffinePoly) or other.basis != self.basis:
            return NotImplemented
        return MultiAffinePoly(self.basis, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return MultiAffinePoly(self.basis, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"MultiAffinePoly(n={self.n}, d={self.d}, nnz={int(np.count_nonzero(self.coeffs))})"


class HomPoly:
    """Homogeneous polynomial with per-variable degree caps, stored sparsely.

    ``terms`` maps exponent tuples alpha (len n, sum d, alpha_i <= kappa_i)
    to float coefficients.
    """

    __slots__ = ("n", "d", "kappa", "terms")

    def __init__(self, n: int, d: int, kappa, terms):
        if n <= 0:
            raise ValueError(f"need at least one variable, got n={n}")
        if n > MAX_VARS:
            raise ValueError(f"n={n} exceeds the hard cap of {MAX_VARS} variables")
        if d < 0:
            raise ValueError(f"degree must be nonnegative, got {d}")
        kappa = tuple(int(k) for k in kappa)
        if len(kappa) != n or any(k < 1 for k in kappa):
            raise ValueError(f"caps must be {n} positive integers, got {kappa}")
        clean = {}
        for alpha, c in terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != n or any(a < 0 for a in alpha):
                raise ValueError(f"bad exponent vector {alpha}")
            if sum(alpha) != d:
                raise ValueError(f"exponent {alpha} does not have total degree {d}")
            if any(a > k for a, k in zip(alpha, kappa)):
                raise ValueError(f"exponent {alpha} exceeds caps {kappa}")
            c = float(c)
            if not math.isfinite(c):
                raise ValueError("coefficients must be finite")
            clean[alpha] = clean.get(alpha, 0.0) + c
        self.n = n
        self.d = d
        self.kappa = kappa
        self.terms = clean

    def coefficient(self, alpha) -> float:
        return self.terms.get(tuple(int(a) for a in alpha), 0.0)

    def evaluate(self, point) -> float:
        p = np.asarray(point, dtype=float)
        if p.shape != (self.n,):
            raise ValueError(f"point has shape {p.shape}, expected ({self.n},)")
        total = 0.0
        for alpha, c in self.terms.items():
            term = c
            for x, a in zip(p, alpha):
                if a:
                    term *= x**a
            total += term
        return float(total)

    def value_at_ones(self) -> float:
        return float(sum(self.terms.values()))

    def restrict_line(self, direction) -> np.ndarray:
        """Ascending coefficients of t -> f(t*ones - direction)."""
        y = np.asarray(direction, dtype=float)
        if y.shape != (self.n,):
            raise ValueError(f"direction has shape {y.shape}, expected ({self.n},)")
        return restrict_lines(self, y[None])[0]

    def support(self, tol: float = 1e-12):
        scale = max((abs(c) for c in self.terms.values()), default=0.0)
        cut = tol * scale
        return tuple(sorted(a for a, c in self.terms.items() if abs(c) > cut))

    def l2_norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.terms.values()))

    def __add__(self, other):
        if not isinstance(other, HomPoly) or (other.n, other.d) != (self.n, self.d):
            return NotImplemented
        kappa = tuple(max(a, b) for a, b in zip(self.kappa, other.kappa))
        terms = dict(self.terms)
        for alpha, c in other.terms.items():
            terms[alpha] = terms.get(alpha, 0.0) + c
        return HomPoly(self.n, self.d, kappa, terms)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        s = float(scalar)
        return HomPoly(self.n, self.d, self.kappa, {a: c * s for a, c in self.terms.items()})

    __rmul__ = __mul__

    def __repr__(self):
        return f"HomPoly(n={self.n}, d={self.d}, kappa={self.kappa}, nterms={len(self.terms)})"


def elementary_symmetric(n: int, d: int) -> MultiAffinePoly:
    """Sum of all degree-d squarefree monomials in n variables."""
    basis = subset_basis(n, d)
    return MultiAffinePoly(basis, np.ones(basis.size))


def normalize_at_ones(f):
    """Rescale so the value at the all-ones point is exactly 1."""
    v = f.value_at_ones()
    if v <= 0.0:
        raise ValueError(f"cannot normalize: value at the all-ones point is {v}")
    return f * (1.0 / v)


# working-set cap of one block of restrict_lines, in float64 entries
_LINE_BLOCK_ENTRIES = 1 << 15


@lru_cache(maxsize=None)
def _subset_table(n: int, d: int) -> np.ndarray:
    """(C(n,d), d) variable indices of the colex basis, one row a subset."""
    basis = subset_basis(n, d)
    return _freeze(np.array(basis.subsets, dtype=np.uint8).reshape(basis.size, d))


def _line_terms(f):
    """Nonzero coefficients of f and, per term, the variable indices of its
    factors (t - y_i): a subset is its own row, and an exponent alpha
    repeats index i alpha_i times."""
    if isinstance(f, MultiAffinePoly):
        keep = f.coeffs != 0.0
        return f.coeffs[keep], _subset_table(f.n, f.d)[keep]
    if isinstance(f, HomPoly):
        items = [(alpha, c) for alpha, c in f.terms.items() if c != 0.0]
        rows = [[i for i, a in enumerate(alpha) for _ in range(a)] for alpha, _ in items]
        idx = np.array(rows, dtype=np.intp).reshape(len(items), f.d)
        return np.array([c for _, c in items]), idx
    raise TypeError(f"unsupported polynomial type {type(f)!r}")


def restrict_lines(f, directions) -> np.ndarray:
    """Ascending coefficients of t -> f(t*ones - y) for every row y of
    ``directions``, shape (D, d+1).

    Works through blocks of directions; within a block every term's
    factors (t - y_i) are multiplied in, for all terms and directions at
    once, in the order of the term's variable indices, and then the terms
    are summed. Working memory is bounded by the block size, not by D.
    """
    Y = np.asarray(directions, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != f.n:
        raise ValueError(f"directions have shape {Y.shape}, expected (D, {f.n})")
    a, idx = _line_terms(f)
    d = f.d
    out = np.zeros((Y.shape[0], d + 1))
    if a.size == 0:
        return out
    step = max(1, _LINE_BLOCK_ENTRIES // (a.size * (d + 1)))
    for lo in range(0, Y.shape[0], step):
        yt = np.ascontiguousarray(Y[lo : lo + step].T)  # (n, block)
        # P[j] holds the t^j coefficient of every term in every direction
        P = np.zeros((d + 1, a.size, yt.shape[1]))
        P[0] = a[:, None]
        for k in range(d):
            y = yt[idx[:, k]]
            P[1 : k + 2] = P[: k + 1] - y * P[1 : k + 2]
            P[0] *= -y
        out[lo : lo + step] = P.sum(axis=1).T
    return out


def hessian_quadratic(q, variables=None) -> np.ndarray:
    """Symmetric matrix H with q(w) = (1/2) w^T H w for a quadratic q.

    ``variables`` lists the variable indices the quadratic is considered in
    (default: all of them); the support of q must stay inside that list.
    """
    if q.d != 2:
        raise ValueError(f"need a homogeneous quadratic, got degree {q.d}")
    if variables is None:
        variables = list(range(q.n))
    variables = list(variables)
    pos = {v: k for k, v in enumerate(variables)}
    m = len(variables)
    H = np.zeros((m, m))
    if isinstance(q, MultiAffinePoly):
        items = (
            (s, a) for s, a in zip(q.basis.subsets, q.coeffs) if a != 0.0
        )
        for subset, a in items:
            i, j = subset
            if i not in pos or j not in pos:
                raise ValueError(f"support touches variable outside {variables}")
            H[pos[i], pos[j]] += a
            H[pos[j], pos[i]] += a
    elif isinstance(q, HomPoly):
        for alpha, c in q.terms.items():
            if c == 0.0:
                continue
            touched = [i for i, a in enumerate(alpha) if a]
            if any(i not in pos for i in touched):
                raise ValueError(f"support touches variable outside {variables}")
            if len(touched) == 1:
                i = touched[0]
                H[pos[i], pos[i]] += 2.0 * c
            else:
                i, j = touched
                H[pos[i], pos[j]] += c
                H[pos[j], pos[i]] += c
    else:
        raise TypeError(f"unsupported polynomial type {type(q)!r}")
    return H


def compositions(total: int, parts: int, caps=None):
    """Yield all tuples of ``parts`` nonnegative integers summing to
    ``total``, with entry i bounded by caps[i] when caps are given."""
    if caps is None:
        caps = (total,) * parts
    if parts == 0:
        if total == 0:
            yield ()
        return

    def rec(i, remaining):
        if i == parts - 1:
            if remaining <= caps[i]:
                yield (remaining,)
            return
        hi = min(caps[i], remaining)
        for v in range(hi + 1):
            for rest in rec(i + 1, remaining - v):
                yield (v,) + rest

    yield from rec(0, total)
