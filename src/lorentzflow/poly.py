"""Polynomial substrate: subset bases, multiaffine and degree-capped
homogeneous polynomials, and the operations everything else consumes.

Conventions
-----------
Variables are indexed 0..n-1. Every polynomial, multiaffine or capped,
stores one read-only float vector of coefficients over the degree-d
exponents alpha <= kappa, in ascending ``exponent_code`` order, which is
colex order; ``exponent_table`` lays those exponents out once per
(d, kappa). A multiaffine polynomial is the case kappa = 1^n: a
monomial is identified with the subset of variables it contains, and
the order is that of ``SubsetBasis``. Univariate restriction
coefficients are returned in ascending order, constant term first.

All polynomial objects are immutable after construction; every operation
returns a new object, so instances are safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

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

    The subsets are the rows of ``exponent_table(d, 1^n).factors``, whose
    codes are their bitmasks; nothing else is stored. ``rank`` and
    ``unrank`` are mutually inverse bijections between subsets, as sorted
    integer tuples, and positions 0..C(n,d)-1.
    """

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int):
        _check_dims(n, d)
        self.n = n
        self.d = d

    @property
    def table(self) -> ExponentTable:
        return exponent_table(self.d, (1,) * self.n)

    @property
    def subsets(self) -> tuple:
        """Every subset as a sorted tuple, read off the table."""
        return tuple(map(tuple, self.table.factors.tolist()))

    @property
    def size(self) -> int:
        return math.comb(self.n, self.d)

    def rank(self, subset) -> int:
        """The position of a subset: one ``searchsorted`` of its bitmask.
        Repeated or out-of-range elements leave fewer than d bits set."""
        key = [int(i) for i in subset]
        mask = sum(1 << i for i in key if 0 <= i < self.n)
        if len(key) != self.d or mask.bit_count() != self.d:
            raise ValueError(f"{subset} is not a {self.d}-subset of 0..{self.n - 1}")
        return int(self.table.codes.searchsorted(mask))

    def unrank(self, i: int):
        return tuple(self.table.factors[i].tolist())

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


def exponent_code(caps, d: int, *degrees):
    """The mixed-radix code of exponent vectors alpha <= caps of degree at
    most d: alpha has the code sum_i alpha_i r_i, with r_0 = 1 and
    r_{i+1} = r_i b_i for the digit bases b_i = min(caps_i, d) + 1.
    Returns r, b and, for each of ``degrees``, the ascending codes of the
    exponents of that degree. The code is additive, and the sorted codes
    of one degree are colex order, at caps 1^n the order of
    ``SubsetBasis``. Caps whose codes overflow int64 are refused."""
    caps = np.asarray(caps, dtype=np.int64)
    base = np.minimum(caps, d) + 1
    if math.prod(base.tolist()) > np.iinfo(np.int64).max:
        raise ValueError(f"exponent codes of caps {tuple(caps.tolist())} at degree {d} do not fit in int64")
    radix = np.cumprod(np.concatenate([[1], base[:-1]])).astype(np.int64)
    if not degrees:
        return radix, base
    # every exponent of degree <= max(degrees); the new digit is the most
    # significant and varies slowest, so the codes stay ascending
    highest = max(degrees)
    codes = sums = np.zeros(1, dtype=np.int64)
    for b, r in zip(base.tolist(), radix.tolist()):
        digit = np.arange(b, dtype=np.int64)[:, None]
        codes, sums = (r * digit + codes).ravel(), (digit + sums).ravel()
        codes, sums = codes[sums <= highest], sums[sums <= highest]
    return (radix, base, *(codes[sums == k] for k in degrees))


class ExponentTable(NamedTuple):
    """The degree-d exponents alpha <= kappa in ascending code order, as
    built by ``exponent_table``. All read-only."""

    radix: np.ndarray  # (n,) place values of the exponent code
    base: np.ndarray  # (n,) digit bases, min(kappa_i, d) + 1
    codes: np.ndarray  # (N,) codes of the exponents, ascending
    digits: np.ndarray  # (N, n) the exponents, unsigned
    factors: np.ndarray  # (N, d) per exponent, variable i repeated alpha_i times


@lru_cache(maxsize=64)
def exponent_table(d: int, kappa: tuple) -> ExponentTable:
    """The layout of every coefficient vector with caps kappa at degree d:
    its exponents' codes, their digits and, per exponent, the variable
    indices of its factors in ascending order. At kappa = 1^n a row of
    factors is the subset itself, in ``SubsetBasis`` order."""
    radix, base, codes = exponent_code(kappa, d, d)
    # the smallest unsigned type that holds every digit
    digits = ((codes[:, None] // radix) % base).astype(np.min_scalar_type(int(base.max()) - 1))
    variables = np.tile(np.arange(len(kappa), dtype=np.uint8), codes.size)
    factors = np.repeat(variables, digits.ravel()).reshape(codes.size, d)
    return ExponentTable(*map(_freeze, (radix, base, codes, digits, factors)))


@lru_cache(maxsize=32)
def _binomials(d: int, kappa: tuple) -> np.ndarray:
    """C(kappa_i, alpha_i), shape (n, N), over the exponents of
    ``exponent_table(d, kappa)``: the number of ways block i picks alpha_i
    of its variables. Read-only."""
    comb = np.array([[math.comb(k, a) for a in range(d + 1)] for k in kappa], dtype=float)
    binom = np.take_along_axis(comb, exponent_table(d, kappa).digits.T, axis=1)
    binom.flags.writeable = False
    return binom


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


def _checked(coeffs, size: int) -> np.ndarray:
    c = np.array(coeffs, dtype=float)
    if c.shape != (size,):
        raise ValueError(f"coefficient vector has shape {c.shape}, expected ({size},)")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must be finite")
    return _freeze(c)


class _Poly:
    """A homogeneous polynomial of degree d in n variables with per-variable
    degree caps kappa: ``coeffs`` holds its coefficients over the exponents
    of ``exponent_table(d, kappa)``, in code order."""

    __slots__ = ("n", "d", "kappa", "coeffs")

    @classmethod
    def _new(cls, n: int, d: int, kappa: tuple, coeffs: np.ndarray):
        """An instance on a read-only vector that is already checked."""
        f = object.__new__(cls)
        f.n, f.d, f.kappa, f.coeffs = n, d, kappa, coeffs
        return f

    @property
    def table(self) -> ExponentTable:
        return exponent_table(self.d, self.kappa)

    @property
    def terms(self) -> dict:
        """The nonzero coefficients by exponent tuple, in code order."""
        live = np.flatnonzero(self.coeffs)
        return dict(zip(map(tuple, self.table.digits[live].tolist()), self.coeffs[live].tolist()))

    def to_hom(self) -> "HomPoly":
        """The same polynomial as a ``HomPoly``, sharing the coefficient vector."""
        return HomPoly._new(self.n, self.d, self.kappa, self.coeffs)

    def evaluate(self, point) -> float:
        p = np.asarray(point, dtype=float)
        if p.shape != (self.n,):
            raise ValueError(f"point has shape {p.shape}, expected ({self.n},)")
        return float(self.coeffs @ np.prod(p[self.table.factors], axis=1))

    def value_at_ones(self) -> float:
        return float(self.coeffs.sum())

    def restrict_line(self, direction) -> np.ndarray:
        """Ascending coefficients of t -> f(t*ones - direction)."""
        y = np.asarray(direction, dtype=float)
        if y.shape != (self.n,):
            raise ValueError(f"direction has shape {y.shape}, expected ({self.n},)")
        return restrict_lines(self, y[None])[0]

    def _labels(self) -> np.ndarray:
        """Rows naming the coefficients, in code order: the exponents."""
        return self.table.digits

    def support(self, tol: float = 1e-12):
        """Exponents (for a multiaffine polynomial, subsets) whose
        coefficient exceeds tol relative to the largest, in code order."""
        size = np.abs(self.coeffs)
        cut = tol * float(size.max(initial=0.0))
        return tuple(map(tuple, self._labels()[size > cut].tolist()))

    def _like(self, coeffs):
        return self._new(self.n, self.d, self.kappa, _checked(coeffs, self.coeffs.size))

    def _matches(self, other) -> bool:
        return type(other) is type(self) and (other.n, other.d, other.kappa) == (self.n, self.d, self.kappa)

    def __add__(self, other):
        return self._like(self.coeffs + other.coeffs) if self._matches(other) else NotImplemented

    def __sub__(self, other):
        return self._like(self.coeffs - other.coeffs) if self._matches(other) else NotImplemented

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return self._like(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return (f"{type(self).__name__}(n={self.n}, d={self.d}, kappa={self.kappa}, "
                f"nnz={int(np.count_nonzero(self.coeffs))})")


class MultiAffinePoly(_Poly):
    """Homogeneous multiaffine polynomial, dense on a SubsetBasis: the
    capped polynomial with kappa = 1^n.

    f(w) = sum over d-subsets S of coeffs[rank(S)] * prod_{i in S} w_i.
    """

    __slots__ = ()

    def __init__(self, basis: SubsetBasis, coeffs):
        self.n, self.d, self.kappa = basis.n, basis.d, (1,) * basis.n
        self.coeffs = _checked(coeffs, basis.size)

    @property
    def basis(self) -> SubsetBasis:
        return subset_basis(self.n, self.d)

    def _labels(self) -> np.ndarray:
        """The subsets, each its own row of factors."""
        return self.table.factors

    def coefficient(self, subset) -> float:
        return float(self.coeffs[self.basis.rank(subset)])

    def derivative(self, subset) -> "MultiAffinePoly":
        """Iterated partial derivative with respect to every variable in
        ``subset``; the result never involves those variables again. The
        coefficient of a subset T that misses S is that of S + T, whose
        bitmask is T's bitwise or S's: one ``searchsorted`` finds them all."""
        s = tuple(sorted(set(subset)))
        if any(i < 0 or i >= self.n for i in s):
            raise ValueError(f"{subset} is not a subset of 0..{self.n - 1}")
        if len(s) > self.d:
            raise ValueError(f"cannot take {len(s)} derivatives of a degree-{self.d} polynomial")
        out_basis = subset_basis(self.n, self.d - len(s))
        mask = sum(1 << i for i in s)
        codes = out_basis.table.codes
        free = (codes & mask) == 0
        out = np.zeros(codes.size)
        out[free] = self.coeffs[np.searchsorted(self.table.codes, codes[free] | mask)]
        return MultiAffinePoly(out_basis, out)


class HomPoly(_Poly):
    """Homogeneous polynomial with per-variable degree caps.

    ``terms`` maps exponent tuples alpha (len n, sum d, alpha_i <= kappa_i)
    to float coefficients; coefficients of repeated exponents add up.
    """

    __slots__ = ()

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
        keys = list(terms)
        # a key of the wrong length becomes a placeholder row, reported
        # as a bad exponent vector
        short = np.fromiter(map(len, keys), np.int64, len(keys)) != n
        rows = [(0,) * n if bad else alpha for alpha, bad in zip(keys, short)] if short.any() else keys
        try:
            alphas = np.fromiter(itertools.chain.from_iterable(rows), np.int64, n * len(keys)).reshape(len(keys), n)
        except OverflowError as exc:
            raise ValueError(f"exponent out of range: {exc}") from exc
        coeffs = np.fromiter(terms.values(), float, len(keys))
        inside = (alphas >= 0) & (alphas <= np.array(kappa))
        ok = ~short & inside.all(axis=1) & (alphas.sum(axis=1) == d) & np.isfinite(coeffs)
        if not ok.all():
            first = int(np.argmin(ok))
            alpha = tuple(int(a) for a in keys[first])
            if short[first] or min(alpha) < 0:
                raise ValueError(f"bad exponent vector {alpha}")
            if sum(alpha) != d:
                raise ValueError(f"exponent {alpha} does not have total degree {d}")
            if not inside[first].all():
                raise ValueError(f"exponent {alpha} exceeds caps {kappa}")
            raise ValueError("coefficients must be finite")
        table = exponent_table(d, kappa)
        # summed in key order from 0.0, so -0.0 becomes 0.0
        where = np.searchsorted(table.codes, alphas @ table.radix)
        self.n, self.d, self.kappa = n, d, kappa
        self.coeffs = _freeze(np.bincount(where, weights=coeffs, minlength=table.codes.size))

    @classmethod
    def _from_coeffs(cls, n: int, d: int, kappa: tuple, coeffs) -> "HomPoly":
        """A HomPoly on coefficients already in code order, checked only
        for shape and finiteness."""
        return cls._new(n, d, kappa, _checked(coeffs, exponent_table(d, kappa).codes.size))

    def coefficient(self, alpha) -> float:
        a = np.array(alpha, dtype=np.int64)
        if a.shape != (self.n,) or a.min() < 0 or (a > self.kappa).any() or a.sum() != self.d:
            return 0.0
        table = self.table
        return float(self.coeffs[np.searchsorted(table.codes, a @ table.radix)])


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


def restrict_lines(f, directions, rows=None) -> np.ndarray:
    """Ascending coefficients of t -> f(t*ones - y) for every row y of
    ``directions``, shape (D, d+1). Given ``rows``, coefficient vectors
    (R, N) in f's layout, the lines of the polynomial on each row
    instead, shape (R, D, d+1): each row's lines are bit for bit those
    of that polynomial alone.

    Works through blocks of directions; within a block every nonzero
    term's factors (t - y_i) are multiplied in, for all terms and
    directions at once, in the order of the term's row of
    ``exponent_table`` factors, and then the terms are summed in code
    order. Working memory is bounded by the block size, not by D. Rows
    with the same nonzero terms take the blocks of directions that one
    of them takes alone, and as many rows as keep P and the temporary of
    a step within the bound are folded into a block's columns. A block of
    one direction sums a row's terms as numpy reduces a contiguous axis,
    pairwise, and a wider one sums them one after another, so a fold of
    one-direction blocks sums along the terms.
    """
    Y = np.asarray(directions, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != f.n:
        raise ValueError(f"directions have shape {Y.shape}, expected (D, {f.n})")
    stack = f.coeffs[None] if rows is None else rows
    d = f.d
    out = np.zeros((len(stack), Y.shape[0], d + 1))
    nonzero = stack != 0.0
    patterns = nonzero[:1] if (nonzero == nonzero[:1]).all() else {row.tobytes(): row for row in nonzero}.values()
    for keep in patterns:
        at = np.arange(len(stack)) if len(patterns) == 1 else (nonzero == keep).all(axis=1).nonzero()[0]
        a, idx = stack[at][:, keep].T, f.table.factors[keep]  # (terms, rows)
        if not len(a):
            continue
        step = max(1, _LINE_BLOCK_ENTRIES // (len(a) * (d + 1)))  # directions per block of one row
        for lo in range(0, Y.shape[0], step):
            yt = np.ascontiguousarray(Y[lo : lo + step].T)  # (n, block)
            width = yt.shape[1]
            # rows per block: P with the temporary of a step within the bound
            fold = max(1, _LINE_BLOCK_ENTRIES // (2 * len(a) * (d + 1) * width))
            for r in range(0, a.shape[1], fold):
                # P[j] holds the t^j coefficient of every term in every row and direction
                part = a[:, r : r + fold]
                P = np.zeros((d + 1, len(a), part.shape[1], width))
                P[0] = part[:, :, None]
                for k in range(d):
                    y = yt[idx[:, k]][:, None]
                    step_up = y * P[1 : k + 2]
                    P[1 : k + 2] = np.subtract(P[: k + 1], step_up, out=step_up)
                    P[0] *= -y
                if width == 1:
                    sums = np.ascontiguousarray(P[..., 0].transpose(0, 2, 1)).sum(axis=2)[..., None]
                else:
                    sums = P.sum(axis=1)
                out[at[r : r + fold], lo : lo + width] = sums.transpose(1, 2, 0)
    return out[0] if rows is None else out
