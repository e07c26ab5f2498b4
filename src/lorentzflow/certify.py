"""Membership and interiority certificates for Lorentzian and real stable
polynomials, plus the real-rootedness kernel: the Hankel matrix of root
power sums.

Verdicts are three-valued. StrictInterior means every sub-check passed
with margin above the tolerance; BoundaryWithinTol means the polynomial
sits within tolerance of the membership conditions; Rejected is
conclusive and always carries a witness. The stability certificate
samples directions, so there only Rejected is conclusive and the other
two verdicts are evidence at the sampled resolution.

One engine decides every Lorentzian input. A multiaffine polynomial is
the capped polynomial with kappa = 1^n, and for every cap vector the
Hessians of the (d-2)-fold derivatives of the polarization lift are
constant on the blocks: each one's spectrum is that of a block-quotient
matrix of size at most n plus known repeated eigenvalues, and at
kappa = 1^n the quotient is the multiaffine Hessian itself. One cached
table per (n, d, kappa) says where every quotient matrix sits in the
coefficient vector. The engine walks it in blocks, eigensolves each
matrix size in a block with one stacked ``eigh``, and stops at the first
block that holds a failure. The verdict is the lift's, and no lift is
built. The exchange check runs only where it can fail: a support with
every coefficient above tol is the uniform matroid, or the full capped
box, which is M-convex.

The stable certificate restricts f along a block of directions at once
(``poly.restrict_lines``), runs the Newton power sums over all rows and
takes the Hankel eigenvalues from one stacked ``eigvalsh``, again
stopping at the first block that holds a failure. Every witness is the
first failing item in the documented order: for the Lorentzian
certificates, coefficients in colex order and derivatives in descending
lexicographic order of their exponent (for multiaffine inputs, subsets in
``itertools.combinations`` order); for the stable one, directions in
seeded order.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .poly import HomPoly, MultiAffinePoly, restrict_lines
from .strata import BasisFamily, MConvexCandidate, is_m_convex, is_matroid_bases

DEFAULT_TOL = 1e-9
DEFAULT_DIRECTIONS = 256
DEFAULT_SEED = 1729

# leading coefficients below this fraction of the largest one are treated
# as degree drops, not as genuine leading terms
_DEGENERATE_LEAD = 1e-14

# working-set cap of one block of stacked Hessians, in float64 entries
_HESSIAN_BLOCK_ENTRIES = 1 << 14
# sampled directions per block of the stable certificate
_DIRECTION_BLOCK = 64


class RootClass(enum.Enum):
    ALL_REAL_DISTINCT = "all_real_distinct"
    ALL_REAL_WITH_TIES = "all_real_with_ties"
    NOT_ALL_REAL = "not_all_real"


class VerdictStatus(enum.Enum):
    STRICT_INTERIOR = "strict_interior"
    BOUNDARY_WITHIN_TOL = "boundary_within_tol"
    REJECTED = "rejected"


@dataclass(frozen=True)
class Verdict:
    """Certification outcome. ``witness`` is a JSON-ready dict present
    exactly when the verdict is Rejected."""

    status: VerdictStatus
    witness: dict | None
    tol: float

    @property
    def is_member(self) -> bool:
        return self.status is not VerdictStatus.REJECTED

    @property
    def is_strict(self) -> bool:
        return self.status is VerdictStatus.STRICT_INTERIOR


@dataclass(frozen=True)
class RootResult:
    kind: RootClass
    degree_dropped: bool = False


def _checked_eigh(H):
    """Stacked eigendecomposition of symmetric matrices (B, m, m),
    eigenvalues ascending as LAPACK returns them; every matrix's
    reconstruction and orthonormality invariants are verified."""
    w, V = np.linalg.eigh(H)
    Vt = V.transpose(0, 2, 1)
    recon = (V * w[:, None, :]) @ Vt - H
    # squared Frobenius norms against squared cutoffs
    hnorm2 = np.maximum(1.0, (H * H).sum(axis=(1, 2)))
    if ((recon * recon).sum(axis=(1, 2)) > 1e-18 * hnorm2).any():
        raise RuntimeError("eigendecomposition reconstruction error too large")
    m = H.shape[-1]
    ortho = Vt @ V - np.eye(m)
    if ((ortho * ortho).sum(axis=(1, 2)) > (1e-10 * max(1.0, m)) ** 2).any():
        raise RuntimeError("eigenvectors failed orthonormality")
    return w, V


def _signatures(w, tol: float):
    """Rows of ascending eigenvalues (B, m), m >= 2 -> (fail, strict) flags
    per row, with the tolerance scaled by each row's trace norm: fail when
    the two largest clear it, strict when only the largest does and every
    other one lies below its negative."""
    eff = tol * np.maximum(1.0, np.abs(w).sum(axis=1))
    return w[:, -2] > eff, (w[:, -1] > eff) & (w[:, -2] < -eff)


class _Table(NamedTuple):
    """Layout of the Lorentzian certificate for one (n, d, kappa), built by
    ``_table``: N degree-d exponents, one row per beta."""

    radix: np.ndarray  # (n,) place values of the exponent code
    base: np.ndarray  # (n,) digit bases, min(kappa_i, d) + 1
    codes: np.ndarray  # (N,) codes of the degree-d exponents, ascending
    binom: np.ndarray | None  # (n, N) C(kappa_i, alpha_i); None at kappa = 1^n
    betas: np.ndarray  # codes of the betas, descending lexicographic
    width: int  # largest size of Q_beta
    upper: tuple  # (iu, ju): the stored entries of a width x width matrix
    index: np.ndarray  # where each stored entry sits in g
    size: np.ndarray | None  # size of each Q_beta; None when all are width
    scale: np.ndarray | None  # entry scales; None when every m_i <= 1
    rest: np.ndarray | None  # where each lifted spectrum's within-block part sits in g


def _digits(table: _Table, codes) -> np.ndarray:
    """Exponent vectors (..., n) of exponent codes."""
    return (np.asarray(codes, dtype=np.int64)[..., None] // table.radix) % table.base


@lru_cache(maxsize=64)
def _table(n: int, d: int, kappa: tuple) -> _Table:
    """Where the block-quotient Hessians of a capped polynomial sit in its
    coefficient vector g, built with no Python loop over exponents.

    An exponent alpha has the mixed-radix code sum_i alpha_i r_i, with
    r_0 = 1 and r_{i+1} = r_i (min(kappa_i, d) + 1). Sorted by code, the
    degree-d exponents are in colex order, at kappa = 1^n the order of
    ``SubsetBasis``; g follows that order, and a trailing zero stands for
    every exponent past the caps. The code is additive, so every entry of
    every Q_beta is found by one broadcast sum and one ``searchsorted``.
    Caps whose codes overflow int64 are refused.

    The lift gives every lifted subset of composition alpha the
    coefficient g(alpha) = c_alpha / prod_i C(kappa_i, alpha_i). The
    lifted Hessian at a (d-2)-subset of composition beta is constant on
    the blocks. With m_i = kappa_i - beta_i free variables in block i, it
    acts on vectors constant on each block as Q_beta, over the k free i
    (m_i > 0) in ascending order: Q_ij = sqrt(m_i m_j) g(beta + e_i + e_j)
    off the diagonal and Q_ii = (m_i - 1) g(beta + 2 e_i). On vectors that
    sum to zero inside block i it is -g(beta + 2 e_i), m_i - 1 times. So
    a row of the lifted spectrum, of length sum(kappa) - d + 2, is
    eig(Q_beta) plus these. At kappa = 1^n every m_i is 1: Q_beta is the
    multiaffine Hessian, its diagonal is zero and nothing is added.

    The betas run in descending lexicographic order, the order in which
    ``itertools.combinations`` first meets each composition on the lifted
    variables. A row holds the upper triangle of its Q_beta, in
    ``np.triu_indices`` order, as the trailing k x k block of a
    width x width matrix whose other entries read the trailing zero. The
    diagonal, the scales and the within-block eigenvalues are kept only
    where some m_i > 1; a row of the latter is as long as a lifted
    spectrum, and its first k entries, where eig(Q_beta) goes, read the
    trailing zero.
    """
    caps = np.array(kappa, dtype=np.int64)
    base = np.minimum(caps, d) + 1
    top = math.prod(base.tolist())
    if top > np.iinfo(np.int64).max:
        raise ValueError(f"exponent codes of caps {kappa} at degree {d} do not fit in int64")
    radix = np.cumprod(np.concatenate([[1], base[:-1]])).astype(np.int64)
    # every exponent of degree <= d; the new digit is the most significant
    # and varies slowest, so the codes stay ascending
    codes = sums = np.zeros(1, dtype=np.int64)
    for b, r in zip(base.tolist(), radix.tolist()):
        digit = np.arange(b, dtype=np.int64)[:, None]
        codes, sums = (r * digit + codes).ravel(), (digit + sums).ravel()
        codes, sums = codes[sums <= d], sums[sums <= d]
    alphas, betas = codes[sums == d], codes[sums == d - 2]
    B = (betas[:, None] // radix) % base
    m = caps - B
    size = (m > 0).sum(axis=1)
    width = int(size.max()) if betas.size else 0
    diagonal = bool((m > 1).any())
    # built in code order of the betas, one row per stored entry, so that
    # the targets come mostly ascending, which searchsorted walks fastest;
    # each beta's free variables ascending, behind its capped ones
    var = np.argsort(m > 0, axis=1, kind="stable")[:, n - width :]
    mv, rv = np.take_along_axis(m, var, axis=1).T, radix[var].T
    iu, ju = np.triu_indices(width, 0 if diagonal else 1)
    ok = (mv[iu] > 0) & (mv[ju] > 0)
    if diagonal:
        ok[iu == ju] = mv > 1
    dtype = np.min_scalar_type(alphas.size)
    index = np.where(ok, np.searchsorted(alphas, betas + rv[iu] + rv[ju]), alphas.size).astype(dtype)
    binom = scale = rest = None
    if any(k > 1 for k in kappa):
        comb = np.array([[math.comb(k, a) for a in range(d + 1)] for k in kappa], dtype=float)
        binom = np.take_along_axis(comb, ((alphas[:, None] // radix) % base).T, axis=1)
    if diagonal:
        mi, mj = mv[iu].astype(float), mv[ju].astype(float)
        scale = np.where((iu == ju)[:, None], mi - 1, np.sqrt(mi * mj))
        # g(beta + 2 e_i), m_i - 1 times per free i, behind the k slots of
        # eig(Q_beta): a row as long as a lifted spectrum, sum_i m_i
        length = sum(kappa) - d + 2
        twice = np.searchsorted(alphas, betas[:, None] + 2 * radix)
        rest = np.full((betas.size, length), alphas.size, dtype=dtype)
        rest[np.arange(length) >= size[:, None]] = np.repeat(twice.ravel(), np.maximum(m - 1, 0).ravel())
    # descending lexicographic order: the first variable is the most significant
    order = np.argsort(B @ (top // (radix * base)))[::-1]
    code = np.min_scalar_type(top - 1)
    table = _Table(
        radix, base, alphas.astype(code), binom, betas[order].astype(code), width,
        (iu, ju), index.T[order],
        None if np.all(size == width) else size[order].astype(np.uint8),
        None if scale is None else scale.T[order],
        None if rest is None else rest[order],
    )
    for arr in (*table, *table.upper):
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return table


def _lorentzian(g: np.ndarray, table: _Table, tol: float, label, exchange, pair) -> Verdict:
    """The Lorentzian certificate of coefficients g in table order, with
    the trailing zero where the table reads it. ``label`` names an
    exponent code in a witness, ``exchange`` checks the support given as
    a mask over the table's exponents, and ``pair`` names the two members
    of its witness.

    The Hessians go in row order and block by block, each matrix size in
    a block through one stacked eigensolve, and the first block that
    holds a failure ends the scan. When every coefficient clears tol the
    support is the whole family: the uniform matroid, or the full capped
    box, which is M-convex. Only a support with some coefficient within
    tol goes through ``exchange``.
    """
    coeffs = g[: table.codes.size]
    worst = int(np.argmin(coeffs))
    if coeffs[worst] < -tol:
        return Verdict(
            VerdictStatus.REJECTED,
            {"kind": "negative_coefficient", **label(table.codes[worst]), "value": float(coeffs[worst])},
            tol,
        )
    iu, ju = table.upper
    width = table.width
    step = max(1, _HESSIAN_BLOCK_ENTRIES // max(1, width * width))
    all_strict = True
    for lo in range(0, table.index.shape[0], step):
        block = slice(lo, lo + step)
        vals = g[table.index[block]]
        if table.scale is not None:
            vals *= table.scale[block]
        H = np.zeros((vals.shape[0], width, width))
        H[:, iu, ju] = vals
        H[:, ju, iu] = vals
        # rows of lifted spectra: eig(Q_beta), then the within-block part;
        # with no within-block part every Q_beta is width x width
        w = np.empty((vals.shape[0], width)) if table.rest is None else -g[table.rest[block]]
        sizes = None if table.size is None else table.size[block]
        for k in [width] if sizes is None else sorted(set(sizes.tolist())):
            rows = slice(None) if sizes is None else sizes == k
            # Q_beta is the trailing k x k block
            w[rows, :k] = _checked_eigh(H[rows, width - k :, width - k :])[0]
        if table.rest is not None:
            w.sort(axis=1)
        fail, strict = _signatures(w, tol)
        if fail.any():
            r = int(np.argmax(fail))
            return Verdict(
                VerdictStatus.REJECTED,
                {"kind": "hessian_signature", **label(table.betas[lo + r]), "eigenvalues": w[r, ::-1].tolist()},
                tol,
            )
        all_strict = all_strict and bool(strict.all())
    live = coeffs > tol
    if live.all():
        status = VerdictStatus.STRICT_INTERIOR if all_strict else VerdictStatus.BOUNDARY_WITHIN_TOL
        return Verdict(status, None, tol)
    if not live.any():
        return Verdict(VerdictStatus.REJECTED, {"kind": "empty_support"}, tol)
    check = exchange(live)
    if check:
        return Verdict(VerdictStatus.BOUNDARY_WITHIN_TOL, None, tol)
    a, b, i = check.witness
    witness = {"kind": "support_exchange", pair[0]: list(a), pair[1]: list(b), "element": int(i)}
    return Verdict(VerdictStatus.REJECTED, witness, tol)


def _check_normalized(f) -> None:
    if abs(f.value_at_ones() - 1.0) > 1e-9:
        raise ValueError(
            f"polynomial is not normalized: value at the all-ones point is {f.value_at_ones()}"
        )


def certify_multiaffine(f: MultiAffinePoly, tol: float = DEFAULT_TOL) -> Verdict:
    """Lorentzian certificate for a normalized multiaffine polynomial.

    Strict interior requires every coefficient above tol and, for every
    variable subset of size d-2, a strictly Lorentzian signature of the
    quadratic obtained by differentiating those variables away. The
    boundary verdict relaxes both to within-tolerance and additionally
    requires the support {c > tol} to satisfy basis exchange, since the
    eigenvalue conditions alone admit false positives at zero
    coefficients. When every coefficient clears tol the support is the
    uniform matroid, and the exchange check is skipped. This is
    ``certify_hom`` at kappa = 1^n, with witnesses that name subsets.
    """
    _check_normalized(f)
    table = _table(f.n, f.d, (1,) * f.n)
    return _lorentzian(
        f.coeffs, table, tol,
        lambda code: {"subset": np.flatnonzero(_digits(table, code)).tolist()},
        lambda live: is_matroid_bases(BasisFamily(f.n, f.d, itertools.compress(f.basis.subsets, live))),
        ("basis_one", "basis_two"),
    )


def certify_hom(f: HomPoly, tol: float = DEFAULT_TOL) -> Verdict:
    """Lorentzian certificate for a normalized capped polynomial, decided
    without lifting it.

    Lifting is a linear isomorphism onto block-symmetric multiaffine
    polynomials that preserves membership and interiority both ways, and
    this certificate returns the verdict of the lift's certificate by
    construction: the coefficient checks compare the lift's coefficients
    g(alpha) = c_alpha / prod_i C(kappa_i, alpha_i) with tol, and each
    lifted Hessian's spectrum comes from a block-quotient matrix of size
    at most n (``_table``), cut by the same trace norm. On the boundary
    path the support {g > tol} goes through ``is_m_convex``, which on
    capped exponents is basis exchange on the lifted support.

    Witnesses name exponents: a negative coefficient's ``exponent`` is the
    first smallest g in colex order and its ``value`` is g; a failing
    Hessian's ``exponent`` is the first failing beta in descending
    lexicographic order, with the lifted spectrum descending; a support
    exchange failure reports ``is_m_convex``'s (alpha, beta, i) as
    ``exponent_one``, ``exponent_two`` and ``element``.
    """
    _check_normalized(f)
    table = _table(f.n, f.d, f.kappa)
    g = np.zeros(table.codes.size + 1)
    alphas = np.fromiter(itertools.chain.from_iterable(f.terms), np.int64, len(f.terms) * f.n).reshape(-1, f.n)
    g[np.searchsorted(table.codes, (alphas @ table.radix).astype(table.codes.dtype))] = list(f.terms.values())
    if table.binom is not None:
        # one division per variable, in the lift's order, so that g is the
        # lift's coefficients to the last bit
        for row in table.binom:
            g[:-1] /= row

    def exchange(live):
        # handed over in lexicographic order: the candidate's set, and so
        # the witness, can iterate in insertion order
        support = sorted(map(tuple, _digits(table, table.codes[live]).tolist()))
        return is_m_convex(MConvexCandidate(f.n, f.d, support))

    return _lorentzian(
        g, table, tol, lambda code: {"exponent": _digits(table, code).tolist()}, exchange,
        ("exponent_one", "exponent_two"),
    )


# root classes by the codes that _root_classes returns
_ROOT_CLASSES = (RootClass.ALL_REAL_DISTINCT, RootClass.ALL_REAL_WITH_TIES, RootClass.NOT_ALL_REAL)
_DISTINCT, _TIES, _COMPLEX = range(3)


def _trim_rows(lines: np.ndarray):
    """Per row of coefficients (R, k): the degree left after dropping
    degenerate leading coefficients, and whether a nonzero one was
    dropped."""
    if lines.shape[1] == 0:
        raise ValueError("zero polynomial")
    size = np.abs(lines)
    scale = size.max(axis=1)
    if np.any(scale == 0.0):
        raise ValueError("zero polynomial")
    live = size >= _DEGENERATE_LEAD * scale[:, None]
    deg = lines.shape[1] - 1 - np.argmax(live[:, ::-1], axis=1)
    dropped = np.any((lines != 0.0) & (np.arange(lines.shape[1]) > deg[:, None]), axis=1)
    return deg, dropped


def _hankel(c: np.ndarray) -> np.ndarray:
    """Stacked Hankel matrices of root power sums for rows of coefficients
    (R, m+1) of one degree m, by the Newton recurrences run over all rows
    at once (monic normalization happens here)."""
    rows, m = c.shape[0], c.shape[1] - 1
    monic = c / c[:, -1:]
    s = np.empty((rows, 2 * m - 1))
    s[:, 0] = m
    for k in range(1, 2 * m - 1):
        acc = np.zeros(rows)
        for i in range(1, min(k - 1, m) + 1):
            acc += monic[:, m - i] * s[:, k - i]
        if k <= m:
            acc += k * monic[:, m - k]
        s[:, k] = -acc
    return s[:, np.add.outer(np.arange(m), np.arange(m))]


def _root_classes(lines: np.ndarray, tol: float):
    """Per row of coefficients (R, k): index into _ROOT_CLASSES and the
    degree-drop flag. Rows are grouped by trimmed degree and each group's
    Hankel eigenvalues come from one stacked eigvalsh."""
    deg, dropped = _trim_rows(lines)
    if np.any(deg < 1):
        raise ValueError("need degree at least 1")
    codes = np.empty(lines.shape[0], dtype=np.intp)
    for m in set(deg.tolist()):
        rows = np.flatnonzero(deg == m)
        H = _hankel(lines[rows, : m + 1])
        w0 = np.linalg.eigvalsh(H)[:, 0]
        eff = tol * np.maximum(1.0, np.trace(H, axis1=1, axis2=2))
        codes[rows] = np.where(w0 > eff, _DISTINCT, np.where(w0 < -eff, _COMPLEX, _TIES))
    return codes, dropped


def hermite_matrix(coeffs) -> np.ndarray:
    """Hankel matrix of root power sums. Positive definite iff all roots
    are real and distinct; positive semidefinite iff all roots are real."""
    c = np.asarray(coeffs, dtype=float).reshape(1, -1)
    deg, _ = _trim_rows(c)
    if deg[0] < 1:
        raise ValueError("need degree at least 1")
    return _hankel(c[:, : deg[0] + 1])[0]


def real_rooted(coeffs, tol: float = DEFAULT_TOL) -> RootResult:
    """Classify a univariate polynomial's roots through the power-sum
    Hankel matrix, with the tolerance scaled by its trace."""
    codes, dropped = _root_classes(np.asarray(coeffs, dtype=float).reshape(1, -1), tol)
    return RootResult(_ROOT_CLASSES[codes[0]], bool(dropped[0]))


@lru_cache(maxsize=16)
def sample_sphere_sumzero(n: int, count: int, seed: int) -> np.ndarray:
    """Deterministic unit vectors with coordinate sum zero, by projecting
    standard Gaussian draws onto the sum-zero hyperplane and normalizing.
    Returns a read-only array of shape (count, n), cached by
    (n, count, seed)."""
    if n < 2:
        raise ValueError(f"need at least two coordinates, got n={n}")
    if count < 1:
        raise ValueError(f"need at least one sample, got {count}")
    rng = np.random.default_rng(seed)
    out = np.empty((count, n))
    k = 0
    while k < count:
        g = rng.standard_normal(n)
        g -= g.mean()
        nrm = float(np.linalg.norm(g))
        if nrm < 1e-8:
            continue
        out[k] = g / nrm
        k += 1
    out.flags.writeable = False
    return out


def _coefficient_items(f):
    """Term labels and coefficient array, in the order witnesses report."""
    if isinstance(f, MultiAffinePoly):
        return f.basis.subsets, f.coeffs
    if isinstance(f, HomPoly):
        items = sorted(f.terms.items())
        return [a for a, _ in items], np.array([c for _, c in items])
    raise TypeError(f"unsupported polynomial type {type(f)!r}")


def certify_stable(
    f,
    directions: int = DEFAULT_DIRECTIONS,
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Sampled real-stability certificate for a normalized homogeneous
    polynomial with nonnegative coefficients.

    Restricts f along t*ones - y for seeded directions y on the sum-zero
    unit sphere and classifies each restriction's roots. A restriction
    with genuinely complex roots is a conclusive rejection; otherwise the
    verdict is strict when every sampled restriction has distinct real
    roots and every coefficient clears the tolerance.
    """
    _check_normalized(f)
    labels, values = _coefficient_items(f)
    negative = np.flatnonzero(values < -tol)
    if negative.size:
        k = int(negative[0])
        return Verdict(
            VerdictStatus.REJECTED,
            {"kind": "negative_coefficient", "exponent": list(labels[k]), "value": float(values[k])},
            tol,
        )
    strict_coeffs = bool(np.all(values > tol))
    if f.n < 2 or f.d < 2:
        # univariate homogeneous (a single monomial) and linear cases are
        # stable outright; only the coefficient margin distinguishes
        # strict from boundary
        status = VerdictStatus.STRICT_INTERIOR if strict_coeffs else VerdictStatus.BOUNDARY_WITHIN_TOL
        return Verdict(status, None, tol)
    ties_seen = False
    samples = sample_sphere_sumzero(f.n, directions, seed)
    for lo in range(0, directions, _DIRECTION_BLOCK):
        ys = samples[lo : lo + _DIRECTION_BLOCK]
        lines = restrict_lines(f, ys)
        codes, _ = _root_classes(lines, tol)
        complex_rows = np.flatnonzero(codes == _COMPLEX)
        if complex_rows.size:
            k = int(complex_rows[0])
            return Verdict(
                VerdictStatus.REJECTED,
                {
                    "kind": "direction",
                    "direction": ys[k].tolist(),
                    "line_coefficients": lines[k].tolist(),
                },
                tol,
            )
        ties_seen = ties_seen or bool(np.any(codes == _TIES))
    if strict_coeffs and not ties_seen:
        return Verdict(VerdictStatus.STRICT_INTERIOR, None, tol)
    return Verdict(VerdictStatus.BOUNDARY_WITHIN_TOL, None, tol)
