"""Membership and interiority certificates for Lorentzian and real stable
polynomials, plus the shared numerical kernels: symmetric
eigendecomposition, real-rootedness via the Hankel matrix of root power
sums, and discriminants.

Verdicts are three-valued. StrictInterior means every sub-check passed
with margin above the tolerance; BoundaryWithinTol means the polynomial
sits within tolerance of the membership conditions; Rejected is
conclusive and always carries a witness. The stability certificate
samples directions, so there only Rejected is conclusive and the other
two verdicts are evidence at the sampled resolution.

Both certificates work on blocks of items with stacked numpy calls.
The Lorentzian certificate gathers a block of Hessians of the (d-2)-fold
derivatives straight from the coefficient vector, through a cached table
of colex ranks, and eigensolves the block in one stacked ``eigh``. The
stable certificate restricts f along a block of directions at once
(``poly.restrict_lines``), runs the Newton power sums over all rows and
takes the Hankel eigenvalues from one stacked ``eigvalsh``. Each stops at
the first block that holds a failure, and its witness is the first
failing item in the documented order: subsets in
``itertools.combinations`` order, directions in seeded order. The scalar
kernels (``symmetric_eigen``, ``lorentzian_signature``, ``hermite_matrix``,
``real_rooted``) are one-row calls into the same code.

Capped polynomials are certified without the polarization lift. The
lifted Hessians are constant on the blocks, so each one's spectrum is
that of a block-quotient matrix of size at most n plus known repeated
eigenvalues: C(n+d-3, d-2) small matrices, stacked by size, replace
C(sum(kappa), d-2) lifted ones, and the verdict is the lift's. The
exchange check runs only where it can fail: a support with every
coefficient above tol is the uniform matroid, or the full capped box,
which is M-convex.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .poly import HomPoly, MultiAffinePoly, compositions, restrict_lines
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


class SignatureClass(enum.Enum):
    STRICT = "strict"
    AT_MOST_ONE_POSITIVE = "at_most_one_positive"
    FAIL = "fail"


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
class SymmetricSpectrum:
    """Descending eigenvalues and orthonormal eigenvectors (columns)."""

    eigenvalues: np.ndarray
    vectors: np.ndarray


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


def symmetric_eigen(H) -> SymmetricSpectrum:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Backed by LAPACK's symmetric solver; the reconstruction and
    orthonormality invariants are verified before returning.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"need a square matrix, got shape {H.shape}")
    scale = max(1.0, float(np.max(np.abs(H))) if H.size else 0.0)
    if np.max(np.abs(H - H.T)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    w, V = _checked_eigh(H[None])
    w, V = w[0, ::-1].copy(), V[0, :, ::-1].copy()
    w.flags.writeable = False
    V.flags.writeable = False
    return SymmetricSpectrum(w, V)


def _signatures(w, tol: float):
    """Rows of ascending eigenvalues (B, m) -> (fail, strict) flags per
    row, with the tolerance scaled by each row's trace norm: fail when the
    two largest clear it, strict when only the largest does and every
    other one lies below its negative."""
    eff = tol * np.maximum(1.0, np.abs(w).sum(axis=1))
    second = w[:, -2] if w.shape[1] > 1 else np.full(w.shape[0], -np.inf)
    return second > eff, (w[:, -1] > eff) & (second < -eff)


def lorentzian_signature(H, tol: float = DEFAULT_TOL):
    """Classify the eigenvalue signature of a symmetric matrix.

    Returns (SignatureClass, eigenvalues). STRICT means exactly one
    eigenvalue above the tolerance and all others below its negative;
    AT_MOST_ONE_POSITIVE allows eigenvalues inside the tolerance band;
    FAIL means two or more clearly positive eigenvalues. The tolerance is
    scaled by the trace norm so it tracks the matrix's magnitude.
    """
    w = symmetric_eigen(H).eigenvalues
    fail, strict = _signatures(w[None, ::-1], tol)
    if fail[0]:
        return SignatureClass.FAIL, w
    if strict[0]:
        return SignatureClass.STRICT, w
    return SignatureClass.AT_MOST_ONE_POSITIVE, w


@lru_cache(maxsize=None)
def _hessian_ranks(n: int, d: int):
    """Where the Hessians of the (d-2)-fold derivatives sit in the
    coefficient vector of a degree-d multiaffine polynomial.

    Row r is the r-th (d-2)-subset S in ``itertools.combinations`` order;
    column p is the p-th pair i < j of S's complement, in
    ``np.triu_indices`` order; the entry is the colex rank of S + {i, j},
    rank(U) = sum_k C(u_k, k+1) over the sorted elements of U. uint16
    holds every rank, since C(16, 8) = 12870. Built block by block.
    Returns (ranks, upper-triangle indices).
    """
    m = n - d + 2
    upper = np.triu_indices(m, 1)
    pairs = upper[0].size
    binom = np.array([[math.comb(x, k) for k in range(1, d + 1)] for x in range(n)])
    ranks = np.empty((math.comb(n, d - 2), pairs), dtype=np.uint16)
    combos = itertools.combinations(range(n), d - 2)
    rows = max(1, _HESSIAN_BLOCK_ENTRIES // (pairs * d))
    for lo in range(0, ranks.shape[0], rows):
        chunk = list(itertools.islice(combos, rows))
        S = np.array(chunk, dtype=np.intp).reshape(len(chunk), d - 2)
        free = np.ones((S.shape[0], n), dtype=bool)
        np.put_along_axis(free, S, False, axis=1)
        rest = np.nonzero(free)[1].reshape(-1, m)
        U = np.concatenate(
            [
                np.repeat(S[:, None, :], pairs, axis=1),
                rest[:, upper[0], None],
                rest[:, upper[1], None],
            ],
            axis=2,
        )
        U.sort(axis=2)
        ranks[lo : lo + S.shape[0]] = binom[U, np.arange(d)].sum(axis=2)
    for table in (ranks, *upper):
        table.flags.writeable = False
    return ranks, upper


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
    uniform matroid, and the exchange check is skipped.
    """
    _check_normalized(f)
    n, d = f.n, f.d
    coeffs = f.coeffs
    worst_idx = int(np.argmin(coeffs))
    if coeffs[worst_idx] < -tol:
        return Verdict(
            VerdictStatus.REJECTED,
            {
                "kind": "negative_coefficient",
                "subset": list(f.basis.unrank(worst_idx)),
                "value": float(coeffs[worst_idx]),
            },
            tol,
        )
    strict_coeffs = bool(np.all(coeffs > tol))
    all_strict_signature = True
    if d >= 2:
        ranks, (iu, ju) = _hessian_ranks(n, d)
        m = n - d + 2
        step = max(1, _HESSIAN_BLOCK_ENTRIES // (m * m))
        for lo in range(0, ranks.shape[0], step):
            vals = coeffs[ranks[lo : lo + step]]
            H = np.zeros((vals.shape[0], m, m))
            H[:, iu, ju] = vals
            H[:, ju, iu] = vals
            w, _ = _checked_eigh(H)
            fail, strict = _signatures(w, tol)
            if fail.any():
                k = int(np.argmax(fail))
                s = next(itertools.islice(itertools.combinations(range(n), d - 2), lo + k, None))
                return Verdict(
                    VerdictStatus.REJECTED,
                    {
                        "kind": "hessian_signature",
                        "subset": list(s),
                        "eigenvalues": w[k, ::-1].tolist(),
                    },
                    tol,
                )
            all_strict_signature = all_strict_signature and bool(strict.all())
    return _settle(strict_coeffs, all_strict_signature, lambda: _basis_exchange(f, tol), tol)


def _basis_exchange(f: MultiAffinePoly, tol: float):
    """Rejection witness of the support {c > tol} of f, or None when it
    satisfies basis exchange."""
    support = tuple(s for s, c in zip(f.basis.subsets, f.coeffs) if c > tol)
    if not support:
        return {"kind": "empty_support"}
    check = is_matroid_bases(BasisFamily(f.n, f.d, support))
    if check:
        return None
    b1, b2, x = check.witness
    return {"kind": "support_exchange", "basis_one": list(b1), "basis_two": list(b2), "element": int(x)}


def _settle(strict_coeffs: bool, strict_signature: bool, exchange, tol: float) -> Verdict:
    """Verdict of a Lorentzian certificate in which no Hessian failed.

    When every coefficient clears tol, the support is the whole family:
    the uniform matroid, or the full capped box, which is M-convex. So
    only a support with some coefficient within tol goes through
    ``exchange``, which returns a rejection witness or None.
    """
    if strict_coeffs:
        status = VerdictStatus.STRICT_INTERIOR if strict_signature else VerdictStatus.BOUNDARY_WITHIN_TOL
        return Verdict(status, None, tol)
    witness = exchange()
    if witness is not None:
        return Verdict(VerdictStatus.REJECTED, witness, tol)
    return Verdict(VerdictStatus.BOUNDARY_WITHIN_TOL, None, tol)


@lru_cache(maxsize=64)
def _quotient_tables(n: int, d: int, kappa: tuple):
    """Where the block-quotient Hessians of a capped polynomial sit in its
    vector g over the exponents ``compositions(d, n, kappa)``, with one
    zero appended at the end for exponents past the caps.

    The lift gives every lifted subset of composition alpha the
    coefficient g(alpha) = c_alpha / prod_i C(kappa_i, alpha_i). The
    lifted Hessian at a (d-2)-subset of composition beta is constant on
    the blocks. With m_i = kappa_i - beta_i free variables in block i, it
    acts on vectors constant on each block as Q_beta, over the i with
    m_i > 0: Q_ij = sqrt(m_i m_j) g(beta + e_i + e_j) off the diagonal and
    Q_ii = (m_i - 1) g(beta + 2 e_i). On vectors that sum to zero inside
    block i it is -g(beta + 2 e_i), m_i - 1 times. So a row of the lifted
    spectrum, of length sum(kappa) - d + 2, is eig(Q_beta) plus these.

    The betas run in descending lexicographic order, the order in which
    ``itertools.combinations`` first meets each composition on the lifted
    variables. Returns (exponents, binomials (N, n), betas, groups), one
    group per size k of Q: (rows into betas, Q indices (B, k, k), Q scales
    (B, k, k), indices of the within-block eigenvalues (B, rest)).
    """
    comps = tuple(compositions(d, n, kappa))
    where = {alpha: r for r, alpha in enumerate(comps)}
    past = len(comps)
    binom = np.array(
        [[math.comb(k, a) for a, k in zip(alpha, kappa)] for alpha in comps], dtype=float
    ).reshape(past, n)
    betas = tuple(compositions(d - 2, n, kappa))[::-1] if d >= 2 else ()
    length = sum(kappa) - d + 2
    grouped = {}
    for r, beta in enumerate(betas):
        free = [i for i in range(n) if beta[i] < kappa[i]]
        m = [kappa[i] - beta[i] for i in free]

        def at(i, j):
            alpha = list(beta)
            alpha[i] += 1
            alpha[j] += 1
            return where.get(tuple(alpha), past)

        rows, idx, scale, rest = grouped.setdefault(len(free), ([], [], [], []))
        rows.append(r)
        idx.append([[at(i, j) for j in free] for i in free])
        scale.append([[math.sqrt(a * b) if p != q else a - 1 for q, b in enumerate(m)] for p, a in enumerate(m)])
        rest.append([at(i, i) for i, a in zip(free, m) for _ in range(a - 1)])
    groups = []
    for k, (rows, idx, scale, rest) in sorted(grouped.items()):
        B = len(rows)
        groups.append(
            (
                np.array(rows, dtype=np.intp),
                np.array(idx, dtype=np.int32).reshape(B, k, k),
                np.array(scale, dtype=float).reshape(B, k, k),
                np.array(rest, dtype=np.int32).reshape(B, length - k),
            )
        )
    for table in (binom, *(t for group in groups for t in group)):
        table.flags.writeable = False
    return comps, binom, betas, tuple(groups)


def certify_hom(f: HomPoly, tol: float = DEFAULT_TOL) -> Verdict:
    """Lorentzian certificate for a normalized capped polynomial, decided
    without lifting it.

    Lifting is a linear isomorphism onto block-symmetric multiaffine
    polynomials that preserves membership and interiority both ways, and
    this certificate returns the verdict of the lift's certificate by
    construction: the coefficient checks compare the lift's coefficients
    g(alpha) = c_alpha / prod_i C(kappa_i, alpha_i) with tol, and each
    lifted Hessian's spectrum comes from a block-quotient matrix of size
    at most n (``_quotient_tables``), cut by the same trace norm. On the
    boundary path the support {g > tol} goes through ``is_m_convex``,
    which on capped exponents is basis exchange on the lifted support.

    Witnesses name exponents: a negative coefficient's ``exponent`` is the
    first smallest g in lexicographic order and its ``value`` is g; a
    failing Hessian's ``exponent`` is the first failing beta in
    descending lexicographic order, with the lifted spectrum descending;
    a support exchange failure reports ``is_m_convex``'s (alpha, beta, i)
    as ``exponent_one``, ``exponent_two`` and ``element``.
    """
    _check_normalized(f)
    n, d = f.n, f.d
    comps, binom, betas, groups = _quotient_tables(n, d, f.kappa)
    g = np.array([f.terms.get(alpha, 0.0) for alpha in comps])
    # one division per variable, in the lift's order, so that g is the
    # lift's coefficients to the last bit
    for i in range(n):
        g /= binom[:, i]
    worst = int(np.argmin(g))
    if g[worst] < -tol:
        return Verdict(
            VerdictStatus.REJECTED,
            {"kind": "negative_coefficient", "exponent": list(comps[worst]), "value": float(g[worst])},
            tol,
        )
    strict_coeffs = bool(np.all(g > tol))
    padded = np.append(g, 0.0)
    failures = []
    all_strict_signature = True
    for rows, idx, scale, rest in groups:
        w, _ = _checked_eigh(padded[idx] * scale)
        w = np.sort(np.concatenate([w, -padded[rest]], axis=1), axis=1)
        fail, strict = _signatures(w, tol)
        if fail.any():
            k = int(np.argmax(fail))
            failures.append((int(rows[k]), w[k, ::-1].tolist()))
        all_strict_signature = all_strict_signature and bool(strict.all())
    if failures:
        r, eigenvalues = min(failures)
        return Verdict(
            VerdictStatus.REJECTED,
            {"kind": "hessian_signature", "exponent": list(betas[r]), "eigenvalues": eigenvalues},
            tol,
        )

    def exchange():
        support = [alpha for alpha, v in zip(comps, g) if v > tol]
        if not support:
            return {"kind": "empty_support"}
        check = is_m_convex(MConvexCandidate(n, d, support))
        if check:
            return None
        a, b, i = check.witness
        return {"kind": "support_exchange", "exponent_one": list(a), "exponent_two": list(b), "element": int(i)}

    return _settle(strict_coeffs, all_strict_signature, exchange, tol)


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


def _trimmed(coeffs) -> np.ndarray:
    """One polynomial's coefficients without degenerate leading ones; its
    degree must stay at least 1."""
    c = np.asarray(coeffs, dtype=float).reshape(1, -1)
    deg, _ = _trim_rows(c)
    if deg[0] < 1:
        raise ValueError("need degree at least 1")
    return c[0, : deg[0] + 1]


def hermite_matrix(coeffs) -> np.ndarray:
    """Hankel matrix of root power sums. Positive definite iff all roots
    are real and distinct; positive semidefinite iff all roots are real."""
    return _hankel(_trimmed(coeffs)[None])[0]


def real_rooted(coeffs, tol: float = DEFAULT_TOL) -> RootResult:
    """Classify a univariate polynomial's roots through the power-sum
    Hankel matrix, with the tolerance scaled by its trace."""
    codes, dropped = _root_classes(np.asarray(coeffs, dtype=float).reshape(1, -1), tol)
    return RootResult(_ROOT_CLASSES[codes[0]], bool(dropped[0]))


def discriminant(coeffs) -> float:
    """Discriminant via the Sylvester resultant of the polynomial and its
    derivative, with the sign convention that a quadratic a t^2 + b t + c
    gets b^2 - 4 a c."""
    c = _trimmed(coeffs)
    m = c.size - 1
    if m == 1:
        return 1.0
    dc = np.array([i * c[i] for i in range(1, m + 1)])
    size = 2 * m - 1
    S = np.zeros((size, size))
    desc = c[::-1]
    ddesc = dc[::-1]
    for row in range(m - 1):
        S[row, row : row + m + 1] = desc
    for row in range(m):
        S[m - 1 + row, row : row + m] = ddesc
    res = float(np.linalg.det(S))
    sign = -1.0 if (m * (m - 1) // 2) % 2 else 1.0
    return sign * res / float(c[-1])


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
