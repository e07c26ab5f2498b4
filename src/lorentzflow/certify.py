"""Membership and interiority certificates for Lorentzian and real stable
polynomials, plus the real-rootedness kernel: the Hankel matrix of root
power sums.

Verdicts are three-valued. StrictInterior means every sub-check passed
with margin above the tolerance; BoundaryWithinTol means the polynomial
sits within tolerance of the membership conditions; Rejected is
conclusive and always carries a witness. Every certificate refuses a
tolerance outside [0, inf), NaN included, before any work. The
stability certificate samples directions, so there only Rejected is
conclusive and the other two verdicts are evidence at the sampled
resolution.

One engine decides every Lorentzian input. A multiaffine polynomial is
the capped polynomial with kappa = 1^n, and for every cap vector the
Hessians of the (d-2)-fold derivatives of the polarization lift are
constant on the blocks: each one's spectrum is that of a block-quotient
matrix of size at most n plus known repeated eigenvalues, and at
kappa = 1^n the quotient is the multiaffine Hessian itself. One cached
table per (d, kappa) says where every quotient matrix sits in the
coefficient vector, laid out and lifted by ``poly``. The engine,
``_hessian_scan``, walks it in blocks for one coefficient vector or a
stack of them (an escape's trial times), and each row stops at the
first block that holds a failure of its own: the lift's verdict, with
no lift built. Each Hessian is proved strict on its own by a shifted
Cholesky, with one stacked factorization per block and no eigenvalue
(``_proved_strict``), which reads only the lower triangle the scan
writes; a smaller capped quotient matrix is padded with its own
within-block eigenvalues, so one proof covers every size. Only the
matrices it declines are made symmetric and go, each matrix size at
once, through one stacked ``eigh``, so every verdict and witness is
that of the eigenvalues. After a block with a declined matrix a row's
later blocks skip the proof. ``strata.exchange_violation`` runs only
where it can fail: a support with every coefficient above tol is the
uniform matroid, or the full capped box, which is M-convex.

The stable certificate restricts f along a block of directions at once
(``poly.restrict_lines``), runs the Newton power sums over all lines,
proves distinct real roots by one stacked Cholesky of the shifted
Hankel matrices (``_proved_distinct``) and takes the smallest Hankel
eigenvalue of the lines it declines from one stacked ``eigvalsh``,
again stopping at the first block that holds a failure. Its stacked
membership restricts every row along a block of directions in one
``restrict_lines`` call and classifies every line of every row at
once. Every witness is the
first failing item in the documented order: for the Lorentzian
certificates, coefficients in colex order and derivatives in descending
lexicographic order of their exponent (for multiaffine inputs, subsets in
``itertools.combinations`` order), exchange violations in the order of
``exchange_violation``; for the stable one, directions in seeded order.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .poly import HomPoly, MultiAffinePoly, _binomials, _lift_values, exponent_code, exponent_table, restrict_lines
from .strata import exchange_violation

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
_EPS = np.finfo(float).eps


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


def _factored(A) -> np.ndarray:
    """Per matrix of a stack (B, m, m), whether LAPACK's Cholesky factors
    it, from one stacked call to the kernel behind ``np.linalg.cholesky``.
    That function raises for the whole stack when one matrix declines;
    the kernel fills each declined matrix's factor with NaN and goes on,
    so every flag is that of the matrix's own factorization."""
    with np.errstate(invalid="ignore"):
        corner = _umath_linalg.cholesky_lo(A, signature="d->d")[:, 0, 0]
    return corner == corner  # not NaN


class _Triangle(NamedTuple):
    """The lower triangle of a k x k matrix Q, entries in
    ``np.tril_indices`` order, laid out by ``_lower`` for
    ``_proved_strict``."""

    rows: np.ndarray  # each entry's row
    cols: np.ndarray  # each entry's column
    diagonal: np.ndarray  # the entries on the diagonal
    weight: np.ndarray  # each entry's weight in 1'Q1 and ||Q||_F^2: 1 on the diagonal, 2 off it
    rowsum: np.ndarray  # (entries, k), 0/1: the entries of a symmetric Q times it are Q 1
    inner: np.ndarray  # the entries of the trailing (k-1) x (k-1) block, in its own tril order
    left: np.ndarray  # their rows in Q
    right: np.ndarray  # their columns in the trailing block
    pivots: np.ndarray  # which of them lie on the diagonal


@lru_cache(maxsize=None)
def _lower(k: int) -> _Triangle:
    rows, cols = np.tril_indices(k)
    rowsum = np.zeros((rows.size, k))
    rowsum[np.arange(rows.size), rows] = rowsum[np.arange(rows.size), cols] = 1.0
    inner = np.flatnonzero(cols > 0)
    triangle = _Triangle(rows, cols, np.flatnonzero(rows == cols), np.where(rows == cols, 1.0, 2.0), rowsum,
                         inner, rows[inner], cols[inner] - 1, np.flatnonzero(rows[inner] == cols[inner]))
    for arr in triangle:
        arr.flags.writeable = False
    return triangle


def _proved_strict(Q, rest, tol: float) -> np.ndarray:
    """Which matrices of a stack are proved strict without computing an
    eigenvalue: Q (B, k, k) symmetric, of which only the lower triangle
    is read, and ``rest`` (B, r) each row's within-block eigenvalues. A
    True flag means ``_signatures`` calls that row strict, so it does not
    fail; False proves nothing. Each flag depends on its own matrix only.

    Per row, norm = sqrt(k) ||Q||_F + sum |rest| bounds the trace norm
    from above, so slack = tol max(1, norm) is at least the cut of
    ``_signatures`` when tol >= 0; a negative or NaN tol proves nothing.
    On top of it comes a rounding allowance of k^4 eps norm, the order of
    the standard bounds: Cholesky's backward error gamma_{k+1} |R'||R| is
    at most some k^3 eps norm on the eliminated matrix, and the inverse of
    the congruence below has ||T^-1||^2 <= 2k - 1. The rounding of the
    sums and how far ``eigh`` may move an eigenvalue are not derived, so
    the allowance is a margin checked by the seeded sweep in the tests,
    not a worst-case bound. Then:

    - the Rayleigh quotient 1'Q1 / k above slack puts the largest
      eigenvalue above it;
    - every within-block value lies below -slack;
    - with M = Q + slack I, s = M 1 and a = 1'M1 > 0, the congruence by
      T = [1, e_2, ..., e_k] gives T'MT = [[a, s_1'], [s_1, M_22]]. By
      Sylvester's law of inertia M has one positive eigenvalue and
      k - 1 negative ones when the Schur complement M_22 - s_1 s_1' / a
      is negative definite, which a Cholesky of its negative proves: the
      second eigenvalue of Q lies below -slack.

    The guard 1'Q1 >= ||Q||_F, true of every Q with nonnegative entries
    and checked for each (a padded capped matrix has a negative
    diagonal), keeps s_1 s_1' / a, and so the eliminated matrix, of order
    k norm.
    The bounds come from the lower triangle's entries (``_lower``), and
    of each eliminated matrix only the lower triangle, which is all the
    stacked Cholesky (``_factored``) reads, is right; that Cholesky
    reports every matrix it declines.
    """
    if not tol >= 0:
        return np.zeros(len(Q), dtype=bool)
    k = Q.shape[-1]
    tri = _lower(k)
    entries = Q[:, tri.rows, tri.cols]
    frob = np.sqrt((entries * entries) @ tri.weight)
    norm = frob * math.sqrt(k)
    if rest.shape[1]:
        across = rest.T.copy()  # reductions along short rows are slow: reduce across them
        norm += np.abs(across).sum(axis=0)
    slack = tol * np.maximum(norm, 1.0) + k**4 * _EPS * norm
    total, cut = entries @ tri.weight, k * slack  # 1'Q1, and k slack
    proved = (total > cut) & (total >= frob)
    if rest.shape[1]:
        proved &= across.max(axis=0) < -slack
    every = proved.all()
    if k == 1 or not (every or proved.any()):  # no second eigenvalue, or nothing left to prove
        return proved
    at = slice(None) if every else proved.nonzero()[0]
    if not every:
        entries, slack, total, cut = entries[at], slack[at], total[at], cut[at]
    # the lower triangle of M = Q + slack I, then s = M 1 and u = s_1 / 1'M1
    entries[:, tri.diagonal] += slack[:, None]
    s = entries @ tri.rowsum
    u = s[:, 1:] / (total + cut)[:, None]
    # the lower triangle of neg = s_1 u' - M_22, row by row
    neg = s[:, tri.left] * u[:, tri.right] - entries[:, tri.inner]
    if not every:
        # a nonpositive pivot stops any Cholesky: the diagonal of neg
        pivots = (neg[:, tri.pivots] > 0).all(axis=1)
        at, neg = at[pivots], neg[pivots]
        proved[:] = False
        if not at.size:
            return proved
    # its upper triangle is left unwritten: the Cholesky reads the lower one only
    lower = np.empty((len(neg), k - 1, k - 1))
    lower[:, tri.left - 1, tri.right] = neg
    proved[at] = _factored(lower)
    return proved


def _signatures(w, tol: float):
    """Rows of ascending eigenvalues (B, m), m >= 2 -> (fail, strict) flags
    per row, with the tolerance scaled by each row's trace norm: fail when
    the two largest clear it, strict when only the largest does and every
    other one lies below its negative."""
    eff = tol * np.maximum(1.0, np.abs(w).sum(axis=1))
    return w[:, -2] > eff, (w[:, -1] > eff) & (w[:, -2] < -eff)


class _Table(NamedTuple):
    """Layout of the Lorentzian certificate for one (d, kappa), built by
    ``_table``: N degree-d exponents, one row per beta."""

    digits: np.ndarray  # (N, n) the exponents: ``exponent_table(d, kappa).digits``
    betas: np.ndarray  # the betas as exponent rows, descending lexicographic
    width: int  # largest size of Q_beta
    upper: tuple  # (iu, ju): the stored entries of a width x width matrix
    index: np.ndarray  # where each stored entry sits in g
    size: np.ndarray | None  # size of each Q_beta; None when all are width
    scale: np.ndarray | None  # entry scales; None when every m_i <= 1
    rest: np.ndarray | None  # where each lifted spectrum's within-block part sits in g


@lru_cache(maxsize=64)
def _table(d: int, kappa: tuple) -> _Table:
    """Where the block-quotient Hessians of a capped polynomial sit in its
    coefficient vector g, built with no Python loop over exponents.

    g follows the order of ``poly.exponent_table``, the order of every
    coefficient vector, and a trailing zero stands for every exponent
    past the caps. The code is additive, so every entry of every Q_beta
    is found by one broadcast sum and one ``searchsorted``.

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
    trailing zero. A Q_beta smaller than width leaves capped slots on the
    diagonal of its width x width matrix, and they read its first
    within-block values, negated by their scale m_i - 1 = -1: that
    matrix's spectrum with the within-block values past the first width
    is the lifted spectrum, so one proof covers every size.
    """
    layout = exponent_table(d, kappa)
    alphas = layout.codes
    radix, base, betas = exponent_code(kappa, d, d - 2)
    B = (betas[:, None] // radix) % base
    m = np.array(kappa, dtype=np.int64) - B
    size = (m > 0).sum(axis=1)
    width = int(size.max()) if betas.size else 0
    diagonal = bool((m > 1).any())
    # built in code order of the betas, one row per stored entry, so that
    # the targets come mostly ascending, which searchsorted walks fastest;
    # each beta's free variables ascending, behind its capped ones
    var = np.argsort(m > 0, axis=1, kind="stable")[:, len(kappa) - width :]
    mv, rv = np.take_along_axis(m, var, axis=1).T, radix[var].T
    iu, ju = np.triu_indices(width, 0 if diagonal else 1)
    ok = (mv[iu] > 0) & (mv[ju] > 0)
    if diagonal:
        ok[iu == ju] = mv > 1
    dtype = np.min_scalar_type(alphas.size)
    index = np.where(ok, np.searchsorted(alphas, betas + rv[iu] + rv[ju]), alphas.size).astype(dtype)
    scale = rest = None
    if diagonal:
        mi, mj = mv[iu].astype(float), mv[ju].astype(float)
        scale = np.where((iu == ju)[:, None], mi - 1, np.sqrt(mi * mj))
        # g(beta + 2 e_i), m_i - 1 times per free i, behind the k slots of
        # eig(Q_beta): a row as long as a lifted spectrum, sum_i m_i
        length = sum(kappa) - d + 2
        twice = np.searchsorted(alphas, betas[:, None] + 2 * radix)
        rest = np.full((betas.size, length), alphas.size, dtype=dtype)
        rest[np.arange(length) >= size[:, None]] = np.repeat(twice.ravel(), np.maximum(m - 1, 0).ravel())
        # the capped slots of a smaller Q_beta's diagonal, whose scale is
        # m_i - 1 = -1, read its first within-block values
        slot = np.arange(width)[:, None]
        padded = slot < width - size
        index[iu == ju] = np.where(padded, rest[np.arange(betas.size), np.minimum(size + slot, length - 1)], index[iu == ju])
    # descending lexicographic order: the first variable is the most significant
    order = np.lexsort(B.T[::-1])[::-1]
    table = _Table(
        layout.digits, B[order].astype(layout.digits.dtype), width,
        (iu, ju), index.T[order],
        None if np.all(size == width) else size[order].astype(np.uint8),
        None if scale is None else scale.T[order],
        None if rest is None else rest[order],
    )
    for arr in (*table, *table.upper):
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return table


def _hessian_scan(G: np.ndarray, table: _Table, tol: float):
    """The Hessian scan of rows of coefficients G (R, len) in table order,
    each with the trailing zero where the table reads it. Per row: the
    index of its first failing Hessian in row order, or -1; whether every
    Hessian it scanned is strict; and the failing Hessian's lifted
    spectrum, descending, or None.

    The Hessians go in row order and block by block, one block of every
    row in one stack, and a row leaves the scan after the first block
    that holds a failure of its own: each row meets the blocks it would
    meet alone. Every Hessian of a block is written as the lower triangle
    of its width x width matrix, a smaller Q_beta padded as ``_table``
    lays it out, and one ``_proved_strict`` call proves single matrices
    strict with no eigenvalue; only the rest are made symmetric and go,
    each size of Q_beta at once, through ``_checked_eigh`` on their
    trailing blocks, so every flag and witness is that of the
    eigenvalues. A row with a declined matrix is near the boundary, where
    the proof seldom holds, so its later blocks skip it.
    """
    width, (iu, ju) = table.width, table.upper
    step = max(1, _HESSIAN_BLOCK_ENTRIES // max(1, width * width))
    first, loose, spectra = np.empty(len(G), dtype=np.intp), np.zeros(len(G), dtype=bool), [None] * len(G)
    first.fill(-1)
    scan = np.arange(len(G))  # the rows with no failure yet
    unproved = np.zeros(len(G), dtype=bool)  # the rows with an unproved Hessian in an earlier block
    for lo in range(0, table.index.shape[0], step):
        if not scan.size:
            break
        block = slice(lo, lo + step)
        rows = G if scan.size == len(G) else G[scan]
        vals = rows[:, table.index[block]]
        if table.scale is not None:
            vals *= table.scale[block]
        count = vals.shape[1]  # Hessians per row in this block
        vals = vals.reshape(scan.size * count, -1)
        # per Hessian, its within-block values from entry k on; the proof
        # takes those past the padded diagonal, from entry width on
        within = None if table.rest is None else -rows[:, table.rest[block]].reshape(len(vals), -1)
        H = np.zeros((len(vals), width, width))
        H[:, ju, iu] = vals
        # after a block with an unproved Hessian a row goes straight to the eigensolve
        tried = ~unproved[scan].repeat(count) if unproved.any() else None
        if tried is None or tried.any():
            rest = np.empty((len(vals), 0)) if within is None else within[:, width:]
            proved = _proved_strict(H, rest, tol)
            # one flag per matrix, from an array of them or from one flag for all
            declined = np.logical_not(proved if tried is None else proved & tried, out=np.empty(len(vals), dtype=bool))
            if not declined.any():
                continue
            todo = declined.nonzero()[0]
        else:
            todo = np.arange(len(vals))
        # the declined Hessians, each size of Q_beta at once, with their lifted spectra ascending
        sizes = None if table.size is None else table.size[block][todo % count]
        found = []
        for k in [width] if sizes is None else sorted(set(sizes.tolist())):
            at = todo if sizes is None else todo[sizes == k]
            Q = H[at]
            Q[:, iu, ju] = vals[at]
            w = _checked_eigh(Q[:, width - k :, width - k :])[0]
            if within is not None:
                w = np.sort(np.concatenate([w, within[at, k:]], axis=1), axis=1)
            found.append((at, w))
        at, w = found[0] if len(found) == 1 else (np.concatenate(x) for x in zip(*found))
        if len(found) > 1:  # into row order
            order = np.argsort(at)
            at, w = at[order], w[order]
        fail, exact = _signatures(w, tol)
        row = at // count
        loose[scan[row[~exact]]] = True
        unproved[scan[row]] = True
        if fail.any():
            hit = np.zeros(scan.size, dtype=bool)
            for j in fail.nonzero()[0].tolist():  # in row order: a row's first failure comes first
                i = row[j]
                if not hit[i]:
                    hit[i] = True
                    first[scan[i]], spectra[scan[i]] = lo + at[j] - i * count, w[j, ::-1].tolist()
            scan = scan[~hit]
    return first, ~loose, spectra


def _lorentzian(g: np.ndarray, table: _Table, tol: float, keys, name) -> Verdict:
    """The Lorentzian certificate of coefficients g in table order, with
    the trailing zero where the table reads it. ``keys`` are the witness
    keys of one exponent and of the two members of an exchange
    violation, and ``name`` turns an exponent into its witness value.

    The Hessians are the one-row case of ``_hessian_scan``, which ends at
    the first block that holds a failure. When every coefficient clears
    tol the support is the whole family: the uniform matroid, or the full
    capped box, which is M-convex. Only a support with some coefficient
    within tol goes through ``exchange_violation``.
    """
    coeffs = g[: len(table.digits)]
    worst = int(np.argmin(coeffs))
    if coeffs[worst] < -tol:
        return Verdict(
            VerdictStatus.REJECTED,
            {"kind": "negative_coefficient", keys[0]: name(table.digits[worst].tolist()),
             "value": float(coeffs[worst])},
            tol,
        )
    (first,), (all_strict,), (spectrum,) = _hessian_scan(g[None], table, tol)
    if first >= 0:
        return Verdict(
            VerdictStatus.REJECTED,
            {"kind": "hessian_signature", keys[0]: name(table.betas[first].tolist()), "eigenvalues": spectrum},
            tol,
        )
    live = coeffs > tol
    if live.all():
        status = VerdictStatus.STRICT_INTERIOR if all_strict else VerdictStatus.BOUNDARY_WITHIN_TOL
        return Verdict(status, None, tol)
    if not live.any():
        return Verdict(VerdictStatus.REJECTED, {"kind": "empty_support"}, tol)
    violation = exchange_violation(table.digits[live])
    if violation is None:
        return Verdict(VerdictStatus.BOUNDARY_WITHIN_TOL, None, tol)
    a, b, i = violation
    witness = {"kind": "support_exchange", keys[1]: name(a), keys[2]: name(b), "element": i}
    return Verdict(VerdictStatus.REJECTED, witness, tol)


def _lorentzian_members(f, rows: np.ndarray, tol: float) -> list:
    """Per row of coefficients (R, N) in f's layout: whether the
    polynomial on it is a member by ``certify_hom``, which for a
    multiaffine f is ``certify_multiaffine``'s membership, with every
    row's Hessians in one ``_hessian_scan``. A row that certificate
    refuses gets the ValueError it raises, and a row that only the
    exchange check can settle gets a function of no arguments that runs
    the check, so it costs nothing until it is read."""
    refusals, member = _refusals(rows, tol)
    table = _table(f.d, f.kappa)
    G = np.zeros((rows.shape[0], rows.shape[1] + 1))
    G[:, :-1] = rows
    if max(f.kappa) > 1:  # the lift's values, divided as ``_lift_values`` divides them
        for binomials in _binomials(f.d, f.kappa):
            G[:, :-1] /= binomials
    coeffs = G[:, : len(table.digits)]
    low = coeffs.min(axis=1)
    member &= low >= -tol
    scan = member.nonzero()[0]
    if scan.size:
        member[scan[_hessian_scan(G if scan.size == len(G) else G[scan], table, tol)[0] >= 0]] = False
    out = [refusal or flag for refusal, flag in zip(refusals, member.tolist())]
    for r in (member & (low <= tol)).nonzero()[0].tolist():
        support = table.digits[coeffs[r] > tol]
        out[r] = support.size > 0 and (lambda support=support: exchange_violation(support) is None)
    return out


def _check_tol(tol: float) -> None:
    """Refuse a tolerance outside [0, inf), NaN included."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")


def _check_input(f, tol: float) -> None:
    ((refusal,), _) = _refusals(f.coeffs[None], tol)
    if refusal is not None:
        raise refusal


def _refusals(rows: np.ndarray, tol: float):
    """Per row of coefficients: the ValueError that ``_check_input``
    raises on the polynomial on it, or None; and which rows it accepts,
    from one row sum."""
    _check_tol(tol)
    values = rows.sum(axis=1)
    normalized = np.abs(values - 1.0) <= 1e-9
    out = [None] * len(rows)
    if not normalized.all():
        for r in (~normalized).nonzero()[0].tolist():
            out[r] = ValueError(f"polynomial is not normalized: value at the all-ones point is {float(values[r])}")
    return out, normalized


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
    _check_input(f, tol)
    table = _table(f.d, (1,) * f.n)
    return _lorentzian(f.coeffs, table, tol, ("subset", "basis_one", "basis_two"),
                       lambda alpha: [i for i, a in enumerate(alpha) if a])


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
    path the support {g > tol} goes through ``exchange_violation``, which
    on capped exponents is basis exchange on the lifted support.

    Witnesses name exponents: a negative coefficient's ``exponent`` is the
    first smallest g in colex order and its ``value`` is g; a failing
    Hessian's ``exponent`` is the first failing beta in descending
    lexicographic order, with the lifted spectrum descending; a support
    exchange failure reports ``exchange_violation``'s first violating
    (alpha, beta, i) as ``exponent_one``, ``exponent_two`` and ``element``.
    """
    _check_input(f, tol)
    g = np.append(_lift_values(f), 0.0)
    return _lorentzian(g, _table(f.d, f.kappa), tol, ("exponent", "exponent_one", "exponent_two"), list)


# root classes: distinct real roots, real roots with ties, complex roots
_DISTINCT, _TIES, _COMPLEX = range(3)


def _trim_rows(lines: np.ndarray) -> np.ndarray:
    """Per row of coefficients (R, k): the degree left after dropping
    degenerate leading coefficients."""
    if lines.shape[1] == 0:
        raise ValueError("zero polynomial")
    size = np.abs(lines)
    scale = functools.reduce(np.maximum, size.T)  # column by column: a max along short rows is slow
    if not scale.all():
        raise ValueError("zero polynomial")
    cut = _DEGENERATE_LEAD * scale
    return lines.shape[1] - 1 - np.argmax((size >= cut[:, None])[:, ::-1], axis=1)


def _hankel(c: np.ndarray) -> np.ndarray:
    """Stacked Hankel matrices of root power sums for rows of coefficients
    (R, m+1) of one degree m, by the Newton recurrences run over all rows
    at once (monic normalization happens here)."""
    rows, m = c.shape[0], c.shape[1] - 1
    monic = (c / c[:, -1:]).T  # one coefficient of every row per row
    s = np.empty((2 * m - 1, rows))
    s[0] = m
    for k in range(1, 2 * m - 1):
        acc = np.zeros(rows)
        for i in range(1, min(k - 1, m) + 1):
            acc += monic[m - i] * s[k - i]
        if k <= m:
            acc += k * monic[m - k]
        s[k] = -acc
    return s.T[:, np.add.outer(np.arange(m), np.arange(m))]


def _proved_distinct(H, scale, tol: float) -> np.ndarray:
    """Which Hankel matrices of a stack (R, m, m) are proved to have their
    smallest eigenvalue above tol * scale, the cut of ``_root_classes``,
    without computing an eigenvalue: a True flag means that row's line
    has distinct real roots; False proves nothing. ``scale`` is each
    row's max(1, trace), and a negative or NaN tol proves nothing.

    A Cholesky of H - (tol + m^4 eps) scale I that completes makes that
    matrix positive definite, so the smallest eigenvalue of H lies above
    the cut with room to spare: by Hermite's criterion (``_hankel``) the
    line has distinct real roots. The factorization's backward error is
    of order m eps trace(H), and an eigensolver moves an eigenvalue by
    some small power of m times eps ||H||, with ||H|| <= trace(H) once H
    is positive definite; the allowance of m^4 eps scale, as in
    ``_proved_strict``, is a margin over both, checked by the seeded
    sweep in the tests, not a worst-case bound. The shifted matrices go
    through one stacked Cholesky (``_factored``), which reports every
    matrix it declines.
    """
    if not tol >= 0:
        return np.zeros(len(H), dtype=bool)
    m = H.shape[-1]
    shifted = H.copy()
    shifted.reshape(len(H), -1)[:, :: m + 1] -= ((tol + m**4 * _EPS) * scale)[:, None]  # the diagonal
    return _factored(shifted)


def _root_classes(lines: np.ndarray, tol: float):
    """Per row of coefficients (R, k): its root class (_DISTINCT, _TIES
    or _COMPLEX), with the tolerance scaled by the Hankel trace. Rows are
    grouped by trimmed degree. In each group one stacked Cholesky proves
    distinct real roots (``_proved_distinct``), and only the rows it
    declines, ties and complex roots among them, take their smallest
    Hankel eigenvalue from one stacked eigvalsh: every class is that of
    the eigenvalue."""
    deg = _trim_rows(lines)
    if deg.min() < 1:
        raise ValueError("need degree at least 1")
    codes = np.full(lines.shape[0], _DISTINCT)
    for m in set(deg.tolist()):
        rows = (deg == m).nonzero()[0]
        H = _hankel(lines[rows, : m + 1])
        scale = np.maximum(1.0, np.trace(H, axis1=1, axis2=2))
        declined = ~_proved_distinct(H, scale, tol)
        if not declined.any():
            continue
        rows, H, eff = rows[declined], H[declined], tol * scale[declined]
        w0 = np.linalg.eigvalsh(H)[:, 0]
        codes[rows] = np.where(w0 > eff, _DISTINCT, np.where(w0 < -eff, _COMPLEX, _TIES))
    return codes


def _check_sampling(directions: int, seed: int) -> None:
    """Refuse fewer than one sampled direction or a negative seed."""
    if directions < 1:
        raise ValueError(f"need at least one sampled direction, got {directions}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


@lru_cache(maxsize=16)
def sample_sphere_sumzero(n: int, count: int, seed: int) -> np.ndarray:
    """Deterministic unit vectors with coordinate sum zero, by projecting
    standard Gaussian draws onto the sum-zero hyperplane and normalizing.
    Returns a read-only array of shape (count, n), cached by
    (n, count, seed). Rows are drawn in one call; a draw whose projection
    has norm below 1e-8 is dropped and the stream goes on, so the rows
    are those of drawing one at a time. Each norm is ``np.linalg.norm``
    of its row, whose rounding a stacked norm does not keep."""
    if n < 2:
        raise ValueError(f"need at least two coordinates, got n={n}")
    _check_sampling(count, seed)
    rng = np.random.default_rng(seed)
    out = np.empty((0, n))
    while len(out) < count:
        g = rng.standard_normal((count - len(out), n))
        g -= g.mean(axis=1, keepdims=True)
        nrm = np.array([np.linalg.norm(row) for row in g])
        kept = nrm >= 1e-8
        out = np.concatenate([out, g[kept] / nrm[kept, None]])
    out.flags.writeable = False
    return out


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
    roots and the coefficient of every exponent alpha <= kappa of degree
    d clears the tolerance. A negative coefficient's witness is the first
    in code order, for a capped f the lexicographically first. Fewer
    than one direction and a negative seed are refused before any work.
    """
    _check_sampling(directions, seed)
    _check_input(f, tol)
    exponents = f.table.digits
    negative = np.flatnonzero(f.coeffs < -tol)
    if negative.size:
        if isinstance(f, HomPoly):
            negative = negative[np.lexsort(exponents[negative].T[::-1])]
        k = int(negative[0])
        return Verdict(
            VerdictStatus.REJECTED,
            {"kind": "negative_coefficient", "exponent": exponents[k].tolist(), "value": float(f.coeffs[k])},
            tol,
        )
    strict_coeffs = bool(np.all(f.coeffs > tol))
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
        codes = _root_classes(lines, tol)
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


def _stable_members(f, rows: np.ndarray, directions: int, seed: int, tol: float) -> list:
    """Per row of coefficients (R, N) in f's layout: whether the
    polynomial on it is a member by ``certify_stable``, or the ValueError
    that certificate refuses it with. Every row is restricted along each
    block of directions in one ``restrict_lines`` call, bit for bit the
    certificate's lines, and every line of every row is classified by one
    ``_root_classes``, which raises ValueError on a degenerate line: so
    does this, even past a row's first complex line, where the row's own
    certificate stops."""
    refusals, member = _refusals(rows, tol)
    member &= ~(rows < -tol).any(axis=1)
    scan = member.nonzero()[0]
    if f.n >= 2 and f.d >= 2 and scan.size:
        samples, live = sample_sphere_sumzero(f.n, directions, seed), rows[scan]
        lines = np.concatenate([restrict_lines(f, samples[lo : lo + _DIRECTION_BLOCK], live)
                                for lo in range(0, directions, _DIRECTION_BLOCK)], axis=1)
        codes = _root_classes(lines.reshape(-1, f.d + 1), tol).reshape(scan.size, directions)
        member[scan] = ~(codes == _COMPLEX).any(axis=1)
    return [refusal or flag for refusal, flag in zip(refusals, member.tolist())]
