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
(``_proved_strict``); only the matrices it declines go, each matrix size
at once, through one stacked ``eigh``, so every verdict and witness is
that of the eigenvalues. After a block with a declined matrix a row's
later blocks skip the proof. ``strata.exchange_violation`` runs only
where it can fail: a support with every coefficient above tol is the
uniform matroid, or the full capped box, which is M-convex.

The stable certificate restricts f along a block of directions at once
(``poly.restrict_lines``), runs the Newton power sums over all rows and
takes the Hankel eigenvalues from one stacked ``eigvalsh``, again
stopping at the first block that holds a failure; its stacked
membership classifies every line of every row at once. Every witness is the
first failing item in the documented order: for the Lorentzian
certificates, coefficients in colex order and derivatives in descending
lexicographic order of their exponent (for multiaffine inputs, subsets in
``itertools.combinations`` order), exchange violations in the order of
``exchange_violation``; for the stable one, directions in seeded order.
"""

from __future__ import annotations

import enum
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
        return ~np.isnan(_umath_linalg.cholesky_lo(A, signature="d->d")[:, 0, 0])


def _proved_strict(Q, rest, tol: float) -> np.ndarray:
    """Which matrices of a stack are proved strict without computing an
    eigenvalue: Q (B, k, k) symmetric, ``rest`` (B, r) each row's
    within-block eigenvalues. A True flag means ``_signatures`` calls
    that row strict, so it does not fail; False proves nothing. Each flag
    depends on its own matrix only.

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

    The guard 1'Q1 >= ||Q||_F, true of every Q with nonnegative entries,
    keeps s_1 s_1' / a, and so the eliminated matrix, of order k norm.
    The eliminated matrices go through one stacked Cholesky
    (``_factored``), which reports every matrix it declines.
    """
    if not tol >= 0:
        return np.zeros(Q.shape[0], dtype=bool)
    k = Q.shape[-1]
    frob = np.sqrt(np.einsum("bij,bij->b", Q, Q))
    norm = np.sqrt(k) * frob + np.abs(rest).sum(axis=1)
    slack = tol * np.maximum(1.0, norm) + k**4 * _EPS * norm
    sums = Q.sum(axis=2)  # Q 1, as Q is symmetric
    total = sums.sum(axis=1)
    proved = (total > k * slack) & (total >= frob) & (rest < -slack[:, None]).all(axis=1)
    every = bool(proved.all())
    if k == 1 or not (every or proved.any()):  # no second eigenvalue, or nothing left to prove
        return proved
    at = slice(None) if every else np.flatnonzero(proved)
    slack, s = slack[at], sums[at] + slack[at, None]
    u = s[:, 1:] / s.sum(axis=1)[:, None]
    if not every:
        # a nonpositive pivot stops any Cholesky: the diagonal of neg below
        pivots = (s[:, 1:] * u - np.diagonal(Q, axis1=1, axis2=2)[at, 1:] - slack[:, None] > 0).all(axis=1)
        at, slack, s, u = at[pivots], slack[pivots], s[pivots], u[pivots]
        proved[:] = False
        if not at.size:
            return proved
    neg = s[:, 1:, None] * u[:, None, :]
    neg -= Q[at, 1:, 1:]
    neg.reshape(len(neg), -1)[:, ::k] -= slack[:, None]  # the diagonal
    proved[at] = _factored(neg)
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
    trailing zero.
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


def _hessians(rows: np.ndarray, table: _Table, block: slice) -> np.ndarray:
    """The block of Q_beta of every row of coefficients, row by row, each
    as the trailing block of a width x width matrix. The gathered values
    die on return, before the proof's working set of a whole stack."""
    vals = rows[:, table.index[block]]
    if table.scale is not None:
        vals *= table.scale[block]
    vals = vals.reshape(len(rows) * vals.shape[1], -1)
    iu, ju = table.upper
    H = np.zeros((len(vals), table.width, table.width))
    H[:, iu, ju] = vals
    H[:, ju, iu] = vals
    return H


def _hessian_scan(G: np.ndarray, table: _Table, tol: float):
    """The Hessian scan of rows of coefficients G (R, len) in table order,
    each with the trailing zero where the table reads it. Per row: the
    index of its first failing Hessian in row order, or -1; whether every
    Hessian it scanned is strict; and the failing Hessian's lifted
    spectrum, descending, or None.

    The Hessians go in row order and block by block, one block of every
    row in one stack, and a row leaves the scan after the first block
    that holds a failure of its own: each row meets the blocks it would
    meet alone. ``_proved_strict`` proves single matrices strict with no
    eigenvalue; the rest go, each matrix size at once, through
    ``_checked_eigh``, so every flag and witness is that of the
    eigenvalues. A row with a declined matrix is near the boundary, where
    the proof seldom holds, so its later blocks skip it.
    """
    width = table.width
    step = max(1, _HESSIAN_BLOCK_ENTRIES // max(1, width * width))
    first, strict, spectra = [-1] * len(G), [True] * len(G), [None] * len(G)
    scan = list(range(len(G)))  # the rows with no failure yet
    attempt = [True] * len(G)  # the rows with no unproved Hessian yet
    for lo in range(0, table.index.shape[0], step):
        if not scan:
            break
        block = slice(lo, lo + step)
        rows = G if len(scan) == len(G) else G[scan]
        H = _hessians(rows, table, block)
        count = len(H) // len(scan)  # Hessians per row in this block
        # rows of lifted spectra: eig(Q_beta), then the within-block part;
        # with no within-block part every Q_beta is width x width
        w = np.empty((len(H), width)) if table.rest is None else -rows[:, table.rest[block]].reshape(len(H), -1)
        sizes = None if table.size is None else np.tile(table.size[block], len(scan))
        # matrices by size of Q_beta, the trailing k x k block
        groups = [(slice(None), width)] if sizes is None else [(sizes == k, k) for k in sorted(set(sizes.tolist()))]
        # after a block with an unproved Hessian a row goes straight to the eigensolve
        tried = [attempt[row] for row in scan]
        solved = None
        for at, k in groups:
            Q = H[at, width - k :, width - k :]
            proved = False
            if any(tried):
                proved = _proved_strict(Q, w[at, k:], tol)
                if not all(tried):
                    proved = proved & np.repeat(tried, count)[at]
            if np.all(proved):
                continue
            unproved = ~np.broadcast_to(proved, Q.shape[:1])
            every = unproved.all()
            todo = at if every else np.flatnonzero(unproved) if sizes is None else np.flatnonzero(at)[unproved]
            w[todo, :k] = _checked_eigh(Q if every else Q[unproved])[0]
            solved = np.zeros(len(H), dtype=bool) if solved is None else solved
            solved[todo] = True
        if solved is None:
            continue
        if solved.all():
            if table.rest is not None:
                w.sort(axis=1)
            fail, exact = _signatures(w, tol)
        else:
            if table.rest is not None:
                w[solved] = np.sort(w[solved], axis=1)
            fail, exact = np.zeros_like(solved), np.ones_like(solved)
            fail[solved], exact[solved] = _signatures(w[solved], tol)
        solved, fail, exact = (x.reshape(len(scan), count) for x in (solved, fail, exact))
        outcomes = zip(scan, fail.any(axis=1).tolist(), exact.all(axis=1).tolist(), solved.any(axis=1).tolist())
        for i, (row, hit, settled, touched) in enumerate(outcomes):
            strict[row] = strict[row] and settled
            attempt[row] = attempt[row] and not touched
            if hit:
                r = int(np.argmax(fail[i]))
                first[row], spectra[row] = lo + r, w[i * count + r, ::-1].tolist()
        scan = [row for row in scan if first[row] < 0]
    return first, strict, spectra


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
    refusals = _refusals(rows, tol)
    table = _table(f.d, f.kappa)
    G = np.zeros((rows.shape[0], rows.shape[1] + 1))
    G[:, :-1] = rows
    if max(f.kappa) > 1:  # the lift's values, divided as ``_lift_values`` divides them
        for binomials in _binomials(f.d, f.kappa):
            G[:, :-1] /= binomials
    coeffs = G[:, : len(table.digits)]
    member = ~(coeffs < -tol).any(axis=1) & np.array([refusal is None for refusal in refusals])
    scan = np.flatnonzero(member)
    member[scan[np.array(_hessian_scan(G[scan], table, tol)[0]) >= 0]] = False
    out = [refusal or flag for refusal, flag in zip(refusals, member.tolist())]
    live = coeffs > tol
    for r in np.flatnonzero(member & ~live.all(axis=1)).tolist():
        support = table.digits[live[r]]
        out[r] = support.size > 0 and (lambda support=support: exchange_violation(support) is None)
    return out


def _check_tol(tol: float) -> None:
    """Refuse a tolerance outside [0, inf), NaN included."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")


def _check_input(f, tol: float) -> None:
    (refusal,) = _refusals(f.coeffs[None], tol)
    if refusal is not None:
        raise refusal


def _refusals(rows: np.ndarray, tol: float) -> list:
    """Per row of coefficients: the ValueError that ``_check_input``
    raises on the polynomial on it, or None."""
    _check_tol(tol)
    values = [float(row.sum()) for row in rows]
    return [None if abs(value - 1.0) <= 1e-9 else
            ValueError(f"polynomial is not normalized: value at the all-ones point is {value}") for value in values]


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
    scale = size.max(axis=1)
    if np.any(scale == 0.0):
        raise ValueError("zero polynomial")
    live = size >= _DEGENERATE_LEAD * scale[:, None]
    return lines.shape[1] - 1 - np.argmax(live[:, ::-1], axis=1)


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
    """Per row of coefficients (R, k): its root class (_DISTINCT, _TIES
    or _COMPLEX), with the tolerance scaled by the Hankel trace. Rows are
    grouped by trimmed degree and each group's Hankel eigenvalues come
    from one stacked eigvalsh."""
    deg = _trim_rows(lines)
    if np.any(deg < 1):
        raise ValueError("need degree at least 1")
    codes = np.empty(lines.shape[0], dtype=np.intp)
    for m in set(deg.tolist()):
        rows = np.flatnonzero(deg == m)
        H = _hankel(lines[rows, : m + 1])
        w0 = np.linalg.eigvalsh(H)[:, 0]
        eff = tol * np.maximum(1.0, np.trace(H, axis1=1, axis2=2))
        codes[rows] = np.where(w0 > eff, _DISTINCT, np.where(w0 < -eff, _COMPLEX, _TIES))
    return codes


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
    in code order, for a capped f the lexicographically first.
    """
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
    that certificate refuses it with. Each row is restricted along the
    same blocks of directions, and every line of every row is classified
    by one ``_root_classes``, which raises ValueError on a degenerate
    line: so does this, even past a row's first complex line, where the
    row's own certificate stops."""
    refusals = _refusals(rows, tol)
    member = ~(rows < -tol).any(axis=1) & np.array([refusal is None for refusal in refusals])
    if f.n >= 2 and f.d >= 2:
        samples = sample_sphere_sumzero(f.n, directions, seed)
        scan = np.flatnonzero(member)
        lines = [restrict_lines(f._like(rows[r]), samples[lo : lo + _DIRECTION_BLOCK])
                 for r in scan.tolist() for lo in range(0, directions, _DIRECTION_BLOCK)]
        if lines:
            codes = _root_classes(np.concatenate(lines), tol).reshape(scan.size, directions)
            member[scan] = ~(codes == _COMPLEX).any(axis=1)
    return [refusal or flag for refusal, flag in zip(refusals, member.tolist())]
