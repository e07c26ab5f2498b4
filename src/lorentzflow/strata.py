"""Discrete support checks: the exchange axiom on exponent sets, basis
exchange as its 0/1 case (Murota, *Discrete Convex Analysis*, 2003, ch. 4)
and the support strata of polynomials. One exact, vectorized kernel,
``exchange_violation``, decides every exchange check of the package."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import MultiAffinePoly, exponent_code

# (alpha, beta) pairs the exchange kernel holds at once: memory linear in the set
_EXCHANGE_BLOCK_PAIRS = 1 << 18


def exchange_violation(points):
    """The first violation (alpha, beta, i) of the exchange axiom in an
    (m, n) array of nonnegative exponent rows of one degree, as tuples of
    plain ints, or None if the rows are M-convex: for alpha, beta in the
    set and every i with alpha_i > beta_i, some j with alpha_j < beta_j
    keeps alpha - e_i + e_j in the set. Repeated rows count once.

    Rows are coded by ``poly.exponent_code`` with the set's maxima as caps.
    Violations are ordered by alpha, then beta, in ascending code order
    (colex; ``SubsetBasis`` order on 0/1 rows), then i ascending. Codes
    past int64, which within 16 variables takes n = 16 and maxima near
    16, are refused with a ``ValueError``. A pair violates
    the axiom at i when U_t(beta) = {j : beta_j >= t} misses F_t[alpha, i]
    at every level t: the j with alpha - e_i + e_j in the set and
    alpha_j = t - 1, and i itself at t = alpha_i. All as bitmasks over j.
    """
    P = np.asarray(points, dtype=np.int64)
    if P.ndim != 2 or P.shape[0] == 0:
        raise ValueError("need a nonempty (m, n) array of exponent rows")
    live = np.flatnonzero(P.max(axis=0))  # the other coordinates take no part
    if live.size == 0:
        return None
    caps = P[:, live].max(axis=0)
    radix, _ = exponent_code(caps, int(caps.max()))  # the maxima are the caps
    codes, first = np.unique(P[:, live] @ radix, return_index=True)
    A = P[first][:, live]
    m, k = A.shape
    bits = (1 << np.arange(k)).astype(np.min_scalar_type((1 << k) - 1))
    levels = np.arange(1, int(caps.max()) + 1)[:, None]
    U = ((A[:, None, :] >= levels) * bits).sum(axis=-1, dtype=bits.dtype)
    F = np.empty((m, k, levels.size), dtype=bits.dtype)
    for i in range(k):
        target = codes[:, None] - radix[i] + radix
        move = codes[np.minimum(np.searchsorted(codes, target), m - 1)] == target  # alpha itself at j = i
        height = A + 1 - (np.arange(k) == i)  # a move past cap_j needs beta_j > cap_j
        F[:, i] = ((move[:, None, :] & (height[:, None, :] == levels)) * bits).sum(axis=-1, dtype=bits.dtype)
    F[A == 0, 0] = bits.sum(dtype=bits.dtype)  # every beta meets it: no violation at i
    step = max(1, _EXCHANGE_BLOCK_PAIRS // m)
    for lo in range(0, m, step):
        block = F[lo : lo + step]
        bad = np.zeros((block.shape[0], m), dtype=bool)
        for i in range(k):
            met = U[:, 0] & block[:, i, :1]
            for t in range(1, levels.size):
                met |= U[:, t] & block[:, i, t : t + 1]
            bad |= met == 0
        if bad.any():
            a, b = divmod(int(np.argmax(bad)), m)
            i = next(i for i in range(k) if not (U[b] & block[a, i]).any())
            return tuple(P[first[lo + a]].tolist()), tuple(P[first[b]].tolist()), int(live[i])
    return None


@dataclass(frozen=True)
class StratumReport:
    """Support of a polynomial together with its exchange-check verdict:
    the support's labels (exponents, or subsets for a multiaffine
    polynomial) in code order, and the first violation of the exchange
    axiom on them, or None. A multiaffine violation is a basis-exchange
    witness (B1, B2, x) of subsets."""

    kind: str  # "matroid_bases" or "m_convex"
    support: tuple
    violation: tuple | None
    tol: float


def _subset(alpha) -> tuple:
    return tuple(i for i, a in enumerate(alpha) if a)


def support_stratum(f, tol: float = 1e-12) -> StratumReport:
    """The support of ``f`` at relative tolerance ``tol`` and the first
    violation of the exchange axiom on its exponent rows, from
    ``exchange_violation``. A coefficient below -tol times the largest is
    a domain error, and so is an empty support (the kernel's
    ``ValueError``)."""
    multiaffine = isinstance(f, MultiAffinePoly)
    size = np.abs(f.coeffs)
    cut = tol * float(size.max(initial=0.0))
    negative = np.flatnonzero(f.coeffs < -cut)
    if negative.size:
        k = int(negative[0])
        label = tuple(f._labels()[k].tolist())
        raise ValueError(f"negative coefficient {float(f.coeffs[k])} at {'subset' if multiaffine else 'exponent'} {label}")
    violation = exchange_violation(f.table.digits[size > cut])
    if violation is not None and multiaffine:
        violation = (_subset(violation[0]), _subset(violation[1]), violation[2])
    return StratumReport("matroid_bases" if multiaffine else "m_convex", f.support(tol), violation, tol)
