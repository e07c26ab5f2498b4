"""Reference oracles for the batched certificate kernels.

These are the certificates as they ran one item at a time: the Lorentzian
certificate loops over the (d-2)-subsets, differentiates, builds each
Hessian with ``hessian_quadratic`` and eigensolves it alone; the stable
certificate loops over the seeded directions, restricts f by repeated
``np.convolve`` and classifies each line with its own Hankel matrix. The
batched package code must reproduce their verdicts and witnesses.
"""

import itertools

import numpy as np

from lorentzflow.certify import (
    DEFAULT_DIRECTIONS,
    DEFAULT_SEED,
    DEFAULT_TOL,
    RootClass,
    RootResult,
    Verdict,
    VerdictStatus,
)
from lorentzflow.poly import MultiAffinePoly, hessian_quadratic
from lorentzflow.strata import BasisFamily, is_matroid_bases

_DEGENERATE_LEAD = 1e-14

# signature classes of one Hessian
STRICT, AT_MOST_ONE_POSITIVE, FAIL = "strict", "at_most_one_positive", "fail"


def sample_sphere_reference(n, count, seed):
    """The seeded sum-zero sphere sampler, redrawn on every call."""
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
    return out


def restrict_line_reference(f, y):
    """Ascending coefficients of t -> f(t*ones - y), one convolution per
    factor (t - y_i) of every term."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(f.d + 1)
    if isinstance(f, MultiAffinePoly):
        terms = ((list(s), a) for s, a in zip(f.basis.subsets, f.coeffs) if a != 0.0)
    else:
        terms = (
            ([i for i, a in enumerate(alpha) for _ in range(a)], c)
            for alpha, c in f.terms.items()
        )
    for variables, a in terms:
        factor = np.array([a])
        for i in variables:
            factor = np.convolve(factor, [-y[i], 1.0])
        out[: factor.size] += factor
    return out


def _trim_trailing(coeffs):
    c = np.asarray(coeffs, dtype=float)
    if c.size == 0 or not np.any(c != 0.0):
        raise ValueError("zero polynomial")
    scale = float(np.max(np.abs(c)))
    dropped = False
    while c.size > 1 and abs(c[-1]) < _DEGENERATE_LEAD * scale:
        if c[-1] != 0.0:
            dropped = True
        c = c[:-1]
    return c, dropped


def hermite_matrix_reference(coeffs):
    """Hankel matrix of root power sums by the scalar Newton recurrences."""
    c, _ = _trim_trailing(coeffs)
    m = c.size - 1
    if m < 1:
        raise ValueError("need degree at least 1")
    monic = c / c[-1]
    s = np.empty(2 * m - 1)
    s[0] = float(m)
    for k in range(1, 2 * m - 1):
        acc = 0.0
        for i in range(1, min(k - 1, m) + 1):
            acc += monic[m - i] * s[k - i]
        if k <= m:
            acc += k * monic[m - k]
        s[k] = -acc
    return np.array([[s[i + j] for j in range(m)] for i in range(m)])


def real_rooted_reference(coeffs, tol=DEFAULT_TOL):
    c, dropped = _trim_trailing(coeffs)
    H = hermite_matrix_reference(c)
    w = np.linalg.eigvalsh(H)
    eff = tol * max(1.0, float(np.trace(H)))
    if w[0] > eff:
        return RootResult(RootClass.ALL_REAL_DISTINCT, dropped)
    if w[0] < -eff:
        return RootResult(RootClass.NOT_ALL_REAL, dropped)
    return RootResult(RootClass.ALL_REAL_WITH_TIES, dropped)


def lorentzian_signature_reference(H, tol=DEFAULT_TOL):
    w = np.linalg.eigvalsh(H)[::-1]
    eff = tol * max(1.0, float(np.sum(np.abs(w))))
    n_pos = int(np.count_nonzero(w > eff))
    if n_pos >= 2:
        return FAIL, w
    if n_pos == 1 and int(np.count_nonzero(w < -eff)) == w.size - 1:
        return STRICT, w
    return AT_MOST_ONE_POSITIVE, w


def certify_multiaffine_reference(f, tol=DEFAULT_TOL):
    """Per-subset Lorentzian certificate for a normalized multiaffine f."""
    n, d = f.n, f.d
    coeffs = f.coeffs
    worst = int(np.argmin(coeffs))
    if coeffs[worst] < -tol:
        return Verdict(
            VerdictStatus.REJECTED,
            {"kind": "negative_coefficient", "subset": list(f.basis.unrank(worst)),
             "value": float(coeffs[worst])},
            tol,
        )
    strict_coeffs = bool(np.all(coeffs > tol))
    all_strict = True
    if d >= 2:
        for s in itertools.combinations(range(n), d - 2):
            rest = [i for i in range(n) if i not in s]
            label, eigs = lorentzian_signature_reference(
                hessian_quadratic(f.derivative(s), rest), tol
            )
            if label is FAIL:
                return Verdict(
                    VerdictStatus.REJECTED,
                    {"kind": "hessian_signature", "subset": list(s),
                     "eigenvalues": [float(x) for x in eigs]},
                    tol,
                )
            all_strict = all_strict and label is STRICT
    if strict_coeffs and all_strict:
        return Verdict(VerdictStatus.STRICT_INTERIOR, None, tol)
    support = tuple(s for s, c in zip(f.basis.subsets, coeffs) if c > tol)
    if not support:
        return Verdict(VerdictStatus.REJECTED, {"kind": "empty_support"}, tol)
    check = is_matroid_bases(BasisFamily(n, d, support))
    if not check:
        b1, b2, x = check.witness
        return Verdict(
            VerdictStatus.REJECTED,
            {"kind": "support_exchange", "basis_one": list(b1), "basis_two": list(b2),
             "element": int(x)},
            tol,
        )
    return Verdict(VerdictStatus.BOUNDARY_WITHIN_TOL, None, tol)


def certify_stable_reference(f, directions=DEFAULT_DIRECTIONS, seed=DEFAULT_SEED, tol=DEFAULT_TOL):
    """Per-direction sampled stability certificate for a normalized f."""
    if isinstance(f, MultiAffinePoly):
        items = [(list(s), float(c)) for s, c in zip(f.basis.subsets, f.coeffs)]
    else:
        items = [(list(a), c) for a, c in sorted(f.terms.items())]
    for label, c in items:
        if c < -tol:
            return Verdict(
                VerdictStatus.REJECTED,
                {"kind": "negative_coefficient", "exponent": label, "value": c},
                tol,
            )
    strict_coeffs = all(c > tol for _, c in items)
    if f.n < 2 or f.d < 2:
        status = VerdictStatus.STRICT_INTERIOR if strict_coeffs else VerdictStatus.BOUNDARY_WITHIN_TOL
        return Verdict(status, None, tol)
    ties_seen = False
    for y in sample_sphere_reference(f.n, directions, seed):
        line = restrict_line_reference(f, y)
        kind = real_rooted_reference(line, tol).kind
        if kind is RootClass.NOT_ALL_REAL:
            return Verdict(
                VerdictStatus.REJECTED,
                {"kind": "direction", "direction": [float(v) for v in y],
                 "line_coefficients": [float(v) for v in line]},
                tol,
            )
        ties_seen = ties_seen or kind is RootClass.ALL_REAL_WITH_TIES
    if strict_coeffs and not ties_seen:
        return Verdict(VerdictStatus.STRICT_INTERIOR, None, tol)
    return Verdict(VerdictStatus.BOUNDARY_WITHIN_TOL, None, tol)

