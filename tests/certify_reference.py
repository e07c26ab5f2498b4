"""Reference oracles for the batched certificate kernels.

These are the certificates as they ran one item at a time: the Lorentzian
certificate loops over the (d-2)-subsets, differentiates, builds each
Hessian with ``hessian_quadratic`` and eigensolves it alone, and checks
basis exchange pair by pair; the stable certificate loops over the seeded
directions, restricts f by repeated ``np.convolve`` and classifies each
line with its own Hankel matrix. The batched package code must reproduce
their verdicts and witnesses. The two pair loops of the exchange axiom,
``is_m_convex_reference`` and ``is_matroid_bases_reference``, are the
oracle of the vectorized ``strata.exchange_violation``; they walk alpha,
then beta, in colex order, then i ascending, the kernel's documented
order, so their first violation is the kernel's witness.

Also here: the enumeration of capped compositions that the tests sweep,
and ``real_rooted``, the one-row form of the stable certificate's root
classifier ``certify._root_classes``, with its ``RootClass`` and
``RootResult``.
"""

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from lorentzflow.certify import (
    DEFAULT_DIRECTIONS,
    DEFAULT_SEED,
    DEFAULT_TOL,
    Verdict,
    VerdictStatus,
    _root_classes,
    _trim_rows,
)
from lorentzflow.poly import HomPoly, MultiAffinePoly
from strata_wrappers import BasisFamily, ExchangeResult

_DEGENERATE_LEAD = 1e-14

# signature classes of one Hessian
STRICT, AT_MOST_ONE_POSITIVE, FAIL = "strict", "at_most_one_positive", "fail"


class RootClass(enum.Enum):
    ALL_REAL_DISTINCT = "all_real_distinct"
    ALL_REAL_WITH_TIES = "all_real_with_ties"
    NOT_ALL_REAL = "not_all_real"


@dataclass(frozen=True)
class RootResult:
    kind: RootClass
    degree_dropped: bool = False


# root classes by the codes that _root_classes returns
_ROOT_CLASSES = (RootClass.ALL_REAL_DISTINCT, RootClass.ALL_REAL_WITH_TIES, RootClass.NOT_ALL_REAL)


def real_rooted(coeffs, tol: float = DEFAULT_TOL) -> RootResult:
    """Classify a univariate polynomial's roots through the power-sum
    Hankel matrix, with the tolerance scaled by its trace. A nonzero
    coefficient past the degree that ``_trim_rows`` keeps is a degree
    drop."""
    row = np.asarray(coeffs, dtype=float).reshape(1, -1)
    deg = _trim_rows(row)[0]
    return RootResult(_ROOT_CLASSES[_root_classes(row, tol)[0]], bool(np.any(row[0, deg + 1 :] != 0)))


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


def lorentzian_signature_reference(H, tol=DEFAULT_TOL):
    w = np.linalg.eigvalsh(H)[::-1]
    eff = tol * max(1.0, float(np.sum(np.abs(w))))
    n_pos = int(np.count_nonzero(w > eff))
    if n_pos >= 2:
        return FAIL, w
    if n_pos == 1 and int(np.count_nonzero(w < -eff)) == w.size - 1:
        return STRICT, w
    return AT_MOST_ONE_POSITIVE, w


def _colex(points):
    """Points in colex order: the last coordinate is the most significant."""
    return sorted(points, key=lambda p: p[::-1])


def is_m_convex_reference(candidate):
    """Exchange check on exponent vectors: for alpha, beta in the set and
    every i with alpha_i > beta_i there must be j with alpha_j < beta_j
    such that alpha - e_i + e_j stays in the set. The witness on failure
    is the first violating (alpha, beta, i), alpha and beta in colex
    order, then i ascending."""
    pts = candidate.points
    if not pts:
        raise ValueError("empty point set")
    for alpha in _colex(pts):
        for beta in _colex(pts):
            for i in range(candidate.n):
                if alpha[i] <= beta[i]:
                    continue
                found = False
                for j in range(candidate.n):
                    if alpha[j] < beta[j]:
                        moved = list(alpha)
                        moved[i] -= 1
                        moved[j] += 1
                        if tuple(moved) in pts:
                            found = True
                            break
                if not found:
                    return ExchangeResult(False, (alpha, beta, i))
    return ExchangeResult(True)


def is_matroid_bases_reference(family):
    """Basis exchange: for B1, B2 in the family and every x in B1 - B2
    there must be y in B2 - B1 with (B1 - {x}) + {y} in the family.
    The witness on failure is the first violating (B1, B2, x), B1 and B2
    in colex order, then x ascending."""
    bases = family.bases
    if not bases:
        raise ValueError("empty basis family")
    for b1 in _colex(bases):
        s1 = set(b1)
        for b2 in _colex(bases):
            s2 = set(b2)
            for x in sorted(s1 - s2):
                rest = s1 - {x}
                if not any(tuple(sorted(rest | {y})) in bases for y in s2 - s1):
                    return ExchangeResult(False, (b1, b2, x))
    return ExchangeResult(True)


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
    check = is_matroid_bases_reference(BasisFamily(n, d, support))
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
    """Per-direction sampled stability certificate for a normalized f.
    Every exponent alpha <= kappa of degree d counts as a coefficient,
    stored or not."""
    if isinstance(f, MultiAffinePoly):
        items = [([int(i in s) for i in range(f.n)], float(c)) for s, c in zip(f.basis.subsets, f.coeffs)]
    else:
        items = [(list(a), f.coefficient(a)) for a in sorted(compositions(f.d, f.n, caps=f.kappa))]
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

