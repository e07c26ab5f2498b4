"""The frozenset-backed wrappers that once carried support sets to the
exchange kernel, kept as test oracles: ``is_matroid_bases`` and
``is_m_convex`` run ``strata.exchange_violation`` on a ``BasisFamily`` or
an ``MConvexCandidate`` and wrap its first violation in an
``ExchangeResult``. ``strata.support_stratum`` passes its exponent rows
to the kernel directly and must give the same witness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lorentzflow.strata import exchange_violation


@dataclass(frozen=True)
class ExchangeResult:
    """Outcome of an exchange-axiom check; carries a witness on failure."""

    ok: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


class MConvexCandidate:
    """A set of exponent vectors on the discrete simplex (entries
    nonnegative integers, each summing to d)."""

    __slots__ = ("n", "d", "points")

    def __init__(self, n: int, d: int, points):
        pts = set()
        for alpha in points:
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != n or any(a < 0 for a in alpha):
                raise ValueError(f"bad exponent vector {alpha}")
            if sum(alpha) != d:
                raise ValueError(f"exponent {alpha} does not sum to {d}")
            pts.add(alpha)
        self.n = n
        self.d = d
        self.points = frozenset(pts)

    def __repr__(self):
        return f"MConvexCandidate(n={self.n}, d={self.d}, size={len(self.points)})"


class BasisFamily:
    """A family of d-element subsets of {0, ..., n-1}."""

    __slots__ = ("n", "d", "bases")

    def __init__(self, n: int, d: int, bases):
        fam = set()
        for b in bases:
            b = tuple(sorted(set(b)))
            if len(b) != d or any(i < 0 or i >= n for i in b):
                raise ValueError(f"{b} is not a {d}-subset of 0..{n - 1}")
            fam.add(b)
        self.n = n
        self.d = d
        self.bases = frozenset(fam)

    def __repr__(self):
        return f"BasisFamily(n={self.n}, d={self.d}, size={len(self.bases)})"


def _result(violation, member=tuple) -> ExchangeResult:
    if violation is None:
        return ExchangeResult(True)
    return ExchangeResult(False, (member(violation[0]), member(violation[1]), violation[2]))


def is_m_convex(candidate: MConvexCandidate) -> ExchangeResult:
    """The exchange axiom on exponent vectors (``exchange_violation``)."""
    return _result(exchange_violation(np.array(list(candidate.points)).reshape(-1, candidate.n)))


def is_matroid_bases(family: BasisFamily) -> ExchangeResult:
    """Basis exchange: for B1, B2 in the family and every x in B1 - B2
    some y in B2 - B1 has (B1 - {x}) + {y} in the family. This is the
    exchange axiom on 0/1 exponents; the witness is its first (B1, B2, x)."""
    rows = np.array([[int(i in b) for i in range(family.n)] for b in family.bases]).reshape(-1, family.n)
    return _result(exchange_violation(rows), lambda alpha: tuple(i for i, a in enumerate(alpha) if a))
