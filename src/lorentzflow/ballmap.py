"""Membership oracles and escape-time ball coordinates.

The backward flow leaves any of the certified spaces in finite time
(unless started at the flow's fixed point), because the forward flow maps
the whole space strictly into its interior. Bracketing and bisecting that
exit against a membership oracle, which tests stacks of trial times at
once, gives an escape time; the boundary
anchor's direction, scaled by exp(-exit time), is a candidate ball
coordinate for the space. Directions are read in the weighted Helmert
frame of the flow's centered coordinates c / w, with w the weights of the
flow's ``SpectralDecomposition``: a fixed orthonormal basis of the
complement of w, which needs no eigenvector. A ball point has one
coordinate fewer than the polynomial has coefficients. Multiaffine inputs
have w = 1, the Helmert frame of the centered coefficient vector. Capped
inputs flow and are framed on their composition chain, with no lift: on
block-symmetric vectors the lift's inner product is the Euclidean one of
c / w, so the lifted frame would give the same norms and distances in
C(sum(kappa), d) - 1 coordinates. No flow is built or picked here: every
input flows on the decomposition that ``sep._resolve`` picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .certify import (
    DEFAULT_DIRECTIONS,
    DEFAULT_SEED,
    DEFAULT_TOL,
    Verdict,
    _check_sampling,
    _check_tol,
    _lorentzian_members,
    _stable_members,
    certify_hom,
    certify_multiaffine,
    certify_stable,
)
from .sep import _MAX_EXPONENT, SpectralDecomposition, _centered, _flow_at, _resolve, centered_norm

# centered norms below this are treated as the flow's fixed point
CENTER_EPS = 1e-10
# trial times per stacked membership call: a run of this many doublings,
# and the midpoints of a bisection subtree this many levels deep (on the
# benchmark's seed-7 escapes, in one process with one BLAS thread on a
# 2-core machine, depths 1, 2 and 3 ran 1.29x, 1.38x and 1.24x as fast
# as one trial at a time)
_DOUBLINGS = 8
_SUBTREE_DEPTH = 2


class InfiniteEscape(Exception):
    """The input is the flow's fixed point; the backward flow never exits."""


class EscapeNotBracketed(Exception):
    """No exit found within the allowed backward time."""


@dataclass(frozen=True)
class MembershipOracle:
    """A certified space: a tag, a function from polynomial to Verdict,
    and the tolerance the certificates run at, refused outside [0, inf).
    Membership means any verdict other than Rejected.

    ``members``, when given, is the stacked membership of the factory
    oracles: from a polynomial f and rows of coefficients (R, N) in f's
    layout to a list with one entry per row, the ``is_member`` of the
    polynomial on that row, a function of no arguments that returns it,
    or the ValueError its certificate refuses it with. It raises
    ValueError or RuntimeError when a stacked kernel fails, and the
    escape search then tests each row alone. The Lorentzian oracles run
    every row's Hessians through one scan, each matrix proved strict on
    its own, and leave a row's exchange check until it is read; the
    stable oracle restricts every row along a block of directions at once
    and classifies every row's lines at once. Without it a stack takes
    one ``certify`` call per row."""

    space: str
    certify: Callable[[object], Verdict]
    tol: float
    members: Callable[[object, np.ndarray], list] | None = None

    def __post_init__(self):
        _check_tol(self.tol)

    def is_member(self, f) -> bool:
        return self.certify(f).is_member


def multiaffine_lorentzian_oracle(tol: float = DEFAULT_TOL) -> MembershipOracle:
    return MembershipOracle(
        "multiaffine-lorentzian", lambda f: certify_multiaffine(f, tol), tol,
        lambda f, rows: _lorentzian_members(f, rows, tol),
    )


def capped_lorentzian_oracle(tol: float = DEFAULT_TOL) -> MembershipOracle:
    return MembershipOracle(
        "capped-lorentzian", lambda f: certify_hom(f, tol), tol, lambda f, rows: _lorentzian_members(f, rows, tol)
    )


def stable_oracle(
    directions: int = DEFAULT_DIRECTIONS,
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_TOL,
) -> MembershipOracle:
    _check_sampling(directions, seed)
    return MembershipOracle(
        "stable", lambda f: certify_stable(f, directions, seed, tol), tol,
        lambda f, rows: _stable_members(f, rows, directions, seed, tol),
    )


@dataclass(frozen=True)
class EscapeTimeResult:
    """Backward exit time, the polynomial at the crossing, and the derived
    ball coordinate: norm exp(-sigma), direction from the weighted Helmert
    coordinates of the anchor's centered c / w, one per coefficient less
    one (for capped inputs, per composition alpha <= kappa less one).
    ``converged`` is always True: a search that does not converge raises
    EscapeNotBracketed."""

    sigma: float
    anchor: object
    ball_point: np.ndarray
    converged: bool
    bracket_width: float


def _helmert(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Weighted Helmert coordinates (Lancaster 1965) of a vector x
    orthogonal to the weights u: h_k = (u_k sum_{i<k} u_i x_i - S_{k-1} x_k)
    / sqrt(S_{k-1} S_k), k = 1..N-1, with S_k = sum_{i<=k} u_i^2, an
    isometry of u's orthogonal complement onto R^(N-1). At u = 1 it is
    (x_0+...+x_{k-1} - k x_k) / sqrt(k(k+1))."""
    S = np.cumsum(u * u)
    return (u[1:] * np.cumsum(u * x)[:-1] - S[:-1] * x[1:]) / np.sqrt(S[:-1] * S[1:])


def _memberships(oracle: MembershipOracle, f, rows: np.ndarray) -> list:
    """Per row of coefficients in f's layout: its membership, a function
    that computes it, or the exception that testing it alone raises, each
    for ``_read`` to settle if the search reads that row. One ``members``
    call settles a finite stack; a stack it cannot settle, or an oracle
    without it, goes one row at a time."""
    if oracle.members is not None and np.isfinite(rows).all():
        try:
            return oracle.members(f, rows)
        except (ValueError, RuntimeError):
            pass  # some row raises alone: find which
    out = []
    for row in rows:
        try:
            out.append(oracle.is_member(f._like(row)))
        except Exception as exc:  # raised only if the search reads this row
            out.append(exc)
    return out


def _read(member) -> bool:
    """A membership as the search reads it: raise a held exception, run
    a deferred check."""
    if isinstance(member, Exception):
        raise member
    return member() if callable(member) else member


def _bisection_point(lo: float, hi: float, tol: float) -> float | None:
    """The bisection's next trial time in the bracket (lo, hi): None once
    the bracket is at most tol wide or its midpoint is not strictly
    inside, because tol is below the spacing of floats there."""
    mid = 0.5 * (lo + hi)
    return mid if hi - lo > tol and lo < mid < hi else None


def _midpoints(lo: float, hi: float, tol: float, depth: int) -> list:
    """Every trial time the bisection may test in its next ``depth``
    steps from the bracket (lo, hi)."""
    mid = _bisection_point(lo, hi, tol)
    if depth == 0 or mid is None:
        return []
    return [mid, *_midpoints(lo, mid, tol, depth - 1), *_midpoints(mid, hi, tol, depth - 1)]


def escape_time(
    f,
    oracle: MembershipOracle,
    dec: SpectralDecomposition | None = None,
    s_max: float = 50.0,
    tol: float = 1e-8,
    plan=None,
) -> EscapeTimeResult:
    """Locate the backward-flow exit from the oracle's space.

    Doubles a backward-time bracket until membership fails, then bisects
    to width ``tol``, which must be positive, or until its ends are
    adjacent floats. The reported time inherits the oracle's tolerance on
    top of the bracket width. Raises InfiniteEscape at the fixed point and
    EscapeNotBracketed when no exit occurs before ``s_max``, which must be
    positive. f flows on the decomposition that ``sep._resolve`` picks.

    Trial times go to the oracle in stacks: a run of up to ``_DOUBLINGS``
    doublings, never past the cap, and the midpoints of a bisection
    subtree ``_SUBTREE_DEPTH`` levels deep. The search then replays the
    one-at-a-time rule on them (member: the bracket's lower end moves up;
    else its upper end moves down), so sigma, the anchor and the bracket
    are that search's bit for bit, even where membership is not monotone
    in time. A trial the replay never reads changes nothing, not even by
    raising.
    """
    if not tol > 0.0:
        raise ValueError(f"bisection width tol must be positive, got {tol}")
    if not s_max > 0.0:
        raise ValueError(f"backward time cap s_max must be positive, got {s_max}")
    f, dec = _resolve(f, dec, plan)
    if centered_norm(f, dec) < CENTER_EPS:
        raise InfiniteEscape("input is the flow's fixed point")
    if not oracle.is_member(f):
        raise ValueError("input is not a member of the oracle's space")
    rows = _flow_at(f, dec)  # every trial time reuses f's eigenspace parts
    members = lambda times: _memberships(oracle, f, rows([-t for t in times]))
    # keep the overflow guard of the backward flow out of reach
    gap_max = 1.0 - float(dec.eigenvalues[-1])
    s_cap = min(s_max, (_MAX_EXPONENT - 10.0) / gap_max)
    lo = 0.0
    hi = max(tol, 1e-3)
    exited = False
    while not exited:
        run = [hi]
        while len(run) < _DOUBLINGS and run[-1] * 2.0 <= s_cap:
            run.append(run[-1] * 2.0)
        for member in members(run):
            exited = not _read(member)
            if exited:
                break
            lo = hi
            hi *= 2.0
            if hi > s_cap:
                raise EscapeNotBracketed(f"still a member after backward time {lo}")
    while mids := _midpoints(lo, hi, tol, _SUBTREE_DEPTH):
        found = dict(zip(mids, members(mids)))
        for _ in range(_SUBTREE_DEPTH):
            mid = _bisection_point(lo, hi, tol)
            if mid is None:
                break
            if _read(found[mid]):
                lo = mid
            else:
                hi = mid
    sigma = 0.5 * (lo + hi)
    anchor = f._like(rows([-sigma])[0])
    x = _helmert(_centered(anchor, dec), dec.weights)
    ball_point = math.exp(-sigma) * (x / float(np.linalg.norm(x)))
    ball_point.flags.writeable = False
    return EscapeTimeResult(sigma, anchor, ball_point, True, hi - lo)


@dataclass(frozen=True)
class TrajectorySample:
    time: float
    poly: object
    centered_norm: float
    verdict: Verdict | None


def trajectory(f, dec, times, oracle: MembershipOracle | None = None):
    """Flow snapshots at the given times, on the decomposition that
    ``sep._resolve`` picks: polynomial, centered norm, and (when an oracle
    is supplied) the certification verdict."""
    f, dec = _resolve(f, dec)
    times = [float(t) for t in times]
    samples = []
    for t, row in zip(times, _flow_at(f, dec)(times)):
        g = f._like(row)
        samples.append(TrajectorySample(t, g, centered_norm(g, dec), oracle.certify(g) if oracle is not None else None))
    return samples
