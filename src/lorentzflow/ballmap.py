"""Membership oracles and escape-time ball coordinates.

The backward flow leaves any of the certified spaces in finite time
(unless started at the flow's fixed point), because the forward flow maps
the whole space strictly into its interior. Bracketing and bisecting that
exit against a membership oracle gives an escape time; the boundary
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
C(sum(kappa), d) - 1 coordinates.
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
    certify_hom,
    certify_multiaffine,
    certify_stable,
)
from .poly import HomPoly
from .polarization import PolarizationPlan, _on_chain
from .sep import SpectralDecomposition, _centered, _flow_at, centered_norm

# centered norms below this are treated as the flow's fixed point
CENTER_EPS = 1e-10


class InfiniteEscape(Exception):
    """The input is the flow's fixed point; the backward flow never exits."""


class EscapeNotBracketed(Exception):
    """No exit found within the allowed backward time."""


@dataclass(frozen=True)
class MembershipOracle:
    """A certified space: a tag, a function from polynomial to Verdict,
    and the tolerance the certificates run at. Membership means any
    verdict other than Rejected."""

    space: str
    certify: Callable[[object], Verdict]
    tol: float

    def is_member(self, f) -> bool:
        return self.certify(f).is_member


def multiaffine_lorentzian_oracle(tol: float = DEFAULT_TOL) -> MembershipOracle:
    return MembershipOracle(
        "multiaffine-lorentzian", lambda f: certify_multiaffine(f, tol), tol
    )


def capped_lorentzian_oracle(tol: float = DEFAULT_TOL) -> MembershipOracle:
    return MembershipOracle("capped-lorentzian", lambda f: certify_hom(f, tol), tol)


def stable_oracle(
    directions: int = DEFAULT_DIRECTIONS,
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_TOL,
) -> MembershipOracle:
    return MembershipOracle(
        "stable", lambda f: certify_stable(f, directions, seed, tol), tol
    )


@dataclass(frozen=True)
class EscapeTimeResult:
    """Backward exit time, the polynomial at the crossing, and the derived
    ball coordinate: norm exp(-sigma), direction from the weighted Helmert
    coordinates of the anchor's centered c / w, one per coefficient less
    one (for capped inputs, per composition alpha <= kappa less one)."""

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


def _decomposition(f, dec: SpectralDecomposition | None, plan: PolarizationPlan | None):
    """f and the decomposition its flow runs on: ``dec`` for a multiaffine
    polynomial that comes with one, else the composition chain keyed by
    f's (d, kappa) (a lifted ``dec`` of a capped polynomial is only
    checked, see ``polarized_flow``)."""
    if dec is not None and not isinstance(f, HomPoly):
        return f, dec
    return _on_chain(f, plan, dec)


def escape_time(
    f,
    oracle: MembershipOracle,
    dec: SpectralDecomposition | None = None,
    s_max: float = 50.0,
    tol: float = 1e-8,
    plan: PolarizationPlan | None = None,
) -> EscapeTimeResult:
    """Locate the backward-flow exit from the oracle's space.

    Doubles a backward-time bracket until membership fails, then bisects
    to width ``tol``. The reported time inherits the oracle's tolerance on
    top of the bracket width. Raises InfiniteEscape at the fixed point and
    EscapeNotBracketed when no exit occurs before ``s_max``.
    """
    f, dec = _decomposition(f, dec, plan)
    if centered_norm(f, dec) < CENTER_EPS:
        raise InfiniteEscape("input is the flow's fixed point")
    if not oracle.is_member(f):
        raise ValueError("input is not a member of the oracle's space")
    at = _flow_at(f, dec)  # every trial time reuses f's eigenspace parts
    # keep the overflow guard of the backward flow out of reach
    gap_max = 1.0 - float(dec.eigenvalues[-1])
    s_cap = min(s_max, 690.0 / gap_max)
    lo = 0.0
    hi = max(tol, 1e-3)
    while oracle.is_member(at(-hi)):
        lo = hi
        hi *= 2.0
        if hi > s_cap:
            raise EscapeNotBracketed(f"still a member after backward time {lo}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if oracle.is_member(at(-mid)):
            lo = mid
        else:
            hi = mid
    sigma = 0.5 * (lo + hi)
    anchor = at(-sigma)
    x = _helmert(_centered(anchor, dec), dec.weights)
    nrm = float(np.linalg.norm(x))
    direction = x / nrm
    ball_point = math.exp(-sigma) * direction
    ball_point.flags.writeable = False
    return EscapeTimeResult(sigma, anchor, ball_point, True, hi - lo)


@dataclass(frozen=True)
class TrajectorySample:
    time: float
    poly: object
    centered_norm: float
    verdict: Verdict | None


def trajectory(f, dec, times, oracle: MembershipOracle | None = None, plan=None):
    """Flow snapshots at the given times: polynomial, centered norm, and
    (when an oracle is supplied) the certification verdict."""
    f, dec = _decomposition(f, dec, plan)
    at = _flow_at(f, dec)
    rows = []
    for t in times:
        g = at(float(t))
        rows.append(
            TrajectorySample(
                float(t),
                g,
                centered_norm(g, dec),
                oracle.certify(g) if oracle is not None else None,
            )
        )
    return rows
