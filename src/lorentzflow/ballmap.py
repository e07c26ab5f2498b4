"""Membership oracles and escape-time ball coordinates.

The backward flow leaves any of the certified spaces in finite time
(unless started at the flow's fixed point), because the forward flow maps
the whole space strictly into its interior. Bracketing and bisecting that
exit against a membership oracle gives an escape time; the boundary
anchor's direction, scaled by exp(-exit time), is a candidate ball
coordinate for the space. Directions are read in the Helmert frame of the
centered coefficient vector, a fixed orthonormal basis of the sum-zero
hyperplane, so they do not depend on which eigenvectors the eigensolver
returned inside a repeated eigenvalue.
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
from .poly import HomPoly, MultiAffinePoly
from .polarization import (
    PolarizationPlan,
    lifted_decomposition,
    polarize_up,
    project_down,
)
from .sep import SpectralDecomposition, centered_norm, flow

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
    ball coordinate (norm exp(-sigma), direction from the Helmert
    coordinates of the anchor's centered coefficients; for capped inputs,
    of the lifted anchor's)."""

    sigma: float
    anchor: object
    ball_point: np.ndarray
    converged: bool
    bracket_width: float


def _helmert(c: np.ndarray) -> np.ndarray:
    """Helmert coordinates h_k = (c_0+...+c_{k-1} - k c_k)/sqrt(k(k+1)),
    k = 1..N-1, of the centered vector: an isometry of the sum-zero
    hyperplane onto R^(N-1)."""
    c = c - c.mean()
    k = np.arange(1, c.size)
    return (np.cumsum(c)[:-1] - k * c[1:]) / np.sqrt(k * (k + 1.0))


def _make_stepper(f, dec: SpectralDecomposition, plan: PolarizationPlan | None):
    """Return (flow_by, centered, dec) adapted to the polynomial type:
    capped polynomials move through the lift, multiaffine ones directly."""
    if isinstance(f, HomPoly):
        if plan is None:
            plan = PolarizationPlan(f.n, f.d, f.kappa)
        if dec is None:
            dec = lifted_decomposition(plan.lifted_n, plan.d)

        def flow_by(g, s):
            return project_down(flow(polarize_up(g, plan), s, dec), plan)

        def centered(g):
            return polarize_up(g, plan)

        return flow_by, centered, dec
    if isinstance(f, MultiAffinePoly):
        if dec is None:
            raise ValueError("a spectral decomposition is required for multiaffine flows")

        def flow_by(g, s):
            return flow(g, s, dec)

        def centered(g):
            return g

        return flow_by, centered, dec
    raise TypeError(f"unsupported polynomial type {type(f)!r}")


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
    flow_by, centered, dec = _make_stepper(f, dec, plan)
    if centered_norm(centered(f), dec) < CENTER_EPS:
        raise InfiniteEscape("input is the flow's fixed point")
    if not oracle.is_member(f):
        raise ValueError("input is not a member of the oracle's space")
    # keep the overflow guard of the backward flow out of reach
    gap_max = 1.0 - float(dec.eigenvalues[-1])
    s_cap = min(s_max, 690.0 / gap_max)
    lo = 0.0
    hi = max(tol, 1e-3)
    while oracle.is_member(flow_by(f, -hi)):
        lo = hi
        hi *= 2.0
        if hi > s_cap:
            raise EscapeNotBracketed(f"still a member after backward time {lo}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if oracle.is_member(flow_by(f, -mid)):
            lo = mid
        else:
            hi = mid
    sigma = 0.5 * (lo + hi)
    anchor = flow_by(f, -sigma)
    x = _helmert(centered(anchor).coeffs)
    nrm = float(np.linalg.norm(x))
    direction = x / nrm
    ball_point = math.exp(-sigma) * direction
    ball_point.flags.writeable = False
    return EscapeTimeResult(sigma, anchor, ball_point, True, hi - lo)


def ball_coordinates(
    f,
    oracle: MembershipOracle,
    dec: SpectralDecomposition | None = None,
    s_max: float = 50.0,
    tol: float = 1e-8,
    plan: PolarizationPlan | None = None,
) -> np.ndarray:
    """Candidate ball coordinate of a member: zero at the fixed point,
    exp(-sigma) times the anchor direction elsewhere; unit norm exactly on
    the boundary."""
    _, centered, dec_resolved = _make_stepper(f, dec, plan)
    if centered_norm(centered(f), dec_resolved) < CENTER_EPS:
        return np.zeros(dec_resolved.size - 1)
    result = escape_time(f, oracle, dec_resolved, s_max=s_max, tol=tol, plan=plan)
    return result.ball_point


@dataclass(frozen=True)
class TrajectorySample:
    time: float
    poly: object
    centered_norm: float
    verdict: Verdict | None


def trajectory(f, dec, times, oracle: MembershipOracle | None = None, plan=None):
    """Flow snapshots at the given times: polynomial, centered norm, and
    (when an oracle is supplied) the certification verdict."""
    flow_by, centered, dec = _make_stepper(f, dec, plan)
    rows = []
    for t in times:
        g = flow_by(f, float(t))
        rows.append(
            TrajectorySample(
                float(t),
                g,
                centered_norm(centered(g), dec),
                oracle.certify(g) if oracle is not None else None,
            )
        )
    return rows
