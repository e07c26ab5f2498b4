"""The one-at-a-time escape search, kept as the reference that
``lorentzflow.ballmap.escape_time`` must match bit for bit: one oracle
call per trial time, doubling and then bisecting in turn.

Run as a script it times both searches on polynomial files, the fastest
of three runs each, and checks that they agree:

    PYTHONPATH=src:tests python tests/escape_reference.py SPACE FILE...

with SPACE one of ``multiaffine-lorentzian``, ``capped-lorentzian`` or
``stable``. It prints one line per file and exits 1 on any difference.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

from lorentzflow.ballmap import (
    CENTER_EPS,
    EscapeNotBracketed,
    EscapeTimeResult,
    InfiniteEscape,
    MembershipOracle,
    _helmert,
)
from lorentzflow.sep import _MAX_EXPONENT, _centered, _flow_at, _resolve, centered_norm


def escape_time_reference(f, oracle: MembershipOracle, dec=None, s_max: float = 50.0, tol: float = 1e-8,
                          plan=None) -> EscapeTimeResult:
    """``escape_time`` with one ``oracle.is_member`` call per trial time."""
    if not tol > 0.0:
        raise ValueError(f"bisection width tol must be positive, got {tol}")
    if not s_max > 0.0:
        raise ValueError(f"backward time cap s_max must be positive, got {s_max}")
    f, dec = _resolve(f, dec, plan)
    if centered_norm(f, dec) < CENTER_EPS:
        raise InfiniteEscape("input is the flow's fixed point")
    if not oracle.is_member(f):
        raise ValueError("input is not a member of the oracle's space")
    rows = _flow_at(f, dec)
    at = lambda s: f._like(rows([s])[0])  # noqa: E731
    # keep the overflow guard of the backward flow out of reach
    gap_max = 1.0 - float(dec.eigenvalues[-1])
    s_cap = min(s_max, (_MAX_EXPONENT - 10.0) / gap_max)
    lo = 0.0
    hi = max(tol, 1e-3)
    while oracle.is_member(at(-hi)):
        lo = hi
        hi *= 2.0
        if hi > s_cap:
            raise EscapeNotBracketed(f"still a member after backward time {lo}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # tol is below the spacing of floats here
            break
        if oracle.is_member(at(-mid)):
            lo = mid
        else:
            hi = mid
    sigma = 0.5 * (lo + hi)
    anchor = at(-sigma)
    x = _helmert(_centered(anchor, dec), dec.weights)
    ball_point = math.exp(-sigma) * (x / float(np.linalg.norm(x)))
    ball_point.flags.writeable = False
    return EscapeTimeResult(sigma, anchor, ball_point, True, hi - lo)


def same_escape(got: EscapeTimeResult, want: EscapeTimeResult) -> bool:
    """sigma, anchor coefficients, ball point and bracket width, bit for bit."""
    return (
        got.sigma.hex() == want.sigma.hex()
        and got.anchor.coeffs.tobytes() == want.anchor.coeffs.tobytes()
        and got.ball_point.tobytes() == want.ball_point.tobytes()
        and got.bracket_width.hex() == want.bracket_width.hex()
    )


class CountedOracle(MembershipOracle):
    """An oracle that counts its ``is_member`` calls and the stacks its
    stacked membership settles."""

    def __init__(self, oracle: MembershipOracle):
        members = None if oracle.members is None else self._stack(oracle.members)
        super().__init__(oracle.space, oracle.certify, oracle.tol, members)
        object.__setattr__(self, "calls", 0)
        object.__setattr__(self, "stacks", [])

    def _stack(self, members):
        def counted(f, rows):
            self.stacks.append(len(rows))
            return members(f, rows)

        return counted

    def is_member(self, f) -> bool:
        object.__setattr__(self, "calls", self.calls + 1)
        return super().is_member(f)


def main(argv) -> int:
    from lorentzflow import ballmap
    from lorentzflow.io import load_poly
    from lorentzflow.poly import normalize_at_ones

    space, paths = argv[0], argv[1:]
    make = {
        "multiaffine-lorentzian": ballmap.multiaffine_lorentzian_oracle,
        "capped-lorentzian": ballmap.capped_lorentzian_oracle,
        "stable": ballmap.stable_oracle,
    }[space]
    status = 0
    for path in paths:
        f = normalize_at_ones(load_poly(path))
        if space != "multiaffine-lorentzian":
            f = f.to_hom()
        runs = {}
        for _ in range(3):  # the fastest of three, after the first has built the caches
            for name, search in (("stacked", ballmap.escape_time), ("reference", escape_time_reference)):
                oracle = CountedOracle(make())
                started = time.perf_counter()
                result = search(f, oracle)
                seconds = min(time.perf_counter() - started, runs.get(name, (None, math.inf))[1])
                runs[name] = (result, seconds, oracle.calls + len(oracle.stacks))
        same = same_escape(runs["stacked"][0], runs["reference"][0])
        status = status or int(not same)
        print(f"{path}: {'identical' if same else 'DIFFERENT'}; sigma {runs['stacked'][0].sigma!r}; "
              + "; ".join(f"{name} {seconds * 1e3:.1f} ms, {calls} oracle calls"
                          for name, (_, seconds, calls) in runs.items()))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
