"""Command-line surface.

Exit codes follow a pipeline-friendly contract: 0 means the computation
ran (whatever it concluded), 2 means a certification subcommand concluded
Rejected, and 1 means the computation itself failed (bad input, schema
violation, domain error).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import ballmap as bm
from . import io as pio
from . import samples as smp
from .certify import (
    DEFAULT_DIRECTIONS,
    DEFAULT_SEED,
    DEFAULT_TOL,
    VerdictStatus,
    certify_hom,
    certify_multiaffine,
    certify_stable,
)
from .poly import HomPoly, MultiAffinePoly, normalize_at_ones, subset_basis
from .polarization import PolarizationPlan, polarize_up, polarized_flow, project_down
from .sep import TranspositionRates, spectral, uniform_rates
from .strata import support_stratum


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; reserve 2 for
    Rejected verdicts and use 1 for every failure instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _emit(text: str, path) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_times(raw: str):
    try:
        return [float(t) for t in raw.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad --times value {raw!r}: {exc}") from exc


def _parse_kappa(raw: str):
    try:
        return tuple(int(k) for k in raw.split(",") if k.strip() != "")
    except ValueError as exc:
        raise ValueError(f"bad --kappa value {raw!r}: {exc}") from exc


def _load_rates(args, n: int) -> TranspositionRates:
    if args.rates_file:
        with open(args.rates_file, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        try:
            file_n = int(obj["n"])
            pairs = {(int(r["i"]), int(r["j"])): float(r["q"]) for r in obj["rates"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad rates file: {exc}") from exc
        if file_n != n:
            raise ValueError(f"rates file is for n={file_n}, polynomial has n={n}")
        return TranspositionRates(n, pairs)
    return uniform_rates(n)


def _announce_seed(seed: int) -> None:
    print(f"seed: {seed}", file=sys.stderr)


def cmd_certify(args) -> int:
    f = normalize_at_ones(pio.load_poly(args.input))
    if args.mode == "stable":
        _announce_seed(args.seed)
        verdict = certify_stable(f, args.directions, args.seed, args.tol)
    elif isinstance(f, MultiAffinePoly):
        verdict = certify_multiaffine(f, args.tol)
    else:
        verdict = certify_hom(f, args.tol)
    obj = pio.verdict_to_obj(verdict)
    obj["mode"] = args.mode
    _emit(pio.dumps(obj), args.output)
    return 2 if verdict.status is VerdictStatus.REJECTED else 0


def cmd_flow(args) -> int:
    f = normalize_at_ones(pio.load_poly(args.input))
    if args.polarized:
        if args.rates_file:
            raise ValueError("--polarized flows use uniform rates on the lifted variables")
        f = f.to_hom()
        oracle = (
            bm.stable_oracle(args.directions, args.seed, args.tol)
            if args.oracle == "stable"
            else bm.capped_lorentzian_oracle(args.tol)
        )
        # capped columns go in lexicographic order of the exponents
        order = np.lexsort(f.table.digits.T[::-1])
    else:
        if not isinstance(f, MultiAffinePoly):
            raise ValueError("input is not multiaffine; use --polarized for capped flows")
        oracle = bm.multiaffine_lorentzian_oracle(args.tol)
        order = slice(None)
    # under uniform rates the trajectory runs on the composition chain of f's (d, kappa)
    dec = spectral(f.basis, _load_rates(args, f.n)) if args.rates_file else None
    labels = ["_".join(map(str, alpha)) for alpha in f.table.digits[order].tolist()]
    lines = ["time," + ",".join(f"c_{l}" for l in labels) + ",centered_norm,verdict"]
    for sample in bm.trajectory(f, dec, _parse_times(args.times), oracle):
        row = [sample.time] + sample.poly.coeffs[order].tolist() + [sample.centered_norm]
        lines.append(",".join(map(_fmt, row)) + "," + sample.verdict.status.value)
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_spectrum(args) -> int:
    dec = spectral(subset_basis(args.n, args.d), _load_rates(args, args.n))
    obj = {
        "n": args.n,
        "d": args.d,
        "basis_size": dec.size,
        "eigenvalues": [float(v) for v in dec.eigenvalues],
        "spectral_gap": dec.spectral_gap,
        "lambda_min": float(dec.eigenvalues[-1]),
    }
    _emit(pio.dumps(obj), args.output)
    return 0


def cmd_polarize(args) -> int:
    f = pio.load_poly(args.input)
    if args.direction == "up":
        if args.kappa:
            f = HomPoly(f.n, f.d, _parse_kappa(args.kappa), f.terms)
        out = polarize_up(f)
    else:
        if not isinstance(f, MultiAffinePoly):
            raise ValueError("projecting down expects a multiaffine input")
        if not args.kappa:
            raise ValueError("projecting down needs --kappa to define the blocks")
        kappa = _parse_kappa(args.kappa)
        if sum(kappa) != f.n:
            raise ValueError(f"caps {kappa} sum to {sum(kappa)}, input has {f.n} variables")
        out = project_down(f, PolarizationPlan(len(kappa), f.d, kappa))
    _emit(pio.dumps(pio.poly_to_obj(out)), args.output)
    return 0


def cmd_ballmap(args) -> int:
    f = normalize_at_ones(pio.load_poly(args.input))
    if args.space == "multiaffine-lorentzian":
        if not isinstance(f, MultiAffinePoly):
            raise ValueError("this space expects a multiaffine input")
        oracle = bm.multiaffine_lorentzian_oracle(args.tol)
    else:
        f = f.to_hom()
        if args.space == "stable":
            _announce_seed(args.seed)
            oracle = bm.stable_oracle(args.directions, args.seed, args.tol)
        else:
            oracle = bm.capped_lorentzian_oracle(args.tol)
    try:
        result = bm.escape_time(f, oracle, s_max=args.s_max, tol=args.bisect_tol)
    except bm.InfiniteEscape:
        _emit(pio.dumps({"infinite_escape": True, "space": args.space}), args.output)
        return 0
    except bm.EscapeNotBracketed as exc:
        _emit(
            pio.dumps({"not_bracketed": True, "space": args.space, "detail": str(exc)}),
            args.output,
        )
        return 0
    obj = {
        "space": args.space,
        "sigma": result.sigma,
        "anchor": pio.poly_to_obj(result.anchor),
        "ball_point": [float(v) for v in result.ball_point],
        "norm": float(np.linalg.norm(result.ball_point)),
        "converged": result.converged,
        "bracket_width": result.bracket_width,
    }
    _emit(pio.dumps(obj), args.output)
    return 0


def cmd_strata(args) -> int:
    f = pio.load_poly(args.input)
    report = support_stratum(f, args.tol)
    _emit(pio.dumps(pio.stratum_report_to_obj(report)), args.output)
    return 0


def cmd_sample(args) -> int:
    _announce_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    names = []
    for k in range(args.count):
        if args.kind == "multiaffine":
            g = smp.random_disjoint_form_product(subset_basis(args.n, args.d), rng)
        else:
            g = smp.random_form_product(args.n, args.d, rng)
        if args.interior > 0.0:
            g = polarized_flow(g, args.interior)
        check = certify_stable(g)
        if check.status is VerdictStatus.REJECTED:
            raise RuntimeError("generated sample failed its stability certificate")
        name = f"sample_{k:03d}.json"
        pio.save_poly(g, f"{args.output_dir}/{name}")
        names.append({"file": name, "status": check.status.value})
    _emit(pio.dumps({"seed": args.seed, "samples": names}), None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lorentzflow")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_io(p):
        p.add_argument("--input", required=True, help="polynomial JSON file")
        p.add_argument("--output", default=None, help="write result here instead of stdout")

    p = sub.add_parser("certify", help="membership certificates")
    common_io(p)
    p.add_argument("--mode", choices=["lorentzian", "stable"], default="lorentzian")
    p.add_argument("--directions", type=int, default=DEFAULT_DIRECTIONS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("flow", help="flow trajectories as CSV")
    common_io(p)
    p.add_argument("--times", required=True, help="comma-separated list of times")
    p.add_argument("--rates-file", default=None, help="JSON file with explicit pair rates")
    p.add_argument("--polarized", action="store_true", help="flow a capped polynomial on its composition chain")
    p.add_argument("--oracle", choices=["lorentzian", "stable"], default="lorentzian")
    p.add_argument("--directions", type=int, default=DEFAULT_DIRECTIONS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("spectrum", help="generator eigenvalues and spectral gap")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--rates-file", default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("polarize", help="lift to multiaffine or project back")
    common_io(p)
    p.add_argument("--direction", choices=["up", "down"], required=True)
    p.add_argument("--kappa", default=None, help="comma-separated per-variable caps")
    p.set_defaults(fn=cmd_polarize)

    p = sub.add_parser("ballmap", help="escape time and ball coordinates")
    common_io(p)
    p.add_argument(
        "--space",
        choices=["multiaffine-lorentzian", "capped-lorentzian", "stable"],
        default="multiaffine-lorentzian",
    )
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--s-max", type=float, default=50.0)
    p.add_argument("--bisect-tol", type=float, default=1e-8)
    p.add_argument("--directions", type=int, default=DEFAULT_DIRECTIONS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=cmd_ballmap)

    p = sub.add_parser("strata", help="support stratum report")
    common_io(p)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(fn=cmd_strata)

    p = sub.add_parser("sample", help="seeded random member polynomials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--kind", choices=["product", "multiaffine"], default="product")
    p.add_argument("--interior", type=float, default=0.0, help="flow depth to move samples inside")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(fn=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError, RuntimeError, json.JSONDecodeError) as exc:
        print(f"lorentzflow: error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
