"""JSON interchange for polynomials and verdicts.

Schema (shared by every subcommand):

    {"n": int, "d": int, "kappa": [int, ...] (optional),
     "terms": [{"exponent": [int, ...], "coeff": float}, ...]}

A file without "kappa" whose exponents are all 0/1 parses as a
multiaffine polynomial; anything else parses as a capped polynomial, with
missing caps inferred from the largest exponent per variable. Terms are
serialized sorted by exponent so that parse -> serialize is byte-stable.
"""

from __future__ import annotations

import json

from .certify import Verdict
from .poly import HomPoly, MultiAffinePoly, subset_basis
from .strata import StratumReport


def poly_to_obj(f) -> dict:
    obj = {"n": f.n, "d": f.d, "terms": [{"exponent": list(a), "coeff": c} for a, c in sorted(f.terms.items())]}
    if isinstance(f, HomPoly):
        obj["kappa"] = list(f.kappa)
    return obj


def obj_to_poly(obj: dict):
    try:
        n = int(obj["n"])
        d = int(obj["d"])
        raw_terms = obj["terms"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"polynomial object missing field: {exc}") from exc
    terms = {}
    for k, t in enumerate(raw_terms):
        try:
            alpha = tuple(int(a) for a in t["exponent"])
            coeff = float(t["coeff"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad term at index {k}: {exc}") from exc
        terms[alpha] = terms.get(alpha, 0.0) + coeff
    kappa = obj.get("kappa")
    if kappa is None and all(all(a in (0, 1) for a in alpha) for alpha in terms):
        return MultiAffinePoly(subset_basis(n, d), HomPoly(n, d, (1,) * n, terms).coeffs)
    if kappa is None:
        kappa = [max(1, max((alpha[i] for alpha in terms), default=1)) for i in range(n)]
    return HomPoly(n, d, tuple(int(k) for k in kappa), terms)


def load_poly(path):
    with open(path, "r", encoding="utf-8") as fh:
        return obj_to_poly(json.load(fh))


def dumps(obj) -> str:
    """Deterministic JSON rendering used for every artifact this package
    writes; floats keep their shortest round-trip representation."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save_poly(f, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(poly_to_obj(f)))


def verdict_to_obj(v: Verdict) -> dict:
    return {
        "status": v.status.value,
        "witness": v.witness,
        "tol": v.tol,
    }


def stratum_report_to_obj(report: StratumReport) -> dict:
    witness = None if report.violation is None else [list(w) if isinstance(w, tuple) else w for w in report.violation]
    # on 0/1 exponent vectors the exponent exchange and basis exchange
    # notions coincide, so one flag serves both report kinds
    return {
        "kind": report.kind,
        "support": sorted(map(list, report.support)),
        "m_convex": report.violation is None,
        "witness": witness,
        "tol": report.tol,
    }
