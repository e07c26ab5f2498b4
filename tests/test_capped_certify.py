"""The native capped Lorentzian certificate against the certificate of the
polarization lift: identical statuses and corresponding witnesses on a
seeded corpus, the block-quotient spectrum identity, M-convexity against
lifted basis exchange, the full-support shortcut, and the sizes past the
lift's cap of 16 variables."""

import itertools
import json
import math
import time

import numpy as np
import pytest

from certify_reference import certify_multiaffine_reference
from lorentzflow import certify as C
from lorentzflow import cli
from lorentzflow import io as pio
from lorentzflow.ballmap import capped_lorentzian_oracle, escape_time
from lorentzflow.certify import VerdictStatus, certify_hom, certify_multiaffine
from lorentzflow.polarization import PolarizationPlan, polarize_up, polarized_flow
from lorentzflow.poly import HomPoly, MultiAffinePoly, compositions, hessian_quadratic, subset_basis
from lorentzflow.samples import random_form_product
from lorentzflow.strata import BasisFamily, MConvexCandidate, is_m_convex, is_matroid_bases


def _caps(total_max):
    """Every nonincreasing cap vector with entries >= 1 and sum <= total_max."""
    def rec(remaining, top):
        yield ()
        for k in range(min(remaining, top), 0, -1):
            for rest in rec(remaining - k, k):
                yield (k,) + rest

    return [kappa for kappa in rec(total_max, total_max) if kappa]


def _uniform_point(kappa, d):
    """Projection of the normalized elementary polynomial on the lifted
    variables: the capped flow's fixed point."""
    total = math.comb(sum(kappa), d)
    return {
        alpha: math.prod(math.comb(k, a) for k, a in zip(kappa, alpha)) / total
        for alpha in compositions(d, len(kappa), kappa)
    }


def _normalized(kappa, d, terms):
    s = sum(terms.values())
    return HomPoly(len(kappa), d, kappa, {a: c / s for a, c in terms.items()})


def _corpus():
    """Seeded classes for every kappa with sum <= 10 and d = 2..4: cubed
    random coefficients, mixtures of those with the uniform point, the
    uniform point with about 30% of its coefficients zeroed, and the sum
    of two random monomials (whose support fails exchange unless they are
    one exchange apart, often with every Hessian passing)."""
    rng = np.random.default_rng(2013)
    out = []
    for kappa in _caps(10):
        for d in range(2, min(4, sum(kappa)) + 1):
            uniform = _uniform_point(kappa, d)
            comps = list(uniform)
            cubed = {a: float(rng.uniform()) ** 3 for a in comps}
            lam = float(rng.uniform())
            mixed = {a: lam * uniform[a] + (1 - lam) * cubed[a] / sum(cubed.values()) for a in comps}
            keep = rng.uniform(size=len(comps)) >= 0.3
            if not keep.any():
                keep[int(rng.integers(len(comps)))] = True
            zeroed = {a: uniform[a] for a, k in zip(comps, keep) if k}
            a, b = (comps[int(k)] for k in rng.integers(len(comps), size=2))
            pair = {a: 0.5, b: 0.5} if a != b else {a: 1.0}
            for terms in (cubed, mixed, zeroed, pair):
                out.append(_normalized(kappa, d, terms))
    return out


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def _composition(subset, plan):
    alpha = [0] * plan.n
    for v in subset:
        alpha[next(b for b, block in enumerate(plan.blocks) if v in block)] += 1
    return alpha


def _g(f, alpha):
    """The lift's coefficient of every lifted subset of composition alpha."""
    return f.terms.get(alpha, 0.0) / math.prod(math.comb(k, a) for k, a in zip(f.kappa, alpha))


def _native_rows(f):
    """Per beta in the certificate's order: the ascending spectrum rebuilt
    from the block-quotient matrix and the within-block eigenvalues."""
    table = C._table(f.n, f.d, f.kappa)
    g = np.array([_g(f, tuple(a)) for a in C._digits(table, table.codes).tolist()] + [0.0])
    iu, ju = table.upper
    rows = {}
    for r, beta in enumerate(C._digits(table, table.betas).tolist()):
        k = table.width if table.size is None else int(table.size[r])
        Q = np.zeros((table.width, table.width))
        Q[iu, ju] = Q[ju, iu] = g[table.index[r]] * (1.0 if table.scale is None else table.scale[r])
        w = np.linalg.eigvalsh(Q[table.width - k :, table.width - k :])
        if table.rest is not None:
            w = np.concatenate([w, -g[table.rest[r, k:]]])
        rows[tuple(beta)] = np.sort(w)
    return rows


class TestAgainstLift:
    def test_corpus_status_and_witness(self, corpus):
        tally = {}
        for f in corpus:
            plan = PolarizationPlan(f.n, f.d, f.kappa)
            got = certify_hom(f)
            want = certify_multiaffine_reference(polarize_up(f, plan))
            assert got.status is want.status, (f, got, want)
            key = got.status if got.witness is None else got.witness["kind"]
            tally[key] = tally.get(key, 0) + 1
            if want.witness is None:
                assert got.witness is None
                continue
            assert got.witness["kind"] == want.witness["kind"]
            if want.witness["kind"] == "hessian_signature":
                # the first failing beta is the composition of the lift's
                # first failing subset
                assert got.witness["exponent"] == _composition(want.witness["subset"], plan)
                scale = max(1.0, float(np.max(np.abs(want.witness["eigenvalues"]))))
                assert np.allclose(got.witness["eigenvalues"], want.witness["eigenvalues"],
                                   rtol=0, atol=1e-12 * scale)
            elif want.witness["kind"] == "support_exchange":
                # a genuine violation of the exchange axiom on {g > tol}
                alpha, beta, i = (got.witness[k] for k in ("exponent_one", "exponent_two", "element"))
                g_support = {a for a in compositions(f.d, f.n, f.kappa) if _g(f, a) > got.tol}
                assert tuple(alpha) in g_support and tuple(beta) in g_support
                assert alpha[i] > beta[i]
                for j in range(f.n):
                    if alpha[j] < beta[j]:
                        moved = list(alpha)
                        moved[i] -= 1
                        moved[j] += 1
                        assert tuple(moved) not in g_support
        # every verdict and every kind of witness is exercised
        assert set(tally) == {
            VerdictStatus.STRICT_INTERIOR, VerdictStatus.BOUNDARY_WITHIN_TOL,
            "hessian_signature", "support_exchange",
        }, tally

    def test_spectrum_identity(self, corpus):
        for f in corpus:
            plan = PolarizationPlan(f.n, f.d, f.kappa)
            lifted = polarize_up(f, plan)
            for beta, row in _native_rows(f).items():
                # the first lifted subset of composition beta
                s = sorted(v for block, b in zip(plan.blocks, beta) for v in block[:b])
                rest = [v for v in range(plan.lifted_n) if v not in s]
                want = np.linalg.eigvalsh(hessian_quadratic(lifted.derivative(s), rest))
                scale = max(1e-300, float(np.abs(want).sum()))
                assert row.shape == want.shape == (sum(f.kappa) - f.d + 2,)
                assert np.max(np.abs(row - want)) <= 1e-12 * scale


class TestOneEngine:
    def test_negative_coefficient_ties_name_the_first_in_colex_order(self):
        # two equal smallest coefficients each: colex order puts (1, 1, 0)
        # before (0, 1, 1), and the subset (1, 2) before (0, 3)
        capped = HomPoly(3, 2, (2, 2, 2), {(1, 1, 0): -0.1, (0, 1, 1): -0.1, (2, 0, 0): 0.6, (0, 0, 2): 0.6})
        assert certify_hom(capped).witness == {
            "kind": "negative_coefficient", "exponent": [1, 1, 0], "value": -0.1 / 4}
        basis = subset_basis(4, 2)
        coeffs = np.full(basis.size, 0.3)
        coeffs[basis.rank((1, 2))] = coeffs[basis.rank((0, 3))] = -0.1
        f = MultiAffinePoly(basis, coeffs)
        assert certify_multiaffine(f).witness == {"kind": "negative_coefficient", "subset": [1, 2], "value": -0.1}
        assert certify_hom(f.to_hom()).witness["exponent"] == [0, 1, 1, 0]

    def test_codes_past_uint32(self):
        # 5^16 exponent codes at kappa_i = 4, d = 4 need 64 bits
        kappa = (4,) * 16
        f = HomPoly(16, 4, kappa, _uniform_point(kappa, 4))
        assert C._table(16, 4, kappa).codes.dtype == np.uint64
        assert certify_hom(f).status is VerdictStatus.STRICT_INTERIOR
        alpha = (0,) * 13 + (1, 0, 3)
        g = _normalized(kappa, 4, {**f.terms, alpha: -1e-3})
        assert certify_hom(g).witness["exponent"] == list(alpha)

    def test_codes_past_int64_are_refused(self):
        # 17^16 exponent codes at kappa_i = d = 16
        with pytest.raises(ValueError, match="int64"):
            C._table(16, 16, (16,) * 16)


class TestMConvexAgainstLiftedExchange:
    def test_every_small_support(self):
        checked = 0
        for kappa in _caps(6):
            n = len(kappa)
            for d in range(1, sum(kappa)):
                box = list(compositions(d, n, kappa))
                if not 2 <= len(box) <= 8:
                    continue
                plan = PolarizationPlan(n, d, kappa)
                lifted = {}
                for s in itertools.combinations(range(plan.lifted_n), d):
                    lifted.setdefault(tuple(_composition(s, plan)), []).append(s)
                for size in range(1, len(box) + 1):
                    for support in itertools.combinations(box, size):
                        bases = [s for alpha in support for s in lifted[alpha]]
                        native = bool(is_m_convex(MConvexCandidate(n, d, support)))
                        assert native == bool(is_matroid_bases(BasisFamily(plan.lifted_n, d, bases))), (
                            kappa, d, support)
                        checked += 1
        assert checked > 1000


class TestFullSupportShortcut:
    # (x0 + x1)^2 / 4: a square of a linear form, rank one, so on the
    # boundary, with every coefficient positive
    square = HomPoly(2, 2, (2, 2), {(2, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25})

    def _counted(self, monkeypatch):
        calls = []
        for name in ("is_matroid_bases", "is_m_convex"):
            real = getattr(C, name)

            def counting(*args, _real=real, **kwargs):
                calls.append(args)
                return _real(*args, **kwargs)

            monkeypatch.setattr(C, name, counting)
        return calls

    def test_capped(self, monkeypatch):
        calls = self._counted(monkeypatch)
        got = certify_hom(self.square)
        assert got.status is VerdictStatus.BOUNDARY_WITHIN_TOL
        assert calls == []
        assert certify_multiaffine_reference(polarize_up(self.square)).status is got.status

    def test_multiaffine(self, monkeypatch):
        lifted = polarize_up(self.square)
        assert np.all(lifted.coeffs > 0.1)
        calls = self._counted(monkeypatch)
        got = certify_multiaffine(lifted)
        assert got.status is VerdictStatus.BOUNDARY_WITHIN_TOL
        assert calls == []
        assert certify_multiaffine_reference(lifted).status is got.status

    def test_partial_support_still_checked(self, monkeypatch):
        calls = self._counted(monkeypatch)
        f = HomPoly(2, 2, (2, 2), {(2, 0): 0.5, (1, 1): 0.5})
        assert certify_hom(f).is_member
        assert len(calls) == 1


class TestPastTheLiftCap:
    """kappa = (8, 8, 8, 8), d = 8: 32 lifted variables, which the lift
    refuses. Normalized coefficients here are about 1e-7, so Hessian
    eigenvalues of a product of forms can fall inside the absolute 1e-9
    band: seeded form products are members, strict or boundary, and the
    uniform point is strict."""

    kappa = (8, 8, 8, 8)

    def uniform(self):
        return HomPoly(4, 8, self.kappa, _uniform_point(self.kappa, 8))

    def test_library_certifies_quickly(self):
        t0 = time.perf_counter()
        v = certify_hom(self.uniform())
        elapsed = time.perf_counter() - t0
        assert v.status is VerdictStatus.STRICT_INTERIOR
        assert elapsed < 0.1
        for seed in range(10):
            f = random_form_product(4, 8, np.random.default_rng(seed))
            assert f.kappa == self.kappa
            t0 = time.perf_counter()
            v = certify_hom(f)
            assert time.perf_counter() - t0 < 0.1
            assert v.is_member, seed

    def test_cli_certifies_quickly(self, tmp_path, capsys):
        for name, f in [("uniform", self.uniform()),
                        ("product", random_form_product(4, 8, np.random.default_rng(0)))]:
            path = tmp_path / f"{name}.json"
            pio.save_poly(f, path)
            t0 = time.perf_counter()
            rc = cli.main(["certify", "--input", str(path)])
            elapsed = time.perf_counter() - t0
            assert rc == 0
            assert elapsed < 0.1
            out = json.loads(capsys.readouterr().out)
            assert out["status"] == certify_hom(pio.load_poly(path)).status.value
            if name == "uniform":
                assert out["status"] == "strict_interior"

    def test_flows_and_escapes_still_refuse(self):
        f = self.uniform()
        with pytest.raises(ValueError, match="above the cap of 16"):
            polarized_flow(f, 0.1)
        with pytest.raises(ValueError, match="above the cap of 16"):
            escape_time(f, capped_lorentzian_oracle())
