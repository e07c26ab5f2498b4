"""The batched certificate kernels against the one-item-at-a-time
reference oracles in ``certify_reference``: identical verdicts and
witnesses on a seeded corpus of every input class, line restrictions to
rounding, bounded working memory, and a cached direction sampler."""

import itertools
import tracemalloc

import numpy as np
import pytest

from certify_reference import (
    certify_multiaffine_reference,
    certify_stable_reference,
    hermite_matrix_reference,
    real_rooted_reference,
    restrict_line_reference,
    sample_sphere_reference,
)
from lorentzflow import certify as C
from lorentzflow.certify import (
    DEFAULT_DIRECTIONS,
    DEFAULT_SEED,
    VerdictStatus,
    certify_hom,
    certify_multiaffine,
    certify_stable,
    hermite_matrix,
    real_rooted,
    sample_sphere_sumzero,
)
from lorentzflow.polarization import PolarizationPlan, polarize_up, project_down
from lorentzflow.poly import (
    HomPoly,
    MultiAffinePoly,
    elementary_symmetric,
    normalize_at_ones,
    restrict_lines,
    subset_basis,
)
from lorentzflow.samples import random_disjoint_form_product, random_form_product
from lorentzflow.sep import flow, uniform_decomposition

# ---------------------------------------------------------------- corpus


def _forms(rng, d, n):
    return np.abs(rng.standard_normal((d, n))) + 0.05


def _multiaffine_part(forms):
    """Multiaffine part of the product of the rows of ``forms``: real
    stable with nonnegative coefficients, support a transversal matroid."""
    d, n = forms.shape
    acc = {(): 1.0}
    for row in forms:
        nxt = {}
        for chosen, c in acc.items():
            for i in range(n):
                if i not in chosen and row[i] != 0.0:
                    key = tuple(sorted(chosen + (i,)))
                    nxt[key] = nxt.get(key, 0.0) + c * row[i]
        acc = nxt
    basis = subset_basis(n, d)
    coeffs = np.zeros(basis.size)
    for subset, c in acc.items():
        coeffs[basis.rank(subset)] = c
    return normalize_at_ones(MultiAffinePoly(basis, coeffs))


def _hessian_fail(n, d, weights, variables):
    """(a x_p x_q + b x_r x_s) times the d-2 further ``variables`` after
    p, q, r, s: two positive Hessian eigenvalues, so not Lorentzian."""
    p, q, r, s, *rest = (int(v) for v in variables)
    basis = subset_basis(n, d)
    coeffs = np.zeros(basis.size)
    coeffs[basis.rank([p, q] + rest)] = weights[0]
    coeffs[basis.rank([r, s] + rest)] = weights[1]
    return normalize_at_ones(MultiAffinePoly(basis, coeffs))


def _negative_coefficient(rng, f):
    coeffs = f.coeffs.copy()
    coeffs[int(rng.integers(coeffs.size))] = -0.05 * float(coeffs.max())
    return normalize_at_ones(MultiAffinePoly(f.basis, coeffs))


def _classes(n, d, rng):
    """One input of every class the benchmark certifies at (n, d)."""
    part = _multiaffine_part(_forms(rng, d, n))
    half = rng.choice(n, size=n // 2, replace=False)
    transversal = _forms(rng, d, n)
    transversal[d // 2 :, half] = 0.0
    basis = subset_basis(n, d)
    return {
        "interior_flow": flow(random_disjoint_form_product(basis, rng), 0.5, uniform_decomposition(n, d)),
        "interior_product": part,
        "partition_boundary": random_disjoint_form_product(basis, rng),
        "transversal_boundary": _multiaffine_part(transversal),
        "hessian_fail": _hessian_fail(n, d, np.abs(rng.standard_normal(2)) + 0.05, rng.permutation(n)[: d + 2]),
        "negative_coefficient": _negative_coefficient(rng, part),
    }


SHAPES = [(6, 3), (8, 4), (10, 5), (12, 6)]
# the reference stable loop convolves term by term, which costs seconds
# at (10,5); the benchmark runs no stable certificate at (12,6)
STABLE_DIRECTIONS = {(6, 3): DEFAULT_DIRECTIONS, (8, 4): DEFAULT_DIRECTIONS, (10, 5): 32}


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(2024)
    out = {}
    for n, d in SHAPES:
        for name, f in _classes(n, d, rng).items():
            # as in the benchmark: the exchange check on the large
            # transversal support at (12,6) takes seconds
            if (name, n) != ("transversal_boundary", 12):
                out[f"{name}({n},{d})"] = f
    plan = PolarizationPlan(4, 4, (2, 2, 2, 2))
    block = _multiaffine_part(np.repeat(_forms(rng, 4, 4), 2, axis=1))
    out["capped(2,2,2,2)"] = normalize_at_ones(project_down(block, plan))
    out["capped(4,4,4,4)"] = random_form_product(4, 4, rng)
    return out


def _same(got, want, float_keys, ignore=()):
    """Same status and witness; the witness's float lists agree to
    rounding, every other entry exactly."""
    assert got.status is want.status
    if want.witness is None:
        assert got.witness is None
        return
    witness = {k: v for k, v in got.witness.items() if k not in ignore}
    assert set(witness) == set(want.witness)
    for key, value in want.witness.items():
        if key in float_keys:
            scale = max(1.0, float(np.max(np.abs(value))))
            assert np.allclose(witness[key], value, rtol=0, atol=1e-12 * scale), key
        else:
            assert witness[key] == value, key


class TestAgainstReference:
    def test_lorentzian_corpus(self, corpus):
        for f in corpus.values():
            if isinstance(f, HomPoly):
                got, want = certify_hom(f), certify_multiaffine_reference(polarize_up(f))
            else:
                got, want = certify_multiaffine(f), certify_multiaffine_reference(f)
            _same(got, want, {"eigenvalues"}, ignore={"lifted"})

    def test_stable_corpus(self, corpus):
        for f in corpus.values():
            directions = DEFAULT_DIRECTIONS if isinstance(f, HomPoly) else STABLE_DIRECTIONS.get((f.n, f.d))
            if directions is None:
                continue
            got = certify_stable(f, directions)
            want = certify_stable_reference(f, directions)
            _same(got, want, {"line_coefficients"})

    def test_elementary_at_fourteen_and_sixteen(self):
        for n, d in [(14, 7), (16, 8)]:
            f = normalize_at_ones(elementary_symmetric(n, d))
            got, want = certify_multiaffine(f), certify_multiaffine_reference(f)
            assert got.status is want.status is VerdictStatus.STRICT_INTERIOR

    def test_hessian_failure_past_the_first_block(self):
        n, d = 12, 6
        f = _hessian_fail(n, d, [0.7, 0.3], list(range(4)) + list(range(n - d + 2, n)))
        got, want = certify_multiaffine(f), certify_multiaffine_reference(f)
        _same(got, want, {"eigenvalues"})
        position = list(itertools.combinations(range(n), d - 2)).index(tuple(got.witness["subset"]))
        m = n - d + 2
        assert position >= C._HESSIAN_BLOCK_ENTRIES // (m * m)

    def test_direction_failure_past_the_first_block(self):
        # a small mixture of a non-member into the interior point leaves
        # only a few sampled directions with complex roots
        e = normalize_at_ones(elementary_symmetric(8, 4))
        f = 0.96 * e + 0.04 * _hessian_fail(8, 4, [0.5, 0.5], range(6))
        got, want = certify_stable(f), certify_stable_reference(f)
        _same(got, want, {"line_coefficients"})
        assert got.status is VerdictStatus.REJECTED
        samples = sample_sphere_sumzero(8, DEFAULT_DIRECTIONS, DEFAULT_SEED)
        position = int(np.argmin(np.abs(samples - got.witness["direction"]).sum(axis=1)))
        assert position >= C._DIRECTION_BLOCK


class TestOneEngine:
    """``certify_multiaffine`` is ``certify_hom`` at kappa = 1^n."""

    def test_unit_caps_match_the_multiaffine_certificate(self, corpus):
        for name, f in corpus.items():
            if isinstance(f, HomPoly):
                continue
            got, want = certify_hom(f.to_hom()), certify_multiaffine(f)
            assert got.status is want.status, name
            if want.witness is None:
                continue
            assert got.witness["kind"] == want.witness["kind"], name
            if "subset" in want.witness:
                assert got.witness["exponent"] == [int(i in want.witness["subset"]) for i in range(f.n)]
                for key in ("value", "eigenvalues"):
                    assert got.witness.get(key) == want.witness.get(key), (name, key)

    def test_capped_rejection_stops_at_its_block(self, monkeypatch):
        # the first (d-2)-subset, (0, ..., 5), is the only failing one
        n, d = 16, 8
        f = _hessian_fail(n, d, [0.7, 0.3], [10, 11, 12, 13, 0, 1, 2, 3, 4, 5])
        real = C._checked_eigh
        for certify, g in [(certify_multiaffine, f), (certify_hom, f.to_hom())]:
            solved = []

            def counting(H, _solved=solved):
                _solved.append(H.shape[0])
                return real(H)

            monkeypatch.setattr(C, "_checked_eigh", counting)
            got = certify(g)
            assert got.witness["kind"] == "hessian_signature"
            assert got.witness.get("subset", got.witness.get("exponent")) in ([0, 1, 2, 3, 4, 5], [1] * 6 + [0] * 10)
            m = n - d + 2
            assert sum(solved) <= C._HESSIAN_BLOCK_ENTRIES // (m * m), certify.__name__


class TestRestrictLines:
    @pytest.mark.parametrize("n, d", [(3, 0), (4, 1), (6, 3), (10, 5)])
    def test_multiaffine_matches_reference(self, n, d):
        rng = np.random.default_rng(n * 10 + d)
        basis = subset_basis(n, d)
        coeffs = rng.standard_normal(basis.size)
        coeffs[rng.random(basis.size) < 0.2] = 0.0
        f = MultiAffinePoly(basis, coeffs)
        Y = rng.standard_normal((300, n))
        lines = restrict_lines(f, Y)
        want = np.array([restrict_line_reference(f, y) for y in Y])
        assert lines.shape == (300, d + 1)
        assert np.max(np.abs(lines - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.allclose(f.restrict_line(Y[7]), want[7], rtol=0, atol=1e-13 * np.max(np.abs(want)))

    def test_hom_poly_matches_reference(self):
        rng = np.random.default_rng(71)
        f = random_form_product(4, 5, rng)
        f = HomPoly(f.n, f.d, f.kappa, {a: c * rng.choice([-1.0, 1.0]) for a, c in f.terms.items()})
        Y = rng.standard_normal((200, 4))
        lines = restrict_lines(f, Y)
        want = np.array([restrict_line_reference(f, y) for y in Y])
        assert np.max(np.abs(lines - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.allclose(f.restrict_line(Y[3]), want[3], rtol=0, atol=1e-13 * np.max(np.abs(want)))

    def test_shape_is_checked(self):
        with pytest.raises(ValueError):
            restrict_lines(elementary_symmetric(3, 2), np.zeros((4, 2)))


class TestRootKernel:
    def test_batched_rows_match_scalar_reference(self):
        rng = np.random.default_rng(72)
        rows = [rng.standard_normal(int(rng.integers(2, 9))) for _ in range(200)]
        rows.append(np.array([-1.0, 0.0, 1.0, 1e-20]))  # degree drop
        for c in rows:
            got, want = real_rooted(c), real_rooted_reference(c)
            assert (got.kind, got.degree_dropped) == (want.kind, want.degree_dropped)
            assert np.array_equal(hermite_matrix(c), hermite_matrix_reference(c))


class TestSphereSampler:
    def test_cached_read_only_and_unchanged(self):
        a = sample_sphere_sumzero(7, 256, 1729)
        assert a is sample_sphere_sumzero(7, 256, 1729)
        assert not a.flags.writeable
        assert np.array_equal(a, sample_sphere_reference(7, 256, 1729))


class TestWorkingMemory:
    """Peak traced allocations of one certificate, after a warm-up call
    has built the cached tables (rank table, subset table, directions)."""

    @staticmethod
    def _peak(fn):
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_lorentzian_at_sixteen(self):
        f = normalize_at_ones(elementary_symmetric(16, 8))
        assert self._peak(lambda: certify_multiaffine(f)) <= 2 * 2**20

    def test_stable_at_ten(self):
        f = _multiaffine_part(_forms(np.random.default_rng(73), 5, 10))
        assert self._peak(lambda: certify_stable(f)) <= 2 * 2**20
