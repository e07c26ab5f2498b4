"""Tests for the uniform flow from the inclusion maps: its flows against
the dense eigensolver oracle on every multiaffine shape up to 3432 states
and on every cap vector of the chain corpus, its generator against the
dense fill, the checks it runs at build and on every call, and that no
uniform flow calls the eigensolver."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from lorentzflow import cli, sep
from lorentzflow.ballmap import MembershipOracle, escape_time
from lorentzflow.poly import HomPoly, MultiAffinePoly, exponent_table, subset_basis
from lorentzflow.polarization import polarized_flow
from lorentzflow.samples import random_form_product
from lorentzflow.sep import (
    PeriodicFlowError,
    SpectralDecomposition,
    TranspositionRates,
    _binomials,
    _dense,
    _fill,
    build_generator,
    composition_chain,
    eigen_coords,
    flow,
    spectral,
    uniform_decomposition,
    uniform_rates,
)

from flow_helpers import dense_decomposition
from test_polarization import CHAIN_CORPUS

TIMES = (-0.3, 0.05, 2.0)

# (n, k), k <= n/2, with C(n, k) <= 3432: one dense eigensolve serves the
# shapes (n, k) and (n, n - k), whose generators are each other's reversal
PAIRS = [(n, k) for n in range(2, 17) for k in range(n // 2 + 1) if math.comb(n, k) <= 3432]

# the cap vectors that TestCompositionChain names besides its corpus
NAMED_CHAINS = [((4, 4, 4, 4), 4), ((3, 3, 2, 2), 4), ((2, 2, 2, 2), 4), ((3, 1, 2, 4), 5),
                ((8, 8, 8, 8), 8), ((2, 2, 2), 3), ((5, 1), 3), ((2,), 1)]


def _rel(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _random_on(n, d, kappa, seed):
    size = exponent_table(d, kappa).codes.size
    coeffs = np.random.default_rng(seed).standard_normal(size)
    return HomPoly._from_coeffs(n, d, kappa, coeffs)


class TestAgainstTheDenseOracle:
    @pytest.mark.parametrize("n, k", PAIRS)
    def test_multiaffine_flows(self, n, k):
        if (n, k) == (2, 1):
            for dec in (lambda: uniform_decomposition(2, 1), lambda: dense_decomposition(1, (1, 1))):
                with pytest.raises(PeriodicFlowError):
                    dec()
            return
        dense = dense_decomposition(k, (1,) * n)
        for d in sorted({k, n - k} - {0}):
            basis = subset_basis(n, d)
            f = MultiAffinePoly(basis, np.random.default_rng(17 * n + d).standard_normal(basis.size))
            dec = uniform_decomposition(n, d)
            assert np.array_equal(dec.eigenvalues, sep._johnson_spectrum(n, [math.comb(n, j) for j in range(k + 1)])[1])
            assert np.abs(dec.eigenvalues - dense.eigenvalues).max() <= 1e-12
            if d == k:
                oracle = dense
            else:
                # complements reverse colex order, so the generator of
                # (n, n - k) is that of (n, k) read backwards
                if basis.size > 2:
                    A = build_generator(subset_basis(n, k), uniform_rates(n))
                    assert np.array_equal(build_generator(basis, uniform_rates(n)), A[::-1, ::-1])
                oracle = SpectralDecomposition(basis, dense.eigenvalues, dense.vectors[::-1], uniform_rates(n))
            for s in TIMES:
                assert _rel(flow(f, s, dec).coeffs, flow(f, s, oracle).coeffs) <= 1e-12, (n, d, s)

    def test_chain_flows(self):
        assert len(CHAIN_CORPUS + NAMED_CHAINS) == 811
        for kappa, d in CHAIN_CORPUS + NAMED_CHAINS:
            dec, dense = composition_chain(d, kappa), dense_decomposition(d, kappa)
            assert np.abs(dec.eigenvalues - dense.eigenvalues).max() <= 1e-12, (kappa, d)
            assert np.array_equal(dec.weights, dense.weights), (kappa, d)
            f = _random_on(len(kappa), d, kappa, sum(kappa) * 31 + d)
            for s in TIMES:
                assert _rel(flow(f, s, dec).coeffs, flow(f, s, dense).coeffs) <= 1e-12, (kappa, d, s)

    @pytest.mark.parametrize("kappa, d", [((1,) * 8, 4), ((1,) * 7, 5), ((1,) * 9, 6), ((3, 1, 2, 4), 5),
                                          ((2, 2, 2, 2), 4), ((4, 4, 4, 4), 4), ((5, 1), 3)])
    def test_eigen_coords_are_the_eigenspace_parts(self, kappa, d):
        dec, dense = composition_chain(d, kappa), dense_decomposition(d, kappa)
        f = _random_on(len(kappa), d, kappa, 5)
        x0, rows = eigen_coords(f, dec)
        x0_dense, rows_dense = eigen_coords(f, dense)
        assert x0 == x0_dense == float(f.coeffs.sum())
        assert rows.shape == rows_dense.shape == (len(set(dec.eigenvalues.tolist())) - 1, dec.size)
        scale = np.linalg.norm(f.coeffs / dec.weights)
        assert np.abs(rows - rows_dense).max() <= 1e-12 * scale
        centered = sep._centered(f, dec)
        assert np.abs(rows.sum(axis=0) - centered).max() <= 1e-12 * scale
        assert np.abs(rows @ rows.T - np.diag((rows * rows).sum(axis=1))).max() <= 1e-12 * scale ** 2

    def test_eigen_coords_on_custom_rates(self):
        rates = TranspositionRates(6, {(0, 1): 0.4, (1, 2): 0.3, (2, 3): 0.1, (3, 4): 0.1, (4, 5): 0.1})
        dec = spectral(subset_basis(6, 3), rates)
        f = MultiAffinePoly(subset_basis(6, 3), np.random.default_rng(8).standard_normal(20))
        _, rows = eigen_coords(f, dec)
        V, x = dec.vectors, f.coeffs
        assert rows.shape == (19, 20)  # no repeated eigenvalue on a path of unequal rates
        assert np.abs(rows - (V[:, 1:] * (V[:, 1:].T @ x)).T).max() <= 1e-12
        assert np.abs(rows.sum(axis=0) - (x - x.mean())).max() <= 1e-12


class TestGenerator:
    @pytest.mark.parametrize("kappa, d", [((1,) * 6, 3), ((1,) * 7, 2), ((1,) * 7, 5), ((1,) * 5, 4),
                                          ((3, 1, 2, 4), 5), ((2, 2, 2, 2), 4), ((4, 4, 4, 4), 6), ((5, 1), 3)])
    def test_conjugated_maps_are_the_dense_fill(self, kappa, d):
        """sqrt(W) (a I + b (UD - L I)) / sqrt(W), read back from the
        complements when d > N/2, is the dense generator."""
        maps = composition_chain(d, kappa)._maps
        size = exponent_table(d, kappa).codes.size
        G = maps.generator(np.eye(size))
        if maps.flip:
            G = G[::-1, ::-1]
        root = np.sqrt(_binomials(d, kappa).prod(axis=0))
        q = 1.0 / math.comb(sum(kappa), 2)
        pairs = [((b, c), q) for b in range(len(kappa)) for c in range(b, len(kappa))]
        assert np.abs(root[:, None] * G / root[None, :] - _dense(_fill(d, kappa, pairs))).max() <= 1e-14


class TestChecks:
    def test_a_corrupted_map_index_raises_at_build(self, monkeypatch):
        found = np.searchsorted

        def corrupted(a, v, *args, **kwargs):
            index = found(a, v, *args, **kwargs)
            if np.ndim(index):
                index = index.copy()
                index[index.size // 2] += 1
            return index

        uniform_decomposition(6, 3)
        monkeypatch.setattr(np, "searchsorted", corrupted)
        with pytest.raises(RuntimeError, match="neighbour code"):
            uniform_decomposition(6, 3)

    @pytest.mark.parametrize("kappa, d", [((1,) * 8, 4), ((3, 1, 2, 4), 5)])
    def test_a_perturbed_part_fails_the_residual_check(self, kappa, d):
        maps = composition_chain(d, kappa)._maps
        assert not maps.flip
        f = _random_on(len(kappa), d, kappa, 3)
        _, parts = maps.parts(f.coeffs)
        scale = float(np.abs(f.coeffs / maps.binomials - f.coeffs.sum() / maps.count).max())
        maps.check(parts, scale)
        bent = parts.copy()
        bent[parts.shape[0] // 2, 1] += 1e-6 * scale
        with pytest.raises(RuntimeError, match="eigen-equation"):
            maps.check(bent, scale)

    def test_periodic_swap_keeps_its_message(self):
        text = "periodic flow: bottom eigenvalue -1.0 is not strictly above -1"
        for build in (lambda: uniform_decomposition(2, 1), lambda: composition_chain(1, (1, 1))):
            with pytest.raises(PeriodicFlowError) as info:
                build()
            assert str(info.value) == text

    def test_mass_part_is_the_mean_and_is_preserved(self):
        dec = uniform_decomposition(10, 5)
        f = MultiAffinePoly(subset_basis(10, 5), np.random.default_rng(4).random(252))
        mass, parts = dec._maps.parts(f.coeffs)
        # sum(c) / sum(W), up to the rounding drift of g - P_0 g folded back in
        assert mass == pytest.approx(f.coeffs.sum() / 252, rel=1e-15)
        # no part carries mass, up to round-off against the centered input
        assert np.abs(parts.sum(axis=0)).max() <= 1e-12 * np.abs(f.coeffs - mass).sum()
        for s in TIMES:
            assert flow(f, s, dec).value_at_ones() == pytest.approx(f.value_at_ones(), rel=1e-14)

    def test_each_call_builds_its_own_maps(self):
        a, b = uniform_decomposition(8, 4), uniform_decomposition(8, 4)
        assert a._maps is not b._maps
        assert a._vectors is None and b._vectors is None


class TestNoEigensolver:
    def test_uniform_flows_and_escapes_call_no_eigh(self, monkeypatch, capsys):
        calls, eigh = [], np.linalg.eigh

        def counted(A, *args, **kwargs):
            calls.append(np.shape(A))
            return eigh(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        composition_chain.cache_clear()
        rng = np.random.default_rng(33)
        basis = subset_basis(12, 6)
        flow(MultiAffinePoly(basis, rng.random(basis.size)), 0.3, uniform_decomposition(12, 6))
        f = polarized_flow(random_form_product(4, 4, rng), 0.3)
        assert f.kappa == (4, 4, 4, 4)
        # an oracle with no certificate, so only the flow's own eigensolves count
        positive = MembershipOracle("positive", lambda g: SimpleNamespace(is_member=bool(g.coeffs.min() > 0)), 0.0)
        assert escape_time(f, positive).sigma > 0.0
        wide = random_form_product(16, 6, rng)  # 16 variables, caps up to 6: no lift fits
        assert exponent_table(6, wide.kappa).codes.size > 10000
        polarized_flow(wide, 0.3)
        assert cli.main(["spectrum", "--n", "12", "--d", "6"]) == 0
        capsys.readouterr()
        assert calls == []
