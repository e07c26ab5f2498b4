"""Tests for the exclusion-process flow: generator structure, spectrum,
primitivity, the closed-form flow, and the contraction bookkeeping."""

import itertools
import math

import numpy as np
import pytest

from lorentzflow import polarization
from lorentzflow.poly import MultiAffinePoly, elementary_symmetric, normalize_at_ones, subset_basis
from lorentzflow.sep import (
    FlowOverflowError,
    PeriodicFlowError,
    TranspositionRates,
    _checked_spectrum,
    _dense,
    _eigh,
    _fill,
    build_generator,
    centered_norm,
    composition_chain,
    eigen_coords,
    flow,
    spectral,
    uniform_decomposition,
    uniform_rates,
)

from flow_helpers import (
    _johnson,
    build_generator_reference,
    check_primitivity,
    equilibrium,
    flow_matrix,
    radius_bounds,
    symmetrize_partition,
)


def _taylor_flow_matrix(L, s, terms=60):
    """Series oracle for the flow matrix: damped exponential of s*L."""
    acc = np.eye(L.shape[0])
    term = np.eye(L.shape[0])
    for k in range(1, terms):
        term = term @ (s * L) / k
        acc = acc + term
    return math.exp(-s) * acc


class TestRates:
    def test_uniform_three(self):
        r = uniform_rates(3)
        assert len(r.rates) == 3
        assert all(q == pytest.approx(1 / 3) for q in r.rates.values())

    def test_uniform_two(self):
        r = uniform_rates(2)
        assert r.rates == {(0, 1): 1.0}

    def test_sum_is_one(self):
        for n in range(2, 8):
            assert sum(uniform_rates(n).rates.values()) == pytest.approx(1.0, abs=1e-12)

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            TranspositionRates(3, {(0, 1): 0.5, (1, 2): 0.4})

    def test_disconnected_support_rejected(self):
        with pytest.raises(ValueError, match="generate"):
            TranspositionRates(4, {(0, 1): 0.5, (2, 3): 0.5})

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            TranspositionRates(3, {(0, 1): 1.5, (1, 2): -0.5})


class TestGenerator:
    def test_three_singletons_uniform_is_flat(self):
        # oracle: sum the three explicit transposition permutation matrices
        basis = subset_basis(3, 1)
        gen = build_generator(basis, uniform_rates(3))
        perms = {
            (0, 1): np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=float),
            (0, 2): np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float),
            (1, 2): np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float),
        }
        oracle = sum(perms.values()) / 3.0
        assert np.allclose(gen, oracle)
        assert np.allclose(gen, np.full((3, 3), 1 / 3))

    def test_row_and_column_sums(self):
        for n, d in [(4, 2), (5, 2), (5, 3)]:
            gen = build_generator(subset_basis(n, d), uniform_rates(n))
            assert np.allclose(gen.sum(axis=0), 1.0, atol=1e-12)
            assert np.allclose(gen.sum(axis=1), 1.0, atol=1e-12)
            assert np.allclose(gen, gen.T, atol=1e-15)

    @pytest.mark.parametrize(
        "n, d, seed",
        [(5, 2, None), (8, 4, None), (12, 6, None), (16, 4, None), (6, 3, 0), (7, 2, 1)],
    )
    def test_equals_the_reference_loop(self, n, d, seed):
        # seeded rates: a random set of pairs around a spanning path, in
        # shuffled order, so the pairs' order is exercised too
        if seed is None:
            rates = uniform_rates(n)
        else:
            rng = np.random.default_rng(seed)
            pairs = [p for p in itertools.combinations(range(n), 2) if p[1] == p[0] + 1 or rng.random() < 0.5]
            rng.shuffle(pairs)
            weights = rng.random(len(pairs)) + 0.1
            rates = TranspositionRates(n, dict(zip(pairs, weights / weights.sum())))
        basis = subset_basis(n, d)
        assert np.array_equal(build_generator(basis, rates), build_generator_reference(basis, rates))

    def test_two_element_basis_rejected_as_periodic(self):
        with pytest.raises(PeriodicFlowError):
            build_generator(subset_basis(2, 1), uniform_rates(2))

    def test_rate_basis_mismatch(self):
        with pytest.raises(ValueError):
            build_generator(subset_basis(3, 1), uniform_rates(4))


class TestSpectral:
    def test_flat_spectrum(self):
        dec = uniform_decomposition(3, 1)
        assert np.allclose(dec.eigenvalues, [1.0, 0.0, 0.0], atol=1e-12)

    def test_spectral_gap(self):
        # the Johnson label 1 sits at 1 - n / C(n, 2) = 1 - 2 / (n - 1)
        for n, d in [(3, 1), (5, 2), (8, 4), (9, 7)]:
            assert uniform_decomposition(n, d).spectral_gap == pytest.approx(2 / (n - 1), rel=1e-14)
        for dec in (uniform_decomposition(3, 3), composition_chain(1, (2,))):
            assert dec.size == 1 and dec.spectral_gap == 0.0

    def test_equilibrium_vector_is_uniform(self):
        for n, d in [(3, 1), (4, 2), (5, 2)]:
            dec = uniform_decomposition(n, d)
            size = dec.size
            assert np.allclose(dec.vectors[:, 0], 1 / math.sqrt(size))
            assert equilibrium(dec).coeffs == pytest.approx(np.full(size, 1 / size))

    def test_invariants_across_shapes(self):
        for n in range(3, 7):
            for d in range(1, min(3, n) + 1):
                dec = uniform_decomposition(n, d)
                w = dec.eigenvalues
                assert w[0] == 1.0
                if dec.size > 1:
                    assert w[0] - w[1] > 1e-9
                    assert w[-1] > -1.0 + 1e-9
                    # non-equilibrium modes carry no mass
                    assert np.max(np.abs(dec.vectors[:, 1:].sum(axis=0))) < 1e-9
                V = dec.vectors
                assert np.linalg.norm(V.T @ V - np.eye(dec.size)) < 1e-10 * dec.size
                L = build_generator(subset_basis(n, d), uniform_rates(n))
                assert np.linalg.norm((V * w) @ V.T - L) < 1e-9 * max(1.0, np.linalg.norm(L))

    def test_deterministic_eigenvectors(self):
        a = uniform_decomposition(5, 2)
        b = spectral(subset_basis(5, 2), uniform_rates(5))
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_periodic_swap_rejected(self):
        # the raw two-state swap has eigenvalues 1, -1
        with pytest.raises(PeriodicFlowError):
            build_generator(subset_basis(2, 1), uniform_rates(2))


# every shape up to n = 12, d > n/2, n = 2d and the size-1 basis d = n
# included, and (16,4), the lifted basis of kappa = (4,4,4,4), d = 4
JOHNSON_SHAPES = [(n, d) for n in range(2, 13) for d in range(1, n + 1)] + [(16, 4)]


def _eigh_reference(n, d):
    """The dense oracle of the closed form: the uniform generator and its
    descending eigenvalues and eigenvectors from ``np.linalg.eigh``.
    ``build_generator`` refuses the periodic (2, 1) swap, so the loop
    builds that one."""
    basis, rates = subset_basis(n, d), uniform_rates(n)
    A = build_generator_reference(basis, rates) if basis.size == 2 else np.asarray(build_generator(basis, rates))
    w, V = np.linalg.eigh(A)
    return A, w[::-1], V[:, ::-1]


def _seeded_rates(n, seed):
    """Non-uniform rates on a spanning path plus random further pairs."""
    rng = np.random.default_rng(seed)
    pairs = [p for p in itertools.combinations(range(n), 2) if p[1] == p[0] + 1 or rng.random() < 0.5]
    weights = rng.random(len(pairs)) + 0.1
    return TranspositionRates(n, dict(zip(pairs, weights / weights.sum())))


class TestJohnsonClosedForm:
    @pytest.mark.parametrize("n, d", JOHNSON_SHAPES)
    def test_matches_the_eigh_oracle(self, n, d):
        A, w_ref, V_ref = _eigh_reference(n, d)
        lam, V = _johnson(n, d)
        size = math.comb(n, d)
        johnson = [1 - k * (n + 1 - k) / math.comb(n, 2) for k in range(min(d, n - d) + 1)]
        multiplicity = [math.comb(n, k) - (math.comb(n, k - 1) if k else 0) for k in range(len(johnson))]
        assert np.array_equal(lam, np.repeat(johnson, multiplicity))
        assert np.linalg.norm(A @ V - V * lam) <= 1e-12 * np.linalg.norm(A)
        assert np.linalg.norm(V.T @ V - np.eye(size)) <= 1e-12 * size
        if (n, d) == (2, 1):
            with pytest.raises(PeriodicFlowError):
                uniform_decomposition(n, d)
            return
        dec = uniform_decomposition(n, d)
        assert np.array_equal(dec.eigenvalues, lam)
        f = MultiAffinePoly(subset_basis(n, d), np.random.default_rng(n * 17 + d).standard_normal(size))
        for s in (-0.3, 0.05, 2.0):
            want = V_ref @ (np.exp(-s * (1 - w_ref)) * (V_ref.T @ f.coeffs))
            assert np.linalg.norm(flow(f, s, dec).coeffs - want) <= 1e-12 * np.linalg.norm(want), s

    def test_uniform_flows_call_no_eigensolver(self, monkeypatch):
        shapes, eigh = [], np.linalg.eigh

        def counted(A, *args, **kwargs):
            shapes.append(A.shape)
            return eigh(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        polarization.lifted_decomposition.cache_clear()
        composition_chain.cache_clear()
        uniform_decomposition(12, 6)
        polarization.lifted_decomposition(16, 4)
        composition_chain(6, (1,) * 12)
        assert shapes == []
        spectral(subset_basis(6, 3), _seeded_rates(6, 30))
        assert shapes == [(20, 20)]

    def test_checks_stay_live(self):
        n, d = 8, 4
        fill, mass = _fill(d, (1,) * n, uniform_rates(n).rates.items()), np.ones(math.comb(n, d))
        lam, V = _johnson(n, d)
        _checked_spectrum(fill, mass, (lam.copy(), V.copy()))
        bent = V.copy()
        bent[:, 5] += 1e-6 * np.random.default_rng(30).standard_normal(V.shape[0])
        with pytest.raises(RuntimeError):
            _checked_spectrum(fill, mass, (lam.copy(), bent))
        swapped = lam.copy()
        swapped[[1, -1]] = swapped[[-1, 1]]
        with pytest.raises(RuntimeError):
            _checked_spectrum(fill, mass, (swapped, V.copy()))


class TestChainMassCheck:
    """The massless-mode check of the dense path on the chain at
    kappa = (16,)*4, d = 16: 969 compositions whose mass sqrt(W) has an RMS
    entry near 7e5, so the check is relative to that entry."""

    D, KAPPA = 16, (16,) * 4

    @pytest.fixture(scope="class")
    def dense(self):
        q = 1.0 / math.comb(sum(self.KAPPA), 2)
        pairs = itertools.combinations_with_replacement(range(len(self.KAPPA)), 2)
        fill = _fill(self.D, self.KAPPA, [(pair, q) for pair in pairs])
        mass = composition_chain(self.D, self.KAPPA).weights
        return fill, mass, _eigh(_dense(fill))

    def test_the_basis_builds(self, dense):
        dec = composition_chain(self.D, self.KAPPA)
        V = dec.vectors
        assert V.shape == (969, 969)
        assert np.array_equal(V[:, 0], dec.weights / np.linalg.norm(dec.weights))
        fill, mass, (w, V) = dense
        _checked_spectrum(fill, mass, (w.copy(), V.copy()))

    def test_mass_in_a_mode_still_raises(self, dense):
        fill, mass, (w, V) = dense
        bent = V.copy()
        bent[:, -1] += 1e-6 * mass
        with pytest.raises(RuntimeError):
            _checked_spectrum(fill, mass, (w.copy(), bent))
        # a move too small for the reconstruction and orthonormality checks
        bent = V.copy()
        bent[:, -1] += 1e-9 * mass / np.linalg.norm(mass)
        with pytest.raises(RuntimeError, match="nonzero mass"):
            _checked_spectrum(fill, mass, (w.copy(), bent))


class TestPrimitivity:
    def test_flat_case_is_immediate(self):
        gen = build_generator(subset_basis(3, 1), uniform_rates(3))
        assert check_primitivity(gen) == 1

    def test_four_choose_two_needs_two_steps(self):
        # distance two in the exchange graph of 2-subsets of a 4-set
        gen = build_generator(subset_basis(4, 2), uniform_rates(4))
        assert check_primitivity(gen) == 2

    def test_swap_matrix_fails(self):
        with pytest.raises(PeriodicFlowError):
            check_primitivity(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestFlow:
    def test_equilibrium_is_fixed(self):
        dec = uniform_decomposition(4, 2)
        f = equilibrium(dec)
        for s in [0.0, 0.3, 2.0, -1.5]:
            assert np.allclose(flow(f, s, dec).coeffs, f.coeffs, atol=1e-14)

    def test_flat_case_closed_form(self):
        dec = uniform_decomposition(3, 1)
        f = MultiAffinePoly(subset_basis(3, 1), [1.0, 0.0, 0.0])
        g = flow(f, 1.0, dec)
        e = math.exp(-1.0)
        assert np.allclose(g.coeffs, [1 / 3 + 2 * e / 3, 1 / 3 - e / 3, 1 / 3 - e / 3], atol=1e-14)

    def test_semigroup_and_mass(self):
        rng = np.random.default_rng(2)
        for n, d in [(4, 2), (5, 3)]:
            basis = subset_basis(n, d)
            dec = uniform_decomposition(n, d)
            for _ in range(25):
                c = rng.standard_normal(basis.size)
                f = MultiAffinePoly(basis, c / np.linalg.norm(c))
                s, t = rng.uniform(-3, 3, size=2)
                left = flow(flow(f, t, dec), s, dec)
                right = flow(f, s + t, dec)
                assert np.linalg.norm(left.coeffs - right.coeffs) < 1e-10
                assert abs(flow(f, s, dec).value_at_ones() - f.value_at_ones()) < 1e-10

    def test_independent_of_basis_inside_eigenspaces(self, rotated_decomposition):
        dec, rotated = rotated_decomposition
        rng = np.random.default_rng(9)
        f = MultiAffinePoly(dec.basis, rng.standard_normal(dec.size))
        for s in (0.3, -0.5, 2.0):
            a, b = flow(f, s, dec), flow(f, s, rotated)
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12
            assert centered_norm(a, dec) == pytest.approx(centered_norm(b, rotated), abs=1e-12)

    def test_time_zero_is_identity(self):
        dec = uniform_decomposition(5, 2)
        rng = np.random.default_rng(8)
        basis = subset_basis(5, 2)
        f = MultiAffinePoly(basis, rng.standard_normal(basis.size))
        assert np.allclose(flow(f, 0.0, dec).coeffs, f.coeffs, atol=1e-15)

    def test_backward_overflow_guard(self):
        dec = uniform_decomposition(3, 1)
        f = MultiAffinePoly(subset_basis(3, 1), [1.0, 0.0, 0.0])
        with pytest.raises(FlowOverflowError):
            flow(f, -800.0, dec)

    def test_matrix_agrees_with_series(self):
        for n, d in [(3, 1), (4, 2)]:
            gen = build_generator(subset_basis(n, d), uniform_rates(n))
            dec = spectral(subset_basis(n, d), uniform_rates(n))
            M = flow_matrix(0.1, dec)
            assert np.max(np.abs(M - _taylor_flow_matrix(gen, 0.1))) < 1e-10

    def test_matrix_agrees_with_flow_on_basis_vectors(self):
        dec = uniform_decomposition(4, 2)
        basis = subset_basis(4, 2)
        M = flow_matrix(0.7, dec)
        for j in range(basis.size):
            e = np.zeros(basis.size)
            e[j] = 1.0
            f = MultiAffinePoly(basis, e)
            assert np.allclose(M[:, j], flow(f, 0.7, dec).coeffs, atol=1e-9)

    def test_matrix_zero_time_identity_and_long_time_projector(self):
        dec = uniform_decomposition(3, 1)
        assert np.allclose(flow_matrix(0.0, dec), np.eye(3), atol=1e-14)
        assert np.allclose(flow_matrix(60.0, dec), np.full((3, 3), 1 / 3), atol=1e-12)

    def test_convergence_to_equilibrium(self):
        dec = uniform_decomposition(5, 2)
        basis = subset_basis(5, 2)
        rng = np.random.default_rng(4)
        f = MultiAffinePoly(basis, np.abs(rng.standard_normal(basis.size)))
        f = normalize_at_ones(f)
        norms = [centered_norm(flow(f, s, dec), dec) for s in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]]
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= radius_bounds(norms[0], 8.0, dec)[1] + 1e-12
        limit = flow(f, 60.0, dec)
        assert np.allclose(limit.coeffs, equilibrium(dec).coeffs, atol=1e-12)


class TestCoordinates:
    def test_equilibrium_has_zero_coordinates(self):
        dec = uniform_decomposition(4, 2)
        x0, x = eigen_coords(equilibrium(dec), dec)
        assert x0 == pytest.approx(1.0)
        assert np.max(np.abs(x)) < 1e-15

    def test_mass_coordinate_is_value_at_ones(self):
        rng = np.random.default_rng(6)
        basis = subset_basis(5, 2)
        dec = uniform_decomposition(5, 2)
        for _ in range(20):
            f = MultiAffinePoly(basis, rng.standard_normal(basis.size))
            x0, _ = eigen_coords(f, dec)
            assert x0 == pytest.approx(f.value_at_ones(), rel=1e-12, abs=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(13)
        basis = subset_basis(5, 3)
        dec = uniform_decomposition(5, 3)
        for _ in range(10):
            f = MultiAffinePoly(basis, rng.standard_normal(basis.size))
            x0, x = eigen_coords(f, dec)
            rebuilt = x0 * equilibrium(dec).coeffs + x.sum(axis=0)
            assert np.linalg.norm(rebuilt - f.coeffs) < 1e-10

    def test_centered_norm_examples(self):
        dec = uniform_decomposition(3, 1)
        assert centered_norm(equilibrium(dec), dec) == pytest.approx(0.0, abs=1e-15)
        f = MultiAffinePoly(subset_basis(3, 1), [1.0, 0.0, 0.0])
        assert centered_norm(f, dec) == pytest.approx(math.sqrt(2 / 3), rel=1e-12)

    def test_centered_norm_equals_coordinate_norm(self):
        rng = np.random.default_rng(14)
        basis = subset_basis(4, 2)
        dec = uniform_decomposition(4, 2)
        f = MultiAffinePoly(basis, rng.standard_normal(basis.size))
        _, x = eigen_coords(f, dec)
        assert centered_norm(f, dec) == pytest.approx(float(np.linalg.norm(x)), rel=1e-12)


class TestRadiusBounds:
    def test_flat_case_exact_rate(self):
        dec = uniform_decomposition(3, 1)
        rng = np.random.default_rng(21)
        lo, hi = radius_bounds(2.0, 0.7, dec)
        assert lo == pytest.approx(hi)
        assert lo == pytest.approx(2.0 * math.exp(-0.7))
        f = MultiAffinePoly(subset_basis(3, 1), rng.standard_normal(3))
        r = centered_norm(f, dec)
        assert centered_norm(flow(f, 0.7, dec), dec) == pytest.approx(r * math.exp(-0.7), rel=1e-12)

    def test_zero_time(self):
        dec = uniform_decomposition(4, 2)
        assert radius_bounds(1.5, 0.0, dec) == (1.5, 1.5)

    def test_sandwich_on_random_inputs(self):
        rng = np.random.default_rng(22)
        for n, d in [(4, 2), (5, 2), (5, 3)]:
            basis = subset_basis(n, d)
            dec = uniform_decomposition(n, d)
            for _ in range(50):
                f = MultiAffinePoly(basis, rng.standard_normal(basis.size))
                s = float(rng.uniform(0.01, 3.0))
                r = centered_norm(f, dec)
                lo, hi = radius_bounds(r, s, dec)
                got = centered_norm(flow(f, s, dec), dec)
                assert lo - 1e-8 <= got <= hi + 1e-8
                assert lo <= hi < r or r == 0.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            radius_bounds(-1.0, 0.5, uniform_decomposition(3, 1))


class TestMembershipClosure:
    def test_multiaffine_stability_survives_the_flow(self):
        # flows of stable multiaffine members never reject under the
        # sampled stability certificate
        from lorentzflow.certify import certify_stable
        from lorentzflow.samples import random_disjoint_form_product

        rng = np.random.default_rng(35)
        for n, d in [(4, 2), (5, 2), (5, 3)]:
            basis = subset_basis(n, d)
            dec = uniform_decomposition(n, d)
            for _ in range(8):
                f = random_disjoint_form_product(basis, rng)
                for s in (0.1, 1.0):
                    moved = flow(f, s, dec)
                    v = certify_stable(moved.to_hom(), directions=64, seed=35)
                    assert v.is_member, (n, d, s)

    def test_lorentzian_members_survive_the_flow(self):
        from lorentzflow.certify import certify_multiaffine
        from mixtures import random_member_mixture

        rng = np.random.default_rng(36)
        basis = subset_basis(5, 2)
        dec = uniform_decomposition(5, 2)
        for _ in range(10):
            f = random_member_mixture(basis, rng)
            for s in (0.1, 1.0, 10.0):
                assert certify_multiaffine(flow(f, s, dec)).is_member


class TestSymmetrize:
    def test_singleton_partition_is_identity(self):
        rng = np.random.default_rng(31)
        basis = subset_basis(4, 2)
        f = MultiAffinePoly(basis, rng.standard_normal(basis.size))
        g = symmetrize_partition(f, [[0], [1], [2], [3]])
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_full_partition_averages_to_elementary(self):
        f = MultiAffinePoly(subset_basis(3, 2), [1.0, 0.0, 0.0])
        g = symmetrize_partition(f, [[0, 1, 2]])
        assert np.allclose(g.coeffs, [1 / 3, 1 / 3, 1 / 3])

    def test_commutes_with_uniform_flow(self):
        rng = np.random.default_rng(32)
        basis = subset_basis(5, 2)
        dec = uniform_decomposition(5, 2)
        blocks = [[0, 1], [2, 3, 4]]
        for _ in range(10):
            f = MultiAffinePoly(basis, rng.standard_normal(basis.size))
            a = symmetrize_partition(flow(f, 0.8, dec), blocks)
            b = flow(symmetrize_partition(f, blocks), 0.8, dec)
            assert np.linalg.norm(a.coeffs - b.coeffs) < 1e-10

    def test_invalid_partition(self):
        f = elementary_symmetric(4, 2)
        with pytest.raises(ValueError):
            symmetrize_partition(f, [[0, 1], [1, 2, 3]])
        with pytest.raises(ValueError):
            symmetrize_partition(f, [[0, 1], [3]])

    def test_symmetrized_is_blockwise_invariant(self):
        # swapping two variables inside a block leaves coefficients alone
        rng = np.random.default_rng(33)
        basis = subset_basis(4, 2)
        f = MultiAffinePoly(basis, rng.standard_normal(basis.size))
        g = symmetrize_partition(f, [[0, 1], [2, 3]])
        swapped = {}
        for s, c in zip(basis.subsets, g.coeffs):
            t = tuple(sorted({0: 1, 1: 0}.get(i, i) for i in s))
            swapped[t] = c
        for s, c in zip(basis.subsets, g.coeffs):
            assert swapped[s] == pytest.approx(c, abs=1e-15)
