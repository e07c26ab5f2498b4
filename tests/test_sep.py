"""Tests for the exclusion-process flow: generator structure, spectrum,
primitivity, the closed-form flow, and the contraction bookkeeping."""

import math

import numpy as np
import pytest

from lorentzflow.poly import MultiAffinePoly, elementary_symmetric, normalize_at_ones, subset_basis
from lorentzflow.sep import (
    FlowOverflowError,
    PeriodicFlowError,
    TranspositionRates,
    build_generator,
    centered_norm,
    eigen_coords,
    equilibrium,
    flow,
    spectral,
    uniform_decomposition,
    uniform_rates,
)

from flow_helpers import check_primitivity, flow_matrix, radius_bounds, symmetrize_partition


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
        assert np.allclose(gen.matrix, oracle)
        assert np.allclose(gen.matrix, np.full((3, 3), 1 / 3))

    def test_row_and_column_sums(self):
        for n, d in [(4, 2), (5, 2), (5, 3)]:
            gen = build_generator(subset_basis(n, d), uniform_rates(n))
            assert np.allclose(gen.matrix.sum(axis=0), 1.0, atol=1e-12)
            assert np.allclose(gen.matrix.sum(axis=1), 1.0, atol=1e-12)
            assert np.allclose(gen.matrix, gen.matrix.T, atol=1e-15)

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
                L = build_generator(subset_basis(n, d), uniform_rates(n)).matrix
                assert np.linalg.norm((V * w) @ V.T - L) < 1e-9 * max(1.0, np.linalg.norm(L))

    def test_deterministic_eigenvectors(self):
        a = uniform_decomposition(5, 2)
        b = spectral(build_generator(subset_basis(5, 2), uniform_rates(5)))
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_periodic_swap_rejected(self):
        # the raw two-state swap has eigenvalues 1, -1
        with pytest.raises(PeriodicFlowError):
            build_generator(subset_basis(2, 1), uniform_rates(2))


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
            dec = spectral(gen)
            M = flow_matrix(0.1, dec)
            assert np.max(np.abs(M - _taylor_flow_matrix(gen.matrix, 0.1))) < 1e-10

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
            rebuilt = x0 * equilibrium(dec).coeffs + dec.vectors[:, 1:] @ x
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
        from lorentzflow.samples import random_member_mixture

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
