"""Tests for the seeded member generators."""

import numpy as np
import pytest

from lorentzflow.certify import VerdictStatus, certify_hom, certify_multiaffine, certify_stable
from lorentzflow.poly import subset_basis
from lorentzflow.samples import (
    random_disjoint_form_product,
    random_form_product,
    random_interior_member,
    zero_coefficient_boundary,
)
from lorentzflow.sep import uniform_decomposition

from mixtures import random_member_mixture


def test_form_products_are_members():
    rng = np.random.default_rng(71)
    for _ in range(20):
        f = random_form_product(3, 2, rng)
        assert f.value_at_ones() == pytest.approx(1.0, rel=1e-12)
        assert certify_stable(f, directions=64).is_member
        assert certify_hom(f).is_member


def test_disjoint_products_are_multiaffine_members():
    rng = np.random.default_rng(72)
    for n, d in [(4, 2), (5, 3), (6, 2)]:
        basis = subset_basis(n, d)
        for _ in range(10):
            f = random_disjoint_form_product(basis, rng)
            assert f.value_at_ones() == pytest.approx(1.0, rel=1e-12)
            assert certify_multiaffine(f).is_member


def test_mixtures_certify():
    rng = np.random.default_rng(73)
    basis = subset_basis(4, 2)
    for _ in range(10):
        f = random_member_mixture(basis, rng)
        assert certify_multiaffine(f).is_member


def test_interior_members_are_strict():
    rng = np.random.default_rng(74)
    for n, d in [(4, 2), (8, 4)]:
        basis = subset_basis(n, d)
        dec = uniform_decomposition(n, d)
        for _ in range(5):
            f = random_interior_member(basis, dec, rng)
            assert certify_multiaffine(f).status is VerdictStatus.STRICT_INTERIOR


def test_zero_coefficient_surgery_gives_boundary():
    rng = np.random.default_rng(75)
    basis = subset_basis(3, 2)
    dec = uniform_decomposition(3, 2)
    kept = 0
    for _ in range(10):
        f = random_interior_member(basis, dec, rng)
        g = zero_coefficient_boundary(f, int(rng.integers(basis.size)))
        if g is None:
            continue
        kept += 1
        assert certify_multiaffine(g).status is VerdictStatus.BOUNDARY_WITHIN_TOL
    assert kept >= 5


def test_generators_are_deterministic():
    a = random_form_product(3, 2, np.random.default_rng(7))
    b = random_form_product(3, 2, np.random.default_rng(7))
    assert a.terms == b.terms
