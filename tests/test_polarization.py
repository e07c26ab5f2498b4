"""Tests for the lift/project pair, the capped-space flow on the
composition chain, the ball map's frame on the chain, and the
distinguished interior point of the capped space."""

import json
import math

import numpy as np
import pytest

from lorentzflow.poly import (
    HomPoly,
    MultiAffinePoly,
    elementary_symmetric,
    normalize_at_ones,
    subset_basis,
)
from lorentzflow import ballmap, cli, polarization, sep
from lorentzflow import io as pio
from lorentzflow.ballmap import capped_lorentzian_oracle, escape_time, trajectory
from lorentzflow.polarization import (
    PolarizationPlan,
    lifted_decomposition,
    polarize_up,
    polarized_flow,
    project_down,
    stable_center,
)
from lorentzflow.samples import random_disjoint_form_product, random_form_product
from lorentzflow.sep import (
    FlowOverflowError,
    PeriodicFlowError,
    TranspositionRates,
    _centered,
    centered_norm,
    composition_chain,
    flow,
    spectral,
    uniform_decomposition,
)

from certify_reference import compositions
from flow_helpers import (
    ball_coordinates,
    helmert_reference,
    lifted_frame,
    polarize_up_reference,
    polarized_flow_reference,
    project_down_reference,
    symmetrize_partition,
)


def _random_capped(rng, n=None, d=None):
    n = n or int(rng.integers(2, 5))
    d = d or int(rng.integers(1, 4))
    kappa = tuple(int(k) for k in rng.integers(1, 4, size=n))
    while sum(kappa) > 12 or sum(kappa) < d:
        kappa = tuple(int(k) for k in rng.integers(1, 4, size=n))
    alphas = [a for a in compositions(d, n, caps=kappa)]
    coeffs = np.abs(rng.standard_normal(len(alphas))) + 0.01
    terms = dict(zip(alphas, coeffs))
    return normalize_at_ones(HomPoly(n, d, kappa, terms))


class TestPolarizeUp:
    def test_square_becomes_product(self):
        f = HomPoly(1, 2, (2,), {(2,): 1.0})
        g = polarize_up(f)
        assert g.n == 2 and g.d == 2
        assert np.allclose(g.coeffs, [1.0])

    def test_mixed_caps_example(self):
        # (w0^2 + w0 w1)/2 with caps (2, 1): the square spreads onto the
        # block pair, the cross term splits evenly across the block
        f = HomPoly(2, 2, (2, 1), {(2, 0): 0.5, (1, 1): 0.5})
        g = polarize_up(f)
        basis = g.basis
        assert g.n == 3
        assert g.coefficient((0, 1)) == pytest.approx(0.5)   # block pair of variable 0
        assert g.coefficient((0, 2)) == pytest.approx(0.25)
        assert g.coefficient((1, 2)) == pytest.approx(0.25)
        assert basis.size == 3

    def test_preserves_value_at_ones(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            f = _random_capped(rng)
            assert polarize_up(f).value_at_ones() == pytest.approx(
                f.value_at_ones(), rel=1e-12
            )

    def test_block_symmetric(self):
        rng = np.random.default_rng(42)
        f = _random_capped(rng, n=2, d=2)
        plan = PolarizationPlan(f.n, f.d, f.kappa)
        g = polarize_up(f, plan)
        sym = symmetrize_partition(g, [list(b) for b in plan.blocks])
        assert np.allclose(sym.coeffs, g.coeffs, atol=1e-14)

    def test_cap_violation_raises(self):
        f = HomPoly(2, 2, (2, 2), {(2, 0): 1.0})
        plan = PolarizationPlan(2, 2, (1, 2))
        with pytest.raises(ValueError, match="exceeds caps"):
            polarize_up(f, plan)

    def test_plan_mismatch_raises(self):
        f = HomPoly(2, 2, (2, 2), {(1, 1): 1.0})
        for plan in (PolarizationPlan(3, 2, (2, 2, 2)), PolarizationPlan(2, 3, (2, 2))):
            with pytest.raises(ValueError, match="does not match"):
                polarize_up(f, plan)


class TestProjectDown:
    def test_block_pair_collapses_to_square(self):
        plan = PolarizationPlan(1, 2, (2,))
        g = MultiAffinePoly(subset_basis(2, 2), [1.0])
        f = project_down(g, plan)
        assert f.terms == {(2,): 1.0}

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            f = _random_capped(rng)
            plan = PolarizationPlan(f.n, f.d, f.kappa)
            back = project_down(polarize_up(f, plan), plan)
            assert back.kappa == f.kappa
            for alpha in f.terms:
                assert back.coefficient(alpha) == pytest.approx(
                    f.coefficient(alpha), rel=1e-12, abs=1e-15
                )

    def test_lift_after_project_symmetrizes(self):
        # a single lifted variable projects to the whole block average
        plan = PolarizationPlan(1, 1, (2,))
        g = MultiAffinePoly(subset_basis(2, 1), [1.0, 0.0])
        f = project_down(g, plan)
        again = polarize_up(f, plan)
        assert np.allclose(again.coeffs, [0.5, 0.5])

    def test_basis_mismatch(self):
        plan = PolarizationPlan(1, 2, (2,))
        with pytest.raises(ValueError):
            project_down(MultiAffinePoly(subset_basis(3, 2), [1, 0, 0]), plan)


@pytest.mark.parametrize(
    "kappa, d",
    [((1, 1, 1, 1, 1), 3), ((1, 2, 3), 3), ((5, 1, 2), 4), ((2, 2, 2, 2), 4), ((4, 4, 4, 4), 4), ((3, 5, 6), 4)],
)
def test_gathers_equal_the_reference_loops(kappa, d):
    """Same lifted coefficients, and the same projected terms in the same
    insertion order, as the per-subset loops, on inputs with zero and
    missing coefficients, terms in shuffled order, and a lifted input that
    is not block-symmetric and mostly zero, so that compositions first
    appear out of code order. At kappa = (3, 5, 6) one term divides by
    two binomials that are not powers of two, so the order of the
    divisions shows in the last bit."""
    rng = np.random.default_rng(sum(kappa) * 10 + d)
    alphas = list(compositions(d, len(kappa), caps=kappa))
    rng.shuffle(alphas)
    coeffs = rng.standard_normal(len(alphas))
    coeffs[rng.random(len(alphas)) < 0.3] = 0.0
    f = HomPoly(len(kappa), d, kappa, dict(zip(alphas[1:], coeffs[1:])))
    plan = PolarizationPlan(len(kappa), d, kappa)
    lifted = polarize_up(f, plan)
    assert np.array_equal(lifted.coeffs, polarize_up_reference(f, plan).coeffs)
    raw = rng.standard_normal(plan.lifted_basis.size)
    raw[rng.random(raw.size) < 0.8] = 0.0
    for g in (lifted, MultiAffinePoly(plan.lifted_basis, raw)):
        got, want = project_down(g, plan), project_down_reference(g, plan)
        assert list(got.terms.items()) == list(want.terms.items())


class TestStableCenter:
    def test_two_by_two(self):
        f = stable_center(2, 2)
        assert f.terms[(2, 0)] == pytest.approx(1 / 6)
        assert f.terms[(1, 1)] == pytest.approx(4 / 6)
        assert f.terms[(0, 2)] == pytest.approx(1 / 6)

    def test_degree_one_is_average(self):
        f = stable_center(4, 1)
        assert all(c == pytest.approx(1 / 4) for c in f.terms.values())

    def test_lift_is_normalized_elementary(self):
        for n, d in [(2, 2), (3, 2), (2, 3)]:
            f = stable_center(n, d)
            g = polarize_up(f)
            total = math.comb(n * d, d)
            assert np.allclose(g.coeffs, 1 / total, atol=1e-15)

    def test_line_restriction_matches_duplicated_direction(self):
        # restricting the center along y equals restricting the lifted
        # normalized elementary polynomial along y with each entry repeated
        rng = np.random.default_rng(44)
        for n, d in [(2, 2), (3, 2), (2, 4), (3, 3)]:
            f = stable_center(n, d)
            e = normalize_at_ones(elementary_symmetric(n * d, d))
            for _ in range(5):
                y = rng.standard_normal(n)
                y_rep = np.repeat(y, d)
                assert np.allclose(
                    f.restrict_line(y), e.restrict_line(y_rep), atol=1e-10
                )

    def test_size_cap(self):
        with pytest.raises(ValueError):
            stable_center(17, 2)

    def test_fixed_point_past_the_lift_cap(self):
        # n*d = 32 lifted variables; the chain flows it without a lift
        f = stable_center(4, 8)
        for s in (-0.5, 0.3, 2.0):
            assert np.abs(polarized_flow(f, s).coeffs - f.coeffs).max() <= 1e-12


class TestPolarizedFlow:
    def test_time_zero_identity(self):
        rng = np.random.default_rng(45)
        f = _random_capped(rng, n=3, d=2)
        g = polarized_flow(f, 0.0)
        for alpha in f.terms:
            assert g.coefficient(alpha) == pytest.approx(f.coefficient(alpha), abs=1e-12)

    def test_center_is_fixed_point(self):
        f = stable_center(2, 3)
        for s in [0.1, 1.0, 5.0]:
            g = polarized_flow(f, s)
            for alpha in f.terms:
                assert g.coefficient(alpha) == pytest.approx(f.coefficient(alpha), abs=1e-12)

    def test_semigroup(self):
        rng = np.random.default_rng(46)
        for _ in range(10):
            f = _random_capped(rng, n=3, d=2)
            s, t = rng.uniform(-1, 2, size=2)
            left = polarized_flow(polarized_flow(f, t), s)
            right = polarized_flow(f, s + t)
            err = max(
                abs(left.coefficient(a) - right.coefficient(a))
                for a in set(left.terms) | set(right.terms)
            )
            assert err < 1e-10

    def test_preserves_value_at_ones(self):
        rng = np.random.default_rng(47)
        f = _random_capped(rng, n=4, d=2)
        g = polarized_flow(f, 1.3)
        assert g.value_at_ones() == pytest.approx(1.0, abs=1e-10)

    def test_contracts_toward_center(self):
        rng = np.random.default_rng(48)
        f = _random_capped(rng, n=2, d=2)
        plan = PolarizationPlan(f.n, f.d, f.kappa)
        dec = lifted_decomposition(plan.lifted_n, plan.d)
        norms = [
            centered_norm(polarize_up(polarized_flow(f, s), plan), dec)
            for s in [0.0, 0.5, 1.5, 3.0]
        ]
        assert all(a > b for a, b in zip(norms, norms[1:]))


def _nonincreasing_caps(total, largest=None):
    """Every nonincreasing cap vector with entries summing to ``total``."""
    if total == 0:
        yield ()
        return
    for k in range(min(total, largest or total), 0, -1):
        for rest in _nonincreasing_caps(total - k, k):
            yield (k,) + rest


# every nonincreasing kappa with sum(kappa) <= 12 and d = 2..4
CHAIN_CORPUS = [
    (kappa, d)
    for total in range(2, 13)
    for kappa in _nonincreasing_caps(total)
    for d in range(2, min(4, total) + 1)
]


def _max_rel_error(got, want):
    alphas = set(got.terms) | set(want.terms)
    scale = max(abs(c) for c in want.terms.values())
    return max(abs(got.coefficient(a) - want.coefficient(a)) for a in alphas) / scale


@pytest.fixture
def dense_builds(monkeypatch):
    """Names of the dense generator builds and decompositions made while
    the test runs, whichever module asks for them."""
    calls = []
    for mod in (sep, polarization, ballmap, cli):
        for name in ("build_generator", "spectral", "uniform_decomposition", "lifted_decomposition"):
            if hasattr(mod, name):
                def counted(*args, _real=getattr(mod, name), _name=name, **kwargs):
                    calls.append(_name)
                    return _real(*args, **kwargs)

                monkeypatch.setattr(mod, name, counted)
    return calls


class TestCompositionChain:
    def test_agrees_with_the_lifted_flow(self):
        """The chain against lift -> dense flow -> project on every cap
        vector of the corpus, in both time directions, on signed inputs
        with some zero and missing terms."""
        rng = np.random.default_rng(24)
        assert len(CHAIN_CORPUS) == 803
        worst = 0.0
        for kappa, d in CHAIN_CORPUS:
            alphas = list(compositions(d, len(kappa), caps=kappa))
            coeffs = rng.standard_normal(len(alphas))
            coeffs[rng.random(len(alphas)) < 0.2] = 0.0
            keep = rng.random(len(alphas)) < 0.9
            keep[0] = True
            coeffs[0] = 1.0
            f = HomPoly(len(kappa), d, kappa, {a: c for a, c, k in zip(alphas, coeffs, keep) if k})
            for s in (-0.3, 0.05, 2.0):
                err = _max_rel_error(polarized_flow(f, s), polarized_flow_reference(f, s))
                assert err <= 1e-12, (kappa, d, s, err)
                worst = max(worst, err)
        assert worst > 0.0  # the two paths are different arithmetic

    def test_spectrum_is_johnson(self):
        for kappa, d in CHAIN_CORPUS:
            total = sum(kappa)
            johnson = np.array([1 - k * (total + 1 - k) / math.comb(total, 2)
                                for k in range(min(d, total - d) + 1)])
            lam = composition_chain(d, kappa).eigenvalues
            assert lam[0] == 1.0
            assert np.abs(lam[:, None] - johnson).min(axis=1).max() <= 1e-13, (kappa, d)

    def test_chain_past_the_lift_cap(self):
        # 165 states on N = 32 lifted variables, twice what a lift may hold
        kappa, d = (8, 8, 8, 8), 8
        chain = composition_chain(d, kappa)
        assert chain.vectors.shape == (165, 165)
        total = sum(kappa)
        johnson = np.array([1 - k * (total + 1 - k) / math.comb(total, 2) for k in range(d + 1)])
        assert np.abs(chain.eigenvalues[:, None] - johnson).min(axis=1).max() <= 1e-13
        with pytest.raises(ValueError, match="above the cap"):
            PolarizationPlan(4, d, kappa)

    @pytest.mark.parametrize("n, d", [(5, 2), (6, 3), (8, 4), (10, 5), (12, 6)])
    def test_unit_caps_are_the_uniform_decomposition(self, n, d):
        """At kappa = 1^n the chain's fill adds the floats of the
        transposition fill under uniform rates, in the same order."""
        chain, dense = composition_chain(d, (1,) * n), uniform_decomposition(n, d)
        for name in ("eigenvalues", "vectors", "weights"):
            assert np.array_equal(getattr(chain, name), getattr(dense, name)), name

    def test_read_only_and_cached(self):
        chain = composition_chain(4, (4, 4, 4, 4))
        assert chain is composition_chain(4, (4, 4, 4, 4))
        assert chain.vectors.shape == (35, 35)
        for arr in (chain.weights, chain.eigenvalues, chain.vectors):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_periodic_and_degenerate_caps(self):
        # kappa = (1, 1), d = 1 is the periodic swap on both paths
        with pytest.raises(PeriodicFlowError):
            polarized_flow(HomPoly(2, 1, (1, 1), {(1, 0): 1.0}), 0.1)
        with pytest.raises(ValueError, match="at least two"):
            polarized_flow(HomPoly(1, 1, (1,), {(1,): 1.0}), 0.1)

    def test_lifted_decomposition_is_checked(self):
        rng = np.random.default_rng(25)
        f = random_form_product(2, 2, rng)
        plan = PolarizationPlan(2, 2, f.kappa)
        dec = lifted_decomposition(plan.lifted_n, 2)
        assert _max_rel_error(polarized_flow(f, 0.5, plan, dec), polarized_flow(f, 0.5)) == 0.0
        skewed = spectral(
            plan.lifted_basis, TranspositionRates(4, {(0, 1): 0.5, (1, 2): 0.25, (2, 3): 0.25}))
        with pytest.raises(ValueError, match="uniform rates"):
            polarized_flow(f, 0.5, plan, skewed)
        with pytest.raises(ValueError, match="plan expects"):
            polarized_flow(f, 0.5, plan, lifted_decomposition(5, 2))
        oracle = capped_lorentzian_oracle()
        for bad in (skewed, lifted_decomposition(5, 2)):
            with pytest.raises(ValueError):
                escape_time(f, oracle, bad)

    def test_multiaffine_flows_on_its_own_decomposition(self):
        # with no plan, a multiaffine f flows on the dec it is handed, as in
        # escape_time and trajectory; with a plan it flows on its chain, and
        # the dec is only checked
        basis = subset_basis(4, 2)
        f = random_disjoint_form_product(basis, np.random.default_rng(30))
        custom = spectral(basis, TranspositionRates(4, {(0, 1): 0.5, (1, 2): 0.25, (2, 3): 0.25}))
        assert np.array_equal(polarized_flow(f, 0.5, dec=custom).coeffs, flow(f, 0.5, custom).coeffs)
        assert np.array_equal(trajectory(f, custom, [0.5])[0].poly.coeffs, flow(f, 0.5, custom).coeffs)
        plan = PolarizationPlan(4, 2, (1,) * 4)
        with pytest.raises(ValueError, match="uniform rates"):
            polarized_flow(f, 0.5, plan, custom)
        uniform = polarized_flow(f, 0.5, plan, uniform_decomposition(4, 2))
        assert np.array_equal(uniform.coeffs, flow(f, 0.5, composition_chain(2, (1,) * 4)).coeffs)

    def test_overflow_guard_on_the_chain_spectrum(self):
        f = random_form_product(3, 3, np.random.default_rng(26))
        gap = 1.0 - float(composition_chain(3, f.kappa).eigenvalues[-1])
        with pytest.raises(FlowOverflowError):
            polarized_flow(f, -701.0 / gap)
        polarized_flow(f, -600.0 / gap)

    def test_builds_no_dense_decomposition(self, dense_builds, tmp_path, capsys):
        f = polarized_flow(random_form_product(4, 4, np.random.default_rng(16)), 0.3)
        polarized_flow(f, 0.5)
        res = escape_time(f, capped_lorentzian_oracle())
        assert res.sigma > 0.0
        assert res.ball_point.size == 34
        path = tmp_path / "capped.json"
        pio.save_poly(f, path)
        assert cli.main(["flow", "--polarized", "--input", str(path), "--times", "0,0.5,-0.1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert dense_builds == []

    def test_multiaffine_cli_runs_on_the_chain(self, dense_builds, tmp_path, capsys):
        basis = subset_basis(6, 3)
        f = flow(random_disjoint_form_product(basis, np.random.default_rng(29)), 0.3,
                 composition_chain(3, (1,) * 6))
        path = tmp_path / "multiaffine.json"
        pio.save_poly(f, path)
        assert cli.main(["ballmap", "--input", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["ball_point"]) == basis.size - 1
        assert cli.main(["flow", "--input", str(path), "--times", "0,0.5,-0.1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert cli.main(["sample", "--kind", "multiaffine", "--n", "6", "--d", "3", "--count", "2",
                         "--interior", "0.3", "--output-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert dense_builds == []

    def test_escape_matches_the_lifted_stepper(self):
        """The ball map reads the anchor in the chain's frame, with or
        without a lifted decomposition handed in."""
        f = polarized_flow(random_form_product(2, 3, np.random.default_rng(27)), 0.3)
        plan = PolarizationPlan(2, 3, f.kappa)
        oracle = capped_lorentzian_oracle()
        res = escape_time(f, oracle)
        again = escape_time(f, oracle, lifted_decomposition(plan.lifted_n, 3), plan=plan)
        assert res.sigma == again.sigma
        assert np.array_equal(res.ball_point, again.ball_point)
        h = ball_coordinates(stable_center(2, 3), oracle)
        assert np.array_equal(h, np.zeros(composition_chain(3, f.kappa).size - 1))


def _frame(g, dec):
    """The ball map's frame: weighted Helmert coordinates of centered c / w."""
    return ballmap._helmert(_centered(g, dec), dec.weights)


def _distances(points):
    points = np.asarray(points)
    return np.linalg.norm(points[:, None] - points[None], axis=2)


class TestChainFrame:
    def test_frame_is_the_lifted_frame_up_to_isometry(self):
        """On every cap vector of the corpus, signed vectors keep their
        lifted norms and distances in M - 1 coordinates."""
        rng = np.random.default_rng(270)
        for kappa, d in CHAIN_CORPUS:
            chain = composition_chain(d, kappa)
            polys = [HomPoly._from_coeffs(len(kappa), d, kappa, rng.standard_normal(chain.size))
                     for _ in range(3)]
            got = [_frame(g, chain) for g in polys]
            want = [lifted_frame(g) for g in polys]
            assert got[0].size == chain.size - 1
            assert np.abs(np.linalg.norm(got, axis=1) - np.linalg.norm(want, axis=1)).max() <= 1e-12
            assert np.abs(_distances(got) - _distances(want)).max() <= 1e-12, (kappa, d)

    def test_ball_points_match_the_lifted_frame(self):
        """Escapes of seeded capped members with sum(kappa) <= 12: the ball
        points have the norms and pairwise distances of exp(-sigma) times
        the lifted anchor's direction."""
        oracle = capped_lorentzian_oracle()
        for n, d, seeds in [(3, 2, range(4)), (3, 3, range(4)), (4, 3, range(3))]:
            got, want = [], []
            for seed in seeds:
                f = polarized_flow(random_form_product(n, d, np.random.default_rng(seed)), 0.3)
                res = escape_time(f, oracle)
                h = lifted_frame(res.anchor)
                assert res.ball_point.size == composition_chain(d, f.kappa).size - 1
                got.append(res.ball_point)
                want.append(math.exp(-res.sigma) * h / np.linalg.norm(h))
            assert np.abs(np.linalg.norm(got, axis=1) - np.linalg.norm(want, axis=1)).max() <= 1e-12
            assert np.abs(_distances(got) - _distances(want)).max() <= 1e-12, (n, d)

    def test_unit_weights_keep_the_unweighted_frame_bit_for_bit(self):
        rng = np.random.default_rng(271)
        for n, d in [(6, 3), (8, 4), (10, 5)]:
            basis = subset_basis(n, d)
            for dec in (uniform_decomposition(n, d), composition_chain(d, (1,) * n)):
                assert np.array_equal(dec.weights, np.ones(basis.size))
                for _ in range(3):
                    f = normalize_at_ones(MultiAffinePoly(basis, rng.random(basis.size)))
                    c = f.coeffs
                    assert np.array_equal(_frame(f, dec), helmert_reference(c))
                    assert centered_norm(f, dec) == float(np.linalg.norm(c - c.mean()))
                    g = flow(f, -0.2, dec)
                    assert np.array_equal(_frame(g, dec), helmert_reference(g.coeffs))
