"""The escape search on stacked trial times against the one-at-a-time
loop of ``escape_reference``: sigma, anchor, ball point and bracket width
bit for bit, the same refusal when nothing is bracketed, trial rows the
search never reads that cannot change the result, and the number of
oracle calls."""

import numpy as np
import pytest

from escape_reference import CountedOracle, escape_time_reference, same_escape
from lorentzflow import ballmap
from lorentzflow import certify as C
from lorentzflow.ballmap import (
    EscapeNotBracketed,
    MembershipOracle,
    capped_lorentzian_oracle,
    escape_time,
    multiaffine_lorentzian_oracle,
    stable_oracle,
)
from lorentzflow.certify import certify_multiaffine
from lorentzflow.polarization import PolarizationPlan, polarized_flow, project_down
from lorentzflow.poly import normalize_at_ones, subset_basis
from lorentzflow.samples import random_disjoint_form_product
from lorentzflow.sep import flow, uniform_decomposition

import escape_reference
from test_batched_certify import _forms, _multiaffine_part


def _product(n, d, seed):
    """The multiaffine part of a product of positive forms, flowed inside."""
    return flow(_multiaffine_part(_forms(np.random.default_rng(seed), d, n)), 0.3, uniform_decomposition(n, d))


def _partition(n, d, seed):
    """A partition product flowed inside: its exit is a coefficient's."""
    return flow(random_disjoint_form_product(subset_basis(n, d), np.random.default_rng(seed)), 0.5,
                uniform_decomposition(n, d))


def _block(kappa, d, seed):
    """A capped member: a product of forms constant on the lifted blocks,
    projected down and flowed inside."""
    forms = _forms(np.random.default_rng(seed), d, len(kappa))
    plan = PolarizationPlan(len(kappa), d, kappa)
    return polarized_flow(normalize_at_ones(project_down(_multiaffine_part(np.repeat(forms, kappa, axis=1)), plan)),
                          0.3, plan)


def _counted_multiaffine():
    """A custom oracle on a bare certificate callable: no stacked
    membership, so every stack goes one row at a time."""
    return MembershipOracle("counted", lambda f: certify_multiaffine(f), C.DEFAULT_TOL)


CASES = {
    "multiaffine(4,2)": (lambda: _product(4, 2, 1), multiaffine_lorentzian_oracle),
    "multiaffine(6,3)": (lambda: _product(6, 3, 2), multiaffine_lorentzian_oracle),
    "multiaffine(8,4)": (lambda: _product(8, 4, 3), multiaffine_lorentzian_oracle),
    "partition(8,4)": (lambda: _partition(8, 4, 4), multiaffine_lorentzian_oracle),
    "multiaffine(10,5)": (lambda: _product(10, 5, 5), multiaffine_lorentzian_oracle),
    "capped(2,2,2,2)": (lambda: _block((2, 2, 2, 2), 4, 6), capped_lorentzian_oracle),
    "capped(3,3,2,2)": (lambda: _block((3, 3, 2, 2), 4, 7), capped_lorentzian_oracle),
    "stable(2,2,2,2)": (lambda: _block((2, 2, 2, 2), 2, 8), stable_oracle),
    "custom(6,3)": (lambda: _product(6, 3, 9), _counted_multiaffine),
}


@pytest.fixture(scope="module")
def inputs():
    return {name: make() for name, (make, _) in CASES.items()}


class TestAgainstTheReferenceLoop:
    @pytest.mark.parametrize("tol", [1e-8, 1e-12, 1e-20, 1e-300])
    @pytest.mark.parametrize("case", list(CASES))
    def test_bit_for_bit(self, inputs, case, tol):
        f, oracle = inputs[case], CASES[case][1]()
        got, want = escape_time(f, oracle, tol=tol), escape_time_reference(f, oracle, tol=tol)
        assert same_escape(got, want), (got.sigma, want.sigma)
        assert got.converged and want.converged

    @pytest.mark.parametrize("case", ["multiaffine(8,4)", "capped(2,2,2,2)", "stable(2,2,2,2)", "custom(6,3)"])
    def test_same_refusal_when_nothing_is_bracketed(self, inputs, case):
        f, oracle = inputs[case], CASES[case][1]()
        messages = []
        for search in (escape_time, escape_time_reference):
            with pytest.raises(EscapeNotBracketed) as caught:
                search(f, oracle, s_max=1e-3)
            messages.append(str(caught.value))
        assert messages[0] == messages[1] == "still a member after backward time 0.001"

    def test_one_stack_for_a_run_of_doublings_and_one_per_subtree(self, inputs):
        stacked, reference = (CountedOracle(multiaffine_lorentzian_oracle()) for _ in range(2))
        escape_time(inputs["multiaffine(8,4)"], stacked)
        escape_time_reference(inputs["multiaffine(8,4)"], reference)
        assert stacked.calls == 1  # the input's own check
        assert 0 < len(stacked.stacks) <= 16
        assert max(stacked.stacks) <= ballmap._DOUBLINGS
        assert reference.calls > 2 * len(stacked.stacks)
        # a bare certificate callable goes one row at a time
        custom = CountedOracle(_counted_multiaffine())
        escape_time(inputs["multiaffine(8,4)"], custom)
        assert custom.stacks == [] and custom.calls > reference.calls


class TestUnreadRows:
    """A trial row the search never reads cannot change the result, even
    when testing it raises."""

    @staticmethod
    def _times(monkeypatch, module, search, f, oracle):
        """The trial times a search asks the flow for."""
        seen, flow_at = set(), module._flow_at

        def recording(g, dec):
            rows = flow_at(g, dec)

            def at(times):
                seen.update(times)
                return rows(times)

            return at

        monkeypatch.setattr(module, "_flow_at", recording)
        result = search(f, oracle)
        monkeypatch.setattr(module, "_flow_at", flow_at)
        return seen, result

    def _unread(self, monkeypatch, f, oracle):
        """The reference's result, and the rows the reference reads and
        those only the stacked search computes."""
        read, want = self._times(monkeypatch, escape_reference, escape_time_reference, f, oracle)
        tried, got = self._times(monkeypatch, ballmap, escape_time, f, oracle)
        assert same_escape(got, want)
        assert tried - read, "no speculative row"
        rows = ballmap._flow_at(*ballmap._resolve(f, None))
        return want, rows(sorted(read)), rows(sorted(tried - read))

    def test_non_finite_rows(self, inputs, monkeypatch):
        f, oracle = inputs["capped(2,2,2,2)"], capped_lorentzian_oracle()
        want, _, unread = self._unread(monkeypatch, f, oracle)
        unread = {row.tobytes() for row in unread}
        flow_at, spoiled = ballmap._flow_at, []

        def overflowing(g, dec):
            rows = flow_at(g, dec)

            def at(times):
                out = rows(times)
                for row in out:
                    if row.tobytes() in unread:
                        row[0] = np.inf
                        spoiled.append(1)
                return out

            return at

        monkeypatch.setattr(ballmap, "_flow_at", overflowing)
        assert same_escape(escape_time(f, oracle), want)
        assert spoiled

    def test_degenerate_lines(self, inputs, monkeypatch):
        f, oracle = inputs["stable(2,2,2,2)"], stable_oracle()
        want, _, unread = self._unread(monkeypatch, f, oracle)
        unread = {row.tobytes() for row in unread}
        restrict, raised = C.restrict_lines, []

        def degenerate(g, directions, rows=None):
            # one call restricts every row of a stack: spoil the unread rows' lines
            lines = restrict(g, directions, rows)
            for row, line in zip(rows, lines) if rows is not None else [(g.coeffs, lines)]:
                if row.tobytes() in unread:
                    line[0] = 0.0  # a zero line: _root_classes raises
            return lines

        def counted(lines, tol):
            try:
                return root_classes(lines, tol)
            except ValueError:
                raised.append(1)
                raise

        root_classes = C._root_classes
        monkeypatch.setattr(C, "restrict_lines", degenerate)
        monkeypatch.setattr(C, "_root_classes", counted)
        assert same_escape(escape_time(f, oracle), want)
        assert raised

    def test_failed_eigensolve(self, inputs, monkeypatch):
        raised = []
        for case in ("partition(8,4)", "multiaffine(8,4)", "capped(3,3,2,2)"):
            f, oracle = inputs[case], CASES[case][1]()
            want, read, unread = self._unread(monkeypatch, f, oracle)
            # lifted coefficients that only unread rows hold
            lifted = [np.concatenate([C._lift_values(f._like(row)) for row in rows]) for rows in (read, unread)]
            poison = np.setdiff1d(lifted[1], np.append(lifted[0], 0.0))
            checked_eigh = C._checked_eigh

            def failing(H):
                if np.isin(H, poison).any():
                    raised.append(case)
                    raise RuntimeError("eigendecomposition reconstruction error too large")
                return checked_eigh(H)

            monkeypatch.setattr(C, "_checked_eigh", failing)
            assert same_escape(escape_time(f, oracle), want), case
            monkeypatch.setattr(C, "_checked_eigh", checked_eigh)
        assert raised
