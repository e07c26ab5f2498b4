"""The package's public surface: the names ``lorentzflow`` exports, the
helpers that left ``src/`` for the tests, and every package name the
benchmark under ``perfbench/`` reads, so that a cleanup cannot break the
benchmark silently."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import lorentzflow
from lorentzflow import polarization, poly
from lorentzflow.poly import SubsetBasis, exponent_table, subset_basis

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lorentzflow"
PERFBENCH = ROOT / "perfbench"

EXPORTS = [
    "EscapeNotBracketed", "EscapeTimeResult", "FlowOverflowError", "HomPoly", "InfiniteEscape",
    "MembershipOracle", "MultiAffinePoly", "PeriodicFlowError", "PolarizationPlan",
    "SpectralDecomposition", "StratumReport", "SubsetBasis", "TranspositionRates", "Verdict",
    "VerdictStatus", "build_generator", "capped_lorentzian_oracle", "centered_norm", "certify_hom",
    "certify_multiaffine", "certify_stable", "elementary_symmetric", "escape_time", "flow",
    "lifted_decomposition", "multiaffine_lorentzian_oracle", "normalize_at_ones", "polarize_up",
    "polarized_flow", "project_down", "restrict_lines", "sample_sphere_sumzero", "spectral",
    "stable_center", "stable_oracle", "subset_basis", "support_stratum", "trajectory",
    "uniform_decomposition", "uniform_rates",
]

# exports with no caller in src/ that are the paper's own objects: the
# centres of the multiaffine and capped balls, and the flow of the lift
PAPER_OBJECTS = {"elementary_symmetric", "stable_center", "lifted_decomposition"}

# names that only tests used, now in tests/ or gone
LEFT_SRC = {
    "poly": ["compositions"],
    "sep": ["SepGenerator"],
    "strata": ["BasisFamily", "MConvexCandidate", "ExchangeResult", "is_matroid_bases", "is_m_convex"],
    "certify": ["real_rooted", "RootResult", "RootClass", "_ROOT_CLASSES"],
    "samples": ["zero_coefficient_boundary"],
}


def _exports():
    return sorted(n for n, v in vars(lorentzflow).items() if not n.startswith("_") and not inspect.ismodule(v))


def _src_references():
    """Every name and attribute read in src/, the export list excluded."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _perfbench_references():
    """(module, name) for every package attribute perfbench reads: through
    a module alias, a ``from lorentzflow.m import`` line, or a dotted
    ``lorentzflow.m.name``."""
    refs = set()
    for path in PERFBENCH.glob("*.py"):
        text = path.read_text()
        aliases = {a: m for m, a in re.findall(r"import lorentzflow\.(\w+) as (\w+)", text)}
        aliases.update({a: m for m, a in re.findall(r"from lorentzflow import (\w+) as (\w+)", text)})
        for alias, module in aliases.items():
            refs |= {(module, name) for name in re.findall(rf"(?<![\w.]){alias}\.(\w+)", text)}
        for module, names in re.findall(r"from lorentzflow\.(\w+) import ([\w, ]+)", text):
            refs |= {(module, name.strip()) for name in names.split(",")}
        refs |= set(re.findall(r"lorentzflow\.(\w+)\.(\w+)", text))
    return refs


def _spans_tables():
    """MODULES and METHODS of perfbench/spans.py, read without importing it."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("MODULES", "METHODS")
    }


def test_export_list_is_pinned():
    assert _exports() == EXPORTS
    assert len(EXPORTS) <= 41


def test_every_export_has_a_caller_or_is_a_paper_object():
    used = _src_references()
    assert [n for n in _exports() if n not in used] == sorted(PAPER_OBJECTS)


def test_test_only_names_left_src():
    for module, names in LEFT_SRC.items():
        mod = importlib.import_module(f"lorentzflow.{module}")
        assert [n for n in names if hasattr(mod, n)] == [], module


def test_perfbench_names_resolve():
    refs = _perfbench_references()
    assert {
        ("sep", "eigen_coords"),
        ("sep", "uniform_decomposition"),
        ("samples", "random_interior_member"),
        ("polarization", "lifted_decomposition"),
        ("polarization", "PolarizationPlan"),
        ("poly", "subset_basis"),
        ("cli", "main"),
    } <= refs
    for module, name in sorted(refs):
        assert hasattr(importlib.import_module(f"lorentzflow.{module}"), name), (module, name)
    tables = _spans_tables()
    for module in tables["MODULES"]:
        importlib.import_module(f"lorentzflow.{module}")
    for module, cls, meth, _ in tables["METHODS"]:
        assert callable(getattr(getattr(importlib.import_module(f"lorentzflow.{module}"), cls), meth))
    # the benchmark's clear_caches empties both caches
    for fn in (poly.subset_basis, polarization.lifted_decomposition):
        assert callable(fn.cache_clear)


def test_subset_basis_reads_the_exponent_table():
    basis = subset_basis(6, 3)
    assert SubsetBasis.__slots__ == ("n", "d")
    assert basis.subsets == tuple(map(tuple, exponent_table(3, (1,) * 6).factors.tolist()))
    # perfbench ranks generators of indices
    assert basis.rank(i for i in (4, 0, 2)) == basis.subsets.index((0, 2, 4))
