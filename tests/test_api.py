"""Public surface: every exported name exists, and enum arguments take
their members alone."""

import dataclasses
import importlib
import pkgutil

import pytest

import cyclecert
from cyclecert.cyclic_core import (
    Direction,
    find_rotation,
    prefix_condition_all_starts,
    scan_rotation,
    verify_certificate,
)
from cyclecert.domination import (
    Variant,
    decide_parameter_via_prefix,
    max_minimal_parameter,
    min_parameter,
    prefix_pruned_search,
)
from cyclecert.graphs import Graph, cartesian_cycles, cycle
from cyclecert.structures import column_shift_symmetry, columns_partition

MODULES = sorted(m.name for m in pkgutil.iter_modules(cyclecert.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"cyclecert.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_the_domination_star_import_binds_the_budget_error():
    # SearchBudget raises BudgetExceededError, so a star import needs both
    names: dict = {}
    exec("from cyclecert.domination import *", names)
    assert names["BudgetExceededError"] is cyclecert.errors.BudgetExceededError
    assert names["SearchBudget"] is cyclecert.errors.SearchBudget


def test_every_module_but_errors_declares_all():
    # the check above passes vacuously on a module without __all__
    declared = {n for n in MODULES if hasattr(importlib.import_module(f"cyclecert.{n}"), "__all__")}
    assert declared == set(MODULES) - {"errors"}


LIBRARY = ("cyclic_core", "graphs", "iso", "structures", "tiles", "domination", "crossing")


def test_the_package_exports_each_library_modules_all_and_nothing_else():
    exported = {}
    for name in LIBRARY:
        module = importlib.import_module(f"cyclecert.{name}")
        exported.update((attr, getattr(module, attr)) for attr in module.__all__)
    wrong = [attr for attr, obj in exported.items() if getattr(cyclecert, attr, None) is not obj]
    assert wrong == []
    public = {attr for attr in vars(cyclecert) if not attr.startswith("_")}
    assert public - set(exported) <= set(MODULES)
    assert not {"formats", "cli"} & set(exported)


def _torus_search(search):
    g = cartesian_cycles(3, 3)
    return lambda variant: search(g, columns_partition(3, 3), column_shift_symmetry(3, 3), variant, 3)


_BELOW_CERT = find_rotation([1, 2], 5, Direction.BELOW)

ENTRY_POINTS = {
    "find_rotation": lambda x: find_rotation([1, 2], 5, x),
    "scan_rotation": lambda x: scan_rotation([1, 2], 5, x),
    "verify_certificate": lambda x: verify_certificate(
        [1, 2], 5, dataclasses.replace(_BELOW_CERT, direction=x)
    ),
    "prefix_condition_all_starts": lambda x: prefix_condition_all_starts([1, 2], 3, x),
    "min_parameter": lambda x: min_parameter(cycle(5), x),
    "min_parameter_empty_graph": lambda x: min_parameter(Graph.from_edges(0, []), x),
    "max_minimal_parameter": lambda x: max_minimal_parameter(cycle(5), x),
    "prefix_pruned_search": _torus_search(prefix_pruned_search),
    "decide_parameter_via_prefix": _torus_search(decide_parameter_via_prefix),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("value", ["below", "paired", None])
def test_enum_arguments_refuse_non_members(entry, value):
    # a non-member must not take a member's branch: "below" would read as
    # ABOVE, "paired" as DOMINATING
    with pytest.raises(TypeError):
        ENTRY_POINTS[entry](value)


def test_the_empty_graph_still_answers_0_for_each_member():
    # min_parameter checks its variant before it answers the empty graph
    assert [min_parameter(Graph.from_edges(0, []), v).value for v in Variant] == [0, 0, 0]
