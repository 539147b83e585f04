import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cpgate


def test_every_exported_name_resolves():
    for name in cpgate.__all__:
        assert hasattr(cpgate, name), name


def _imports(module):
    # The modules an import statement of cpgate.<module> names, relative
    # imports resolved inside the package.
    tree = ast.parse((Path(cpgate.__file__).parent / f"{module}.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            prefix = "cpgate." if getattr(node, "level", 0) else ""
            module = getattr(node, "module", None)
            parts = [module] if module else [alias.name for alias in node.names]
            names += [prefix + part for part in parts]
    return names


@pytest.mark.parametrize("module", ["analysis", "catalog", "cli", "sequences", "su2"])
def test_only_precise_knows_the_50_digit_format(module):
    # Exact angles reach precise as Fractions of pi, and the 50-digit train
    # is built there: these modules import nothing from mpmath.
    assert not [name for name in _imports(module) if name.split(".")[0] == "mpmath"]


@pytest.mark.parametrize("module, banned", [("su2", "numpy"), ("analysis", "cpgate.precise")])
def test_data_types_and_float_analysis_stand_alone(module, banned):
    # su2 holds the data types, with no array code; analysis reads a slope
    # fit's result and never runs one.
    assert not [name for name in _imports(module) if name.startswith(banned)]


def test_no_module_holds_a_test_oracle_or_a_one_call_wrapper():
    gone = ("verify_order", "trace_range", "closed_form_fidelity", "transport",
            "canonicalize", "_newton")
    for info in pkgutil.iter_modules(cpgate.__path__):
        module = importlib.import_module(f"cpgate.{info.name}")
        assert not [name for name in gone if hasattr(module, name)], info.name
