import ast
from pathlib import Path

import pytest

import cpgate


def test_every_exported_name_resolves():
    for name in cpgate.__all__:
        assert hasattr(cpgate, name), name


@pytest.mark.parametrize("module", ["catalog", "cli", "sequences"])
def test_only_precise_knows_the_50_digit_format(module):
    # Exact angles reach precise as Fractions of pi, and the 50-digit train
    # is built there: these modules import nothing from mpmath.
    tree = ast.parse((Path(cpgate.__file__).parent / f"{module}.py").read_text())
    imported = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in (
            [alias.name for alias in node.names]
            if isinstance(node, ast.Import) else [node.module or ""]
        )
    ]
    assert not [name for name in imported if name.split(".")[0] == "mpmath"]
