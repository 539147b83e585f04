import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import cpgate

ROOT = Path(__file__).parents[1]


def test_every_exported_name_resolves():
    for name in cpgate.__all__:
        assert hasattr(cpgate, name), name


def test_every_exported_name_is_its_modules_object_and_listed_by_dir():
    listed = dir(cpgate)
    for name in cpgate.__all__:
        value = getattr(cpgate, name)
        module = importlib.import_module(value.__module__)
        assert module.__name__.startswith("cpgate."), name
        assert getattr(module, name) is value, name
        assert name in listed, name
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        cpgate.nothing


def test_every_submodule_is_an_attribute_of_the_package():
    for info in pkgutil.iter_modules(cpgate.__path__):
        assert getattr(cpgate, info.name) is importlib.import_module(
            f"cpgate.{info.name}"
        )


def _fresh(code, *flags, path=ROOT / "src"):
    # The JSON that ``code`` prints last, run in a fresh interpreter, with
    # the interpreter options ``flags``, that imports cpgate from ``path``,
    # this checkout's by default.
    env = {**os.environ, "PYTHONPATH": str(path)}
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


_CLI = """
import contextlib, io, json, sys
from cpgate import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run({argv!r})
print(json.dumps([code, *(name in sys.modules for name in {modules!r})]))
"""
_MODULES = ("numpy", "mpmath", "cpgate.solver", "cpgate.jets", "cpgate.precise", "logging",
            "dataclasses", "inspect")
_SPEC = "phi=0.5;phases=0,0,0,1.0477,1.5126,0.3399,0.75,0.75,0.75,1.7977,2.2626,1.0899"
# A 6-pulse spec whose half holds no leading zero against the one of the
# solver's chart, and Z12's published phases, one leading zero against
# two: underdetermined polishes.
_FREE_SPEC = "phi=1.67;phases=0.0,0.49,0.65,0.165,0.655,0.815"
_Z12_SPEC = ("phi=1;phases=0,0,0.4492,0.4492,1.4099,1.1599,"
             "0.5,0.5,0.9492,0.9492,1.9099,1.6599")
# A rounded 14-pulse row, two halves to round-off, and the same row with its
# last phase moved by 1e-6 rad: off the structure, so range reads it whole.
_ROW = "phi=0.5;phases=0,0,0,0,0.9961,0.9684,0.8855,0.75,0.75,0.75,0.75,1.7461,1.7184"
_TWO_HALVES, _OFF_HALVES = f"{_ROW},1.6355", f"{_ROW},1.6355003183098862"
# Two halves of 13 pulses, one more than range reads through t: the train
# path.
_LONG_HALF = "0,0,0,0,0,0,0,0,0,0,0.3,1.1,0.7"
_LONG_HALVES = "phi=0.5;phases=" + ",".join(
    [_LONG_HALF, *(f"{float(p) + 0.75:g}" for p in _LONG_HALF.split(","))])


def _argv_id(argv):
    # The command line of a table row, each spec above by its name.
    names = {_SPEC: "SPEC", _FREE_SPEC: "FREE_SPEC", _Z12_SPEC: "Z12_SPEC",
             _TWO_HALVES: "TWO_HALVES", _OFF_HALVES: "OFF_HALVES", _LONG_HALVES: "LONG_HALVES"}
    return " ".join(names.get(arg, arg) for arg in argv)


@pytest.mark.parametrize("argv, numpy, solver, precise", [
    (["list"], False, False, False),
    (["tables", "--which", "Z"], False, False, False),
    (["tables", "--which", "IV"], False, False, False),
    (["show", "Z18"], False, False, False),
    *((["build", "--phi", "0.5", "--pulses", str(p)], False, False, False)
      for p in (2, 4, 6, 8)),
    (["build", "--phi", "0.5", "--pulses", "14"], False, False, True),
    (["verify", "--gate", "Z18"], False, False, True),
    (["verify", "--json", "--gate", "T10"], False, False, True),
    (["verify", "--gate", _SPEC], False, False, True),
    (["verify", "--gate", _TWO_HALVES], False, False, True),
    (["verify", "--gate", _FREE_SPEC], False, False, True),
    (["verify", "--gate", _Z12_SPEC], False, False, True),
    (["range", "--gate", "Z8"], False, False, False),
    (["range", "--gate", "Z2"], False, False, False),
    (["range", "--gate", _TWO_HALVES], False, False, False),
    (["range", "--gate", _OFF_HALVES], False, False, False),
    (["range", "--gate", _LONG_HALVES], False, False, False),
    (["sweep", "--gate", "Z8", "--steps", "5"], True, False, False),
    (["sweep", "--gate", "Z2", "--steps", "5"], True, False, False),
    *((["solve", "--order", str(n), "--phi", "0.5", "--seeds", "2"], False, False, False)
      for n in (1, 2, 3, 4)),
    (["solve", "--order", "5", "--phi", "0.5", "--seeds", "2"], True, True, False),
], ids=lambda value: _argv_id(value) if isinstance(value, list) else None)
def test_a_command_loads_numpy_only_where_it_runs_array_code(argv, numpy, solver, precise):
    # numpy serves array code: solve above order 4 (up to it, solve writes
    # the closed form), with solver and jets, and sweep.  range reads
    # every train on Python floats, two halves or not.  Every polish,
    # square (a table row, inline or built) or underdetermined, runs on
    # Python scalars and integers in precise, which only verify and a
    # built table row load: the named trains round stored integers to
    # phases in su2.
    # No command loads mpmath: the trig is precise's own, on
    # integers, and the slope grid is data.  No command loads
    # logging, whose DEBUG records nobody could hear.  The records are
    # su2.Record's, so no command loads dataclasses, and inspect comes in
    # with numpy alone (numpy._core.overrides imports it).
    loaded = _fresh(_CLI.format(argv=argv, modules=_MODULES))
    assert loaded == [0, numpy, False, solver, solver, precise, False, False, numpy]


@pytest.mark.parametrize("argv", [["list"], ["show", "Z18"], ["range", "--gate", "Z8"]])
def test_a_command_reads_the_packaged_data_without_importlib_resources(argv):
    # With site off, no .pth file of the environment (certifi's, say)
    # loads importlib.resources first: catalog reads its data files through
    # its loader, and loads neither it nor pkgutil.
    modules = ("importlib.resources", "pkgutil", "dataclasses", "inspect")
    loaded = _fresh(_CLI.format(argv=argv, modules=modules), "-S")
    assert loaded == [0, False, False, False, False]


def test_building_the_named_trains_runs_no_newton_and_loads_no_numpy():
    built, loaded = _fresh("""
import json, sys
from cpgate import catalog
for name in catalog.names():
    catalog.to_sequence(catalog.get(name))
built = sorted(sys.modules)
for name in catalog.names():
    catalog.half_polynomial(catalog.get(name))
print(json.dumps([built, sorted(sys.modules)]))
""")
    # The 6 exact entries compose their t with trig in precise, so the
    # modules of the build are taken before half_polynomial runs.
    for module in ("logging", "dataclasses", "inspect"):
        assert module not in built
    for module in ("numpy", "mpmath", "cpgate.solver", "cpgate.jets", "cpgate.analysis",
                   "logging"):
        assert module not in loaded
    assert [m for m in built if m.startswith("cpgate")] == [
        "cpgate", "cpgate.catalog", "cpgate.sequences", "cpgate.su2"
    ]


def test_the_packaged_data_is_read_from_a_zip_install(tmp_path):
    # catalog and precise read their data files through su2's loader,
    # which reads them out of the archive as it reads the modules.
    archive = tmp_path / "cpgate.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted((ROOT / "src" / "cpgate").rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(ROOT / "src").as_posix())
    origin, names, phase, fit = _fresh("""
import json
from cpgate import catalog, precise
train = catalog.to_sequence(catalog.get("Z18"))
fit = precise.half_slope_fit(catalog.half_polynomial(catalog.get("Z18")), 18)
print(json.dumps([catalog.__file__, catalog.names(), float(train.phases[5]), fit]))
""", path=archive)
    assert origin.startswith(str(archive))
    assert names == cpgate.catalog.names()
    z18 = cpgate.catalog.get("Z18")
    assert phase == float(cpgate.catalog.to_sequence(z18).phases[5])
    assert fit == list(cpgate.precise.half_slope_fit(cpgate.catalog.half_polynomial(z18), 18))


def test_analysis_type_hints_resolve_without_numpy():
    # analysis imports numpy only where it runs, so its annotations must
    # not name numpy at run time.
    hints, loaded = _fresh("""
import json, sys, typing
from cpgate import analysis
hints = [typing.get_type_hints(analysis.FidelityProfile),
         typing.get_type_hints(analysis._encode_block)]
print(json.dumps([[sorted(h) for h in hints], "numpy" in sys.modules]))
""")
    assert hints == [["epsilons", "frobenius", "sequence_label", "trace"],
                     ["return", "table"]]
    assert not loaded


def test_every_packaged_data_file_is_listed_as_package_data():
    # A file under src/cpgate/data that pyproject.toml does not list is
    # left out of a built wheel.
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[tool\.setuptools\.package-data\]\ncpgate = \[(.*?)\]",
                        text, re.M | re.S)
    listed = sorted(re.findall(r'"([^"]+)"', section.group(1)))
    data = ROOT / "src" / "cpgate" / "data"
    files = sorted(p.relative_to(data.parent).as_posix()
                   for p in data.rglob("*") if p.is_file())
    assert listed == files


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


@pytest.mark.parametrize("module", sorted(cpgate._SUBMODULES))
def test_no_module_imports_mpmath(module):
    # mpmath is the tests' oracle: precise's trig runs on integers and its
    # slope grid is data, so no module imports it, in a function body or
    # anywhere else.
    assert not [name for name in _imports(module) if name.split(".")[0] == "mpmath"]


@pytest.mark.parametrize("path", sorted(Path(cpgate.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_no_module_catches_a_failed_import(path):
    # A run that never loads a module prints the same bytes with that
    # module blocked (sys.modules[name] = None makes its import raise
    # ImportError): the commands that load no numpy or mpmath (see the
    # table above) run alike without them.  That holds while no handler
    # catches the failed import: none is bare, and none names
    # ImportError, ModuleNotFoundError or a base class of theirs.
    caught = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught += ["" if t is None else ast.unparse(t) for t in types]
    banned = {"", "ImportError", "ModuleNotFoundError", "Exception", "BaseException"}
    assert not banned & set(caught)


def _module_level_imports(node):
    # The import statements of ``node`` outside any function body.
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _module_level_imports(child)


def test_precise_imports_neither_numpy_nor_solver():
    # Every polish runs on scalars and integers: precise imports neither
    # numpy nor solver (nor, through it, jets), in a function body or
    # anywhere else.
    assert not [name for name in _imports("precise") if name.split(".")[0] == "numpy"
                or name in ("cpgate.solver", "cpgate.jets")]


@pytest.mark.parametrize("module", sorted(cpgate._SUBMODULES))
def test_no_module_imports_logging_or_typing_to_load(module):
    # DEBUG records go through su2._debug, which logs only where logging
    # is loaded, and no annotation needs typing at run time.
    tree = ast.parse((Path(cpgate.__file__).parent / f"{module}.py").read_text())
    names = [name for node in _module_level_imports(tree)
             for name in (getattr(node, "module", None) or "", *(a.name for a in node.names))]
    assert not {"logging", "typing"} & set(names)


def test_importtime_shows_a_submodule_the_package_loads_on_first_use():
    # cpgate.__getattr__ loads a submodule by an import statement, which
    # -X importtime reports (importlib.import_module is not reported).
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "from cpgate import catalog"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    shown = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "cpgate.catalog" in shown
    assert "cpgate" in shown


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
