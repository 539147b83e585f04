"""Composite pulse sequences for ultrahigh-fidelity quantum phase gates.

Builds, catalogs, solves for, and analyzes trains of nominal pi pulses
whose relative phases cancel systematic pulse-area errors to high order.

The public names load their module on first use (PEP 562), and so does
a submodule named as an attribute: ``from cpgate import catalog`` loads
no numpy, ``cpgate.solve`` loads the solver.
"""

import sys

__version__ = "1.0.0"

# Public name -> the module that defines it.
_EXPORTS = {
    "ArbitraryPhaseRow": "catalog",
    "CatalogEntry": "catalog",
    "CompositeSequence": "su2",
    "ErrorRange": "analysis",
    "FidelityProfile": "analysis",
    "Phase": "su2",
    "Solution": "solver",
    "SolverConfig": "su2",
    "Su2": "su2",
    "arbitrary_row": "catalog",
    "chi_eight": "sequences",
    "chi_six": "sequences",
    "compose": "analysis",
    "eight_pulse": "sequences",
    "four_pulse": "sequences",
    "frobenius_fidelity": "analysis",
    "get": "catalog",
    "high_fidelity_range": "analysis",
    "residual": "solver",
    "six_pulse": "sequences",
    "solve": "solver",
    "structured_sequence": "sequences",
    "sweep": "analysis",
    "target_gate": "su2",
    "to_sequence": "catalog",
    "trace_fidelity": "analysis",
    "two_pulse": "sequences",
}
_SUBMODULES = frozenset(
    {"analysis", "catalog", "cli", "jets", "precise", "sequences", "solver", "su2"}
)

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # An import statement, which -X importtime times (import_module is not).
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if name in _EXPORTS:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
