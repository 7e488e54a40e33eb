"""Source structure: one way between accepted steps, one definition per model.

Every value between a solver's accepted points comes from the step's own
interpolant, evaluated in ``integrate.py``: no module interpolates
linearly, and only ``integrate.py`` reads a kernel's step record or sets
numpy's error state for its trial steps.  Each model is defined by its
``.qssm`` file alone: the closed forms live in ``tests/closedform.py`` as
the tests' oracle, and no hook rewrites a model's parameters.  Checked on
the syntax trees of ``src/qsslab/*.py``, so comments and docstrings may
name these functions.  The Radau step generated for each dimension keeps
its per-element arithmetic on Python floats: checked on the syntax tree of
its source.  So does the steady-state path of ``analysis.py``: numpy
serves it only the eigenvalues of ``_rate``, LAPACK's error type and the
finite-difference Jacobian of a model without a generated one.
"""
import ast
from pathlib import Path

import pytest

from qsslab.integrate import _radau_source

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qsslab").glob("*.py"))
STEP_NAMES = {"_dopri_steps", "_radau_steps", "dense_coefficients", "dense_output",
              "collocation_output", "errstate"}


def _names(path: Path) -> set[str]:
    """Every name, attribute, keyword argument, imported name and
    imported-from module that ``path`` references."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.rpartition(".")[2])
    return names


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"analysis.py", "claims.py", "integrate.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_linear_interpolation(path):
    assert "interp" not in _names(path)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_integrate_reads_a_step(path):
    used = _names(path) & STEP_NAMES
    if path.name == "integrate.py":
        assert used == STEP_NAMES
    else:
        assert not used, f"{path.name} references {sorted(used)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_each_model_is_defined_once(path):
    assert path.stem != "closedform"
    used = _names(path) & {"closedform", "param_resolver"}
    assert not used, f"{path.name} references {sorted(used)}"


# The calls the generated Radau loop may make: the bound rhs, the Jacobian,
# the Newton inverse, the product K.dot and its tolist, the yield's arrays,
# the math helpers, its loops and its step-size error
RADAU_CALLS = {"f", "jacobian", "newton_inverse", "K_dot", "K_dot(...).tolist", "array",
               "sqrt", "isfinite", "range", "_step_underflow"}


def _calls(tree):
    """The function called by each call in ``tree``, a method called on a
    call's result as ``name(...).method``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Call)
                    and isinstance(func.value.func, ast.Name)):
                yield f"{func.value.func.id}(...).{func.attr}"
            else:
                yield ast.unparse(func)


@pytest.mark.parametrize("n", range(1, 6))
def test_radau_step_keeps_its_arithmetic_on_floats(n):
    tree = ast.parse(_radau_source(n))
    calls = list(_calls(tree))
    assert set(calls) == RADAU_CALLS
    assert calls.count("K_dot") == calls.count("K_dot(...).tolist") == 1
    in_yield = [call for node in ast.walk(tree) if isinstance(node, ast.Yield)
                for call in _calls(node)]
    assert in_yield.count("array") == calls.count("array") == 2


# What the steady-state path of analysis.py may take from numpy (each
# attribute chain and its prefixes): the error its solve raises as LAPACK's
# does, and the arrays of the finite-difference Jacobian of a model without
# a generated one
STEADY_STATE_PATH = {"find_steady_state", "_polish", "_report", "_solve"}
STEADY_STATE_NUMPY = {"np.linalg", "np.linalg.LinAlgError", "np.array"}


def test_steady_state_path_keeps_its_arithmetic_on_floats():
    path = next(p for p in SOURCES if p.name == "analysis.py")
    functions = {node.name: node for node in ast.parse(path.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.FunctionDef)}
    assert set(functions) >= STEADY_STATE_PATH | {"_rate"}

    def numpy_names(function):
        return {text for node in ast.walk(functions[function]) if isinstance(node, ast.Attribute)
                and (text := ast.unparse(node)).startswith("np.")}

    used = set().union(*map(numpy_names, STEADY_STATE_PATH))
    assert used <= STEADY_STATE_NUMPY, f"numpy: {sorted(used - STEADY_STATE_NUMPY)}"
    assert "np.linalg.eigvals" in numpy_names("_rate")
