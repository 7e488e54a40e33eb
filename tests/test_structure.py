"""Source structure: one way between accepted steps, one definition per model.

Every value between a solver's accepted points comes from the step's own
interpolant, evaluated in ``integrate.py``: no module interpolates
linearly, and only ``integrate.py`` reads a kernel's step record or sets
numpy's error state for its trial steps.  Each model is defined by its
``.qssm`` file alone: the closed forms live in ``tests/closedform.py`` as
the tests' oracle, and no hook rewrites a model's parameters.  Nor does
a ``.qssm`` tree have a second evaluator: the tree walker ``eval_expr``
lives in ``tests/evaluator.py`` as the generated code's oracle.  Checked on
the syntax trees of ``src/qsslab/*.py``, so comments and docstrings may
name these functions.  The Radau step generated for each dimension keeps
its per-element arithmetic on Python floats: checked on the syntax tree of
its source.  So does the steady-state path of ``analysis.py``: numpy
serves it only the eigenvalues of ``_rate`` and LAPACK's error type.  Two
step schemes integrate every run, Dormand-Prince and Radau: no third one
names itself in a ``solver_info``.  One place chooses between a model's
generated Jacobian and finite differences: ``ModelSystem.bind_jacobian``.
And one place decides what a claim point that fails numerically does:
``claims._point``.
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


ORACLE_NAMES = {"eval_expr", "BindingError"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_tree_walking_evaluator_is_the_tests_oracle(path):
    # eval_expr and its BindingError live in tests/evaluator.py: no module
    # defines, imports or exports them (an ``__all__`` entry is a string)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exported = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    used = (_names(path) | _defined(path) | exported) & ORACLE_NAMES
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
# does
STEADY_STATE_PATH = {"find_steady_state", "_polish", "_report", "_solve"}
STEADY_STATE_NUMPY = {"np.linalg", "np.linalg.LinAlgError"}


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



# The step schemes a solver_info names; "csv" marks a trajectory read from a
# file, not a run
STEP_SCHEMES = {"dopri54", "radau5"}


def _scheme_values():
    """(file name, value) of each "scheme" entry that a dict display or a
    ``dict(...)`` call in ``src/qsslab`` writes: a literal's value, or, for
    a parameter of an enclosing function, each argument that a call of the
    function passes for it; any other value as its source text."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    parent = {child: node for tree in trees.values() for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]

    def sources(value):
        """``value``, or what the calls of the function it is a parameter of pass."""
        node = value
        while isinstance(value, ast.Name) and node in parent:
            node = parent[node]
            if isinstance(node, ast.FunctionDef):
                names = [arg.arg for arg in node.args.args]
                if value.id in names:
                    index = names.index(value.id)
                    return [given for call in calls if call.func.id == node.name
                            for given in ([k.value for k in call.keywords if k.arg == value.id]
                                          or call.args[index:index + 1])]
        return [value]

    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                values = [v for k, v in zip(node.keys, node.values)
                          if isinstance(k, ast.Constant) and k.value == "scheme"]
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "dict":
                values = [k.value for k in node.keywords if k.arg == "scheme"]
            else:
                continue
            for value in values:
                for given in sources(value):
                    yield file, (given.value if isinstance(given, ast.Constant)
                                 else ast.unparse(given))


def test_two_step_schemes_integrate_every_run():
    values = set(_scheme_values())
    assert {value for _, value in values} == STEP_SCHEMES | {"csv"}, sorted(values)
    assert {file for file, value in values if value == "csv"} == {"cli.py"}


def _defined(path: Path) -> set[str]:
    """The names of the functions and classes that ``path`` defines."""
    return {node.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_one_place_chooses_the_jacobian():
    # core.ModelSystem.bind_jacobian gives the generated Jacobian or
    # differences the rhs; the kernels' start is integrate._start
    gone = {"array_jacobian", "_prepare"}
    for path in SOURCES:
        assert not gone & (_names(path) | _defined(path)), path.name
    assert {path.name for path in SOURCES if "_fd_jacobian" in _names(path)} == {"core.py"}
    analysis = next(p for p in SOURCES if p.name == "analysis.py")
    assert not [node for node in ast.walk(ast.parse(analysis.read_text(encoding="utf-8")))
                if isinstance(node, ast.Attribute) and node.attr == "jacobian"]


def _handlers_of_point_errors(tree) -> list:
    return [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)
            and node.type is not None and "_POINT_ERRORS" in ast.unparse(node.type)]


def test_one_rule_for_a_failing_claim_point():
    # claims._point alone turns a numerical failure at a claim point into
    # the point's error row and its claim's failure
    path = next(p for p in SOURCES if p.name == "claims.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    point = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_point")
    assert len(_handlers_of_point_errors(tree)) == 1
    assert _handlers_of_point_errors(tree) == _handlers_of_point_errors(point)
