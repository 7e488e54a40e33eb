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
its arithmetic on Python numbers, its LU factorisations included, and calls
no numpy: checked on the syntax trees of their sources, and ``_radau_steps``
builds no numpy array for it.  So does the steady-state path of
``analysis.py``: numpy serves it only the eigenvalues of ``_rate`` and
LAPACK's error type.  That LU, generated in ``integrate.py``, is the one
pivoted elimination: the Radau step factors by it, and the steady-state
path solves each Newton step by its ``solve``.  The numpy inverse of the
whole Radau Newton matrix lives in ``tests/test_integrate.py``, as the
reference kernel's.  Two step schemes integrate every run, Dormand-Prince
and Radau: no third one names itself in a ``solver_info``.  One Jacobian
linearises a model, its generated one: no module differences the rhs, and
only ``ModelSystem.bind_jacobian`` reads it.  And one place decides what
a claim point that fails numerically does: ``claims._point``.  The
Dormand-Prince step generated for a compiled model writes the model's rhs
into each stage: its loop calls no function of the model's and hands the
bound rhs only to the step-size error, and a run of the model steps by
that loop.  Each kernel returns the generated loop's own generator,
which spends the step budget itself: a run steps through no other
generator.  The code generator keeps no memo (whoever runs a model keeps
it compiled) and writes every model body, rhs, Jacobian and inlined
stage, through ``dsl._body``: no other module names ``dsl._emit``.  A
model definition is checked once, when it is made: only
``ModelDefinition.__post_init__`` calls ``dsl._issues``, and
``compile_model`` checks nothing.
"""
import ast
import dataclasses
import inspect
from pathlib import Path
from unittest import mock

import pytest

from qsslab import all_kind_names, default_params, default_state, integrate_adaptive, make_model
from qsslab.core import ModelSystem
from qsslab.integrate import (
    _dopri_source,
    _dopri_steps,
    _lu_source,
    _radau_kernel,
    _radau_source,
    _radau_steps,
)

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
# the LU factorisation, the math helpers, its loops, its step-size error and
# its step budget's; and those of the factorisation: its permutation's start
# and the error that LAPACK raises for a singular matrix
RADAU_CALLS = {"f", "jacobian", "lu", "sqrt", "isfinite", "range", "_step_underflow",
               "StiffnessError"}
LU_CALLS = {"range", "LinAlgError"}


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
    calls = set(_calls(tree))
    assert calls == RADAU_CALLS
    assert set(_calls(ast.parse(_lu_source(n)))) == LU_CALLS
    # no name the loop calls is numpy's: the others are its arguments
    namespace = _radau_kernel(n).__globals__
    assert not [name for name in calls if name in namespace
                and getattr(namespace[name], "__module__", "").startswith("numpy")]
    # the state as a list and the polynomial as a tuple of tuples
    yields = [node.value for node in ast.walk(tree) if isinstance(node, ast.Yield)]
    assert [[type(element) for element in value.elts[3:5]] for value in yields] == [
        [ast.List, ast.Tuple]]


# The calls the Dormand-Prince loop generated for a compiled model may make:
# those of the rhs body it inlines (the math helpers, the parameters' reads
# and the errors), its finiteness check, its loop, its step-size error, the
# one place that may evaluate the bound rhs f, and its step budget's error
DOPRI_CALLS = {"float", "_exp", "_log", "_sqrt", "_tanh", "_floor", "_EvaluationError", "_Loc",
               "isfinite", "range", "_step_underflow", "StiffnessError"}


@pytest.mark.parametrize("name", all_kind_names())
def test_a_compiled_models_dopri_loop_inlines_its_rhs(name):
    model = make_model(name)
    tree = ast.parse(_dopri_source(model.dimension, model.rhs.tree))
    assert set(_calls(tree)) <= DOPRI_CALLS
    # f, the bound rhs, is only handed to _step_underflow
    handed = [arg for node in ast.walk(tree) if isinstance(node, ast.Call)
              and ast.unparse(node.func) == "_step_underflow" for arg in node.args]
    used = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "f"]
    assert used and all(any(node is arg for arg in handed) for node in used)
    # the time is a local only of a model that reads it
    assigned = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert ("v_t" in assigned) == model.time_dependent
    # and a run steps by that loop: the bound rhs is evaluated at the start alone
    evaluations, bind = [], ModelSystem.bind

    def counting(model, params):
        f = bind(model, params)
        return lambda t, values: evaluations.append(t) or f(t, values)

    with mock.patch.object(ModelSystem, "bind", counting):
        integrate_adaptive(model, default_params(name), default_state(name), 0.0, 1.0)
    assert evaluations == [0.0]


@pytest.mark.parametrize("name", all_kind_names())
def test_one_generator_per_run(name):
    # each kernel hands its caller the generated loop's own generator, which
    # spends the step budget itself: no generator passes its steps on
    model = make_model(name)
    called = dataclasses.replace(model, rhs=lambda t, y, p: model.rhs(t, y, p))
    args = default_params(name), default_state(name), 0.0, 1.0, 1e-8, 1e-12
    for kernel, run, filename in ((_dopri_steps, model, "<dopri5 kernel, inlined rhs>"),
                                  (_dopri_steps, called, f"<dopri5 kernel, n = {model.dimension}>"),
                                  (_radau_steps, model, f"<radau5 kernel, n = {model.dimension}>")):
        steps = kernel(run, *args)
        assert inspect.isgenerator(steps) and steps.gi_code.co_filename == filename
        assert next(steps)[1] > 0.0
        steps.close()
    integrate = next(p for p in SOURCES if p.name == "integrate.py")
    assert "_within_budget" not in _names(integrate) | _defined(integrate)


def _function(path_name: str, name: str) -> ast.FunctionDef:
    path = next(p for p in SOURCES if p.name == path_name)
    return next(node for node in ast.parse(path.read_text(encoding="utf-8")).body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_radau_steps_builds_no_numpy_array():
    assert not [ast.unparse(node) for node in ast.walk(_function("integrate.py", "_radau_steps"))
                if isinstance(node, ast.Name) and node.id == "np"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_numpy_newton_inverse_is_the_tests_reference(path):
    assert "_radau_newton_inverse" not in _names(path) | _defined(path)


def test_the_reference_kernel_keeps_the_numpy_newton_inverse():
    tests = Path(__file__).resolve().parent / "test_integrate.py"
    assert "_radau_newton_inverse" in _defined(tests)


# What the steady-state path of analysis.py may take from numpy (each
# attribute chain and its prefixes): the error its solve raises as LAPACK's
# does
STEADY_STATE_PATH = {"find_steady_state", "_polish", "_report"}
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


def test_steady_state_path_solves_by_the_generated_lu():
    for name in STEADY_STATE_PATH:
        assert [ast.unparse(node) for node in ast.walk(_function("analysis.py", name))
                if isinstance(node, ast.Subscript) and ast.unparse(node.slice) == "'solve'"
                and ast.unparse(node.value).startswith("_lu(")], name
    analysis = next(p for p in SOURCES if p.name == "analysis.py")
    assert {"_lu", "integrate"} <= _names(analysis)


def _pivoting(tree) -> list:
    """What ``tree`` does that a pivoted elimination does: raise LAPACK's
    error for a zero pivot, or swap two rows in place (``A[k], A[p] =
    A[p], A[k]``)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            if "LinAlgError" in ast.unparse(node.exc):
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
            targets = node.targets[0]
            if (isinstance(targets, ast.Tuple) and len(targets.elts) == 2
                    and all(isinstance(t, ast.Subscript) for t in targets.elts)
                    and [ast.unparse(t) for t in targets.elts[::-1]]
                    == [ast.unparse(v) for v in node.value.elts]):
                found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_generated_lu_is_the_one_pivoted_elimination(path):
    # no module writes an elimination of its own or asks numpy to solve:
    # np.linalg serves only the eigenvalues of analysis._rate and the error
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not _pivoting(tree), path.name
    linalg = {ast.unparse(node) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "np.linalg"}
    assert linalg <= {"np.linalg.LinAlgError", "np.linalg.eigvals"}, path.name


@pytest.mark.parametrize("n", range(1, 6))
def test_the_generated_lu_refuses_a_zero_pivot(n):
    raised = _pivoting(ast.parse(_lu_source(n)))
    assert raised and set(raised) == {"raise LinAlgError('singular Newton matrix')"}



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


def test_one_jacobian():
    # core.ModelSystem.bind_jacobian gives the generated Jacobian, and
    # nothing differences the rhs; the kernels' start is integrate._start
    gone = {"array_jacobian", "_prepare", "_fd_jacobian", "_FD_STEP"}
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        assert not gone & (_names(path) | _defined(path)), path.name
        assert "finite-difference" not in text, path.name
    assert {path.name for path in SOURCES
            if any(isinstance(node, ast.Attribute) and node.attr == "jacobian"
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
            } == {"core.py"}


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


def _decorators(path: Path) -> set[str]:
    """The last name of every decorator in ``path``, called or not."""
    return {ast.unparse(deco.func if isinstance(deco, ast.Call) else deco).rpartition(".")[2]
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            for deco in node.decorator_list}


def test_one_body_generator_and_no_memo_under_compile_model():
    # parse and compile keep nothing (a model's owner keeps it compiled),
    # and the rhs, Jacobian and inlined DP5 bodies all come from dsl._body
    by_name = {path.name: path for path in SOURCES}
    for name in ("dsl.py", "derivatives.py"):
        assert not _decorators(by_name[name]) & {"cache", "lru_cache"}, name
    assert [path.name for path in SOURCES if "_emit" in _names(path) | _defined(path)] == [
        "dsl.py"]
    assert "_body" in _names(by_name["derivatives.py"]) & _names(by_name["integrate.py"])


def test_a_definition_is_checked_once():
    # a ModelDefinition is valid by construction, so compile_model trusts
    # it, and the generators' code tables are keyed by name alone
    tree = ast.parse((SOURCES[0].parent / "dsl.py").read_text(encoding="utf-8"))
    definition = next(node for node in tree.body
                      if isinstance(node, ast.ClassDef) and node.name == "ModelDefinition")
    post_init, compile_model = (
        next(node for node in body if isinstance(node, ast.FunctionDef) and node.name == name)
        for body, name in ((definition.body, "__post_init__"), (tree.body, "compile_model")))

    def checks(node) -> int:
        return sum(isinstance(call, ast.Call) and ast.unparse(call.func) == "_issues"
                   for call in ast.walk(node))
    assert checks(tree) == checks(post_init) == 1
    assert not [node for node in ast.walk(compile_model)
                if isinstance(node, (ast.Try, ast.Raise, ast.If))]
    tables = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets}
    for name in ("_UNARY_CALLS", "_PICKS"):
        keys = tables[name].keys
        assert keys and all(isinstance(key, ast.Constant) and isinstance(key.value, str)
                            for key in keys), name
