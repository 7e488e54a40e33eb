"""The qsslab names that the benchmark harness's tracer wraps and reads.

``perfbench/tracing.py`` looks its traced functions up by name in
``LAYER_OF``; a rename or deletion here would break ``perfbench/run.py
--trace 1``.  ``LAYER_OF`` is read from the source with ``ast``, without
importing perfbench.
"""
import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from qsslab import claims, integrate
from qsslab.catalog import default_params, default_state, make_model

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layer_of() -> dict:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "LAYER_OF"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no LAYER_OF")


@pytest.mark.parametrize("name,layer", sorted(_layer_of().items()))
def test_traced_name_exists_in_its_layer(name, layer):
    module = importlib.import_module(f"qsslab.{layer}")
    # the tracer wraps resolve_params on ModelSystem, every other name in its module
    owner = module.ModelSystem if name == "resolve_params" else module
    assert callable(getattr(owner, name, None)), f"qsslab.{layer}.{name}"


def test_mechanism_cache_exists():
    assert isinstance(claims._MECH_CACHE, dict)


@pytest.mark.parametrize("kind", ["power-destruction", "bcell-depletion"])
def test_rhs_can_be_swapped_on_a_catalog_model(kind):
    # the tracer counts rhs calls by replacing the rhs field of a model
    model, params, state = make_model(kind), default_params(kind), default_state(kind)
    calls = []

    def counted(t, y, p):
        calls.append(t)
        return model.rhs(t, y, p)

    swapped = dataclasses.replace(model, rhs=counted)
    assert swapped.kind == model.kind == kind
    rates = [m.bind(m.resolve_params(params))(0.0, state.values.tolist())
             for m in (model, swapped)]
    assert calls and rates[0] == rates[1]


@pytest.mark.parametrize("solve,extra", [("integrate_adaptive", ()),
                                         ("integrate_fixed", (0.25,))])
def test_integrated_runs_carry_the_counts_the_tracer_reads(solve, extra):
    # the tracer adds solver_info["accepted"] and ["rejected"] of each run
    # that a name of LAYER_OF's "integrate" layer returns
    assert _layer_of()[solve] == "integrate"
    kind = "coupled-agent"
    run = getattr(integrate, solve)(make_model(kind), default_params(kind), default_state(kind),
                                    0.0, 2.0, *extra)
    for key in ("accepted", "rejected"):
        assert type(run.solver_info[key]) is int, key
    assert run.solver_info["accepted"] > 0
