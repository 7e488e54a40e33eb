"""qsslab: a workbench for quasi-steady-state CD4 T-cell decline models.

Build catalog models or define your own in the ``.qssm`` language, integrate
them with the adaptive Dormand-Prince 5(4) pair (stored at its steps or on a
``dt`` grid) or the stiff Radau IIA(5) kernel, extract steady states /
approach times / curvature classes, and check the registered claims about
destruction-only versus slow-feedback dynamics.
"""

from .analysis import (
    CurvatureVerdict,
    SteadyStateReport,
    classify_curvature,
    find_steady_state,
    qss_reduce,
    time_to_epsilon,
)
from .catalog import (
    BaseModelKind,
    MechanismKind,
    all_kind_names,
    default_horizon,
    default_params,
    default_state,
    make_base_model,
    make_mechanism_model,
    make_model,
)
from .claims import ClaimReport, SweepSpec, run_claim, sweep
from .core import ModelSystem, ParameterSet, ParamSpec, StateVector, eval_rhs, validate
from .dsl import ModelDefinition, compile_model, format_model, parse_model
from .integrate import Trajectory, integrate_adaptive, integrate_fixed
from .svg import render_plot

__version__ = "0.1.0"

__all__ = [
    "BaseModelKind",
    "ClaimReport",
    "CurvatureVerdict",
    "MechanismKind",
    "ModelDefinition",
    "ModelSystem",
    "ParamSpec",
    "ParameterSet",
    "StateVector",
    "SteadyStateReport",
    "SweepSpec",
    "Trajectory",
    "all_kind_names",
    "classify_curvature",
    "compile_model",
    "default_horizon",
    "default_params",
    "default_state",
    "eval_rhs",
    "find_steady_state",
    "format_model",
    "integrate_adaptive",
    "integrate_fixed",
    "make_base_model",
    "make_mechanism_model",
    "make_model",
    "parse_model",
    "qss_reduce",
    "render_plot",
    "run_claim",
    "sweep",
    "time_to_epsilon",
    "validate",
]
