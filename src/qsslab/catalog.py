"""Model catalog: six single-agent destruction/homeostasis models plus four
multi-compartment collapse mechanisms.

Each model is defined once, in ``models/<kind>.qssm``: its states and their
default initial values, its parameters with defaults and lower bounds, its
slow rates and its equations.  The factories below parse and compile a file
on first use and keep the result; this module adds only the kind enums, the
``healthy`` split parameterization and the mechanisms' horizons.  Catalog
models require every parameter (``default_params`` gives the defaults).

Destruction models
------------------
The base kinds share the state variable T (CD4 T-lymphocyte concentration)
and the source/death parameters ``a`` and ``y``.  ``healthy`` optionally
accepts the split parameterization (``b``, ``delta_T``) with ``y = delta_T - b``.

Mechanism models
----------------
Each mechanism couples T to one or more slow compartments so that the
per-capita removal pressure on T *rises* as T falls: destruction is indirect
(routed through compartments), slow (every slow rate <= y/100 in the shipped
defaults), and self-amplifying.  All immune capacities are CD4-gated by the
help factor T/(h_T + T); each mechanism erodes a different link:

* ``virulence-drift`` -- infectivity drifts upward linearly in time
  (the only time-dependent system); CD4-helped effectors E contain infected
  cells until drift plus antigen-driven exhaustion starve them out.
* ``cytokine-inversion`` -- CTL proliferation is gated by the type-1 cytokine
  share K1/(K1+K2+kappa); infected cells secrete K2, so infection dilutes the
  share and additionally suppresses CTLs directly (q*K2 term).
* ``humoral-cellular-competition`` -- antibody arm B (fed by free virus V)
  and CTL arm C (fed by infected cells I) compete for a cytokine niche
  (share gate w*C/(w*C+B)); B's rise starves C, the B niche is capped, and both
  arms need CD4 help, so control collapses once T sags.
* ``bcell-depletion`` -- virions destroy follicular architecture L, viral
  clearance is c0 + c1*L, so clearance collapses as L erodes.

Default tuning procedure
------------------------
Mechanism defaults were tuned against three shape targets (checked by the
claims module): a latent plateau of at least 50/y, an accelerating-decline
verdict on the collapse window, and a non-decreasing per-capita removal rate
while T falls.  The procedure: (1) place the chronic initial state on the
containment manifold (every fast balance exact); (2) set the slow arm's
growth within a few percent of its loss so erosion starts at ~1e-3/y;
(3) size the escalation terms (exhaustion x_E*I, cytokine suppression q*K2,
niche gates) so the erosion rate grows by one to two decades across the
fall; (4) verify the shape targets by simulation and adjust the drift/boost
rates until the plateau lands in [50/y, 500/y].
"""
from __future__ import annotations

import dataclasses
import functools
from enum import Enum
from importlib import resources

from .core import ModelSystem, ParameterSet, StateVector, check_params
from . import dsl
from .dsl import ModelDefinition, compile_model, parse_model
from .errors import UsageError


class BaseModelKind(str, Enum):
    """The analytically tractable single-destruction-route models."""

    HEALTHY = "healthy"
    LINEAR_DESTRUCTION = "linear-destruction"
    COUPLED_AGENT = "coupled-agent"
    POWER_DESTRUCTION = "power-destruction"
    LOGISTIC_SOURCE = "logistic-source"
    LOGISTIC_PROLIFERATION = "logistic-proliferation"


class MechanismKind(str, Enum):
    """The slow positive-feedback collapse mechanisms."""

    VIRULENCE_DRIFT = "virulence-drift"
    CYTOKINE_INVERSION = "cytokine-inversion"
    HUMORAL_CELLULAR_COMPETITION = "humoral-cellular-competition"
    BCELL_DEPLETION = "bcell-depletion"


def _kind(value: str | BaseModelKind | MechanismKind, *enums):
    name = value.value if isinstance(value, Enum) else str(value)
    for enum in enums:
        try:
            return enum(name)
        except ValueError:
            pass
    names = ", ".join(k.value for enum in enums for k in enum)
    raise UsageError(f"unknown model kind {value!r}; expected one of: {names}")


def _healthy_resolver(raw: dict) -> dict:
    # collapsed parameterization is canonical: y = delta_T - b
    if "y" not in raw and "b" in raw and "delta_T" in raw:
        raw = dict(raw)
        raw["y"] = raw["delta_T"] - raw["b"]
    return raw


# Simulation horizons that contain plateau, collapse, and floor for the
# default parameters (used by the claims module and the CLI defaults).
_MECHANISM_HORIZONS = {
    MechanismKind.VIRULENCE_DRIFT: 600.0,
    MechanismKind.CYTOKINE_INVERSION: 600.0,
    MechanismKind.HUMORAL_CELLULAR_COMPETITION: 1100.0,
    MechanismKind.BCELL_DEPLETION: 700.0,
}


@functools.cache
def _definition(kind: BaseModelKind | MechanismKind) -> ModelDefinition:
    """The parsed ``models/<kind>.qssm``, read on first use."""
    path = resources.files(__package__) / "models" / f"{kind.value}.qssm"
    return parse_model(path.read_text(encoding="utf-8"))


@functools.cache
def _model(kind: BaseModelKind | MechanismKind) -> ModelSystem:
    """The compiled catalog model.  Every parameter is required: the file's
    defaults are served by ``default_params``, not filled in silently."""
    model = compile_model(_definition(kind))
    return dataclasses.replace(
        model,
        kind=kind.value,
        param_schema=tuple(dataclasses.replace(s, default=None) for s in model.param_schema),
        param_resolver=_healthy_resolver if kind is BaseModelKind.HEALTHY else None,
    )


def _build(kind: BaseModelKind | MechanismKind, params: ParameterSet | None) -> ModelSystem:
    model = _model(kind)
    return model if params is None else check_params(model, params)


def make_base_model(kind: str | BaseModelKind, params: ParameterSet | None = None) -> ModelSystem:
    """Construct one of the six analytic models; validates ``params`` if given."""
    return _build(_kind(kind, BaseModelKind), params)


def make_mechanism_model(kind: str | MechanismKind, params: ParameterSet | None = None) -> ModelSystem:
    """Construct one of the four collapse mechanisms; validates ``params`` if given."""
    return _build(_kind(kind, MechanismKind), params)


def make_model(kind: str, params: ParameterSet | None = None) -> ModelSystem:
    """Construct any catalog model by its kebab-case name."""
    return _build(_kind(kind, BaseModelKind, MechanismKind), params)


def default_params(kind: str | BaseModelKind | MechanismKind) -> ParameterSet:
    """The documented default parameter set for a catalog kind: the
    defaults declared in its ``.qssm`` file."""
    return dsl.default_params(_definition(_kind(kind, BaseModelKind, MechanismKind)))


def default_state(kind: str | BaseModelKind | MechanismKind) -> StateVector:
    """Default initial state, as declared in the kind's ``.qssm`` file: the
    chronic latent state for mechanisms, unit concentration (with the
    matching agent level) for the base kinds."""
    return dsl.default_initial_state(_definition(_kind(kind, BaseModelKind, MechanismKind)))


def default_horizon(kind: str | MechanismKind) -> float:
    """Default simulation horizon for a mechanism's full collapse course."""
    return _MECHANISM_HORIZONS[_kind(kind, MechanismKind)]


def all_kind_names() -> list[str]:
    return [k.value for k in BaseModelKind] + [k.value for k in MechanismKind]
