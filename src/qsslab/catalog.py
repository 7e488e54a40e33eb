"""Model catalog: six single-agent destruction/homeostasis models plus four
multi-compartment collapse mechanisms.

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
  (share gate C/(C+B)); B's rise starves C, the B niche is capped, and both
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

import functools
from enum import Enum

import numpy as np

from .core import ModelSystem, ParameterSet, ParamSpec, StateVector, validate
from .errors import ParameterError, UsageError


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


def _kind(value: str | BaseModelKind | MechanismKind, enum):
    if isinstance(value, enum):
        return value
    try:
        return enum(str(value))
    except ValueError:
        names = ", ".join(k.value for k in enum)
        raise UsageError(f"unknown model kind {value!r}; expected one of: {names}") from None


def _healthy_resolver(raw: dict) -> dict:
    # collapsed parameterization is canonical: y = delta_T - b
    if "y" not in raw and "b" in raw and "delta_T" in raw:
        raw = dict(raw)
        raw["y"] = raw["delta_T"] - raw["b"]
    return raw


def _float_state(rhs):
    """Evaluate ``rhs`` on the state as Python floats, which gives the same
    bits as numpy float64 scalars at about half the cost per call.

    Where Python floats leave IEEE arithmetic -- a zero divisor or an
    overflowing power raises, a negative base to a fractional power turns
    complex -- the call is repeated on float64 scalars, which return the
    inf or nan that every caller checks for.
    """
    @functools.wraps(rhs)
    def evaluate(t, s, p):
        try:
            return np.array(rhs(t, s.tolist(), p), dtype=float)
        except (ZeroDivisionError, OverflowError, TypeError):  # TypeError: complex
            with np.errstate(all="ignore"):
                return np.array(rhs(t, np.asarray(s, dtype=float), p), dtype=float)

    return evaluate


@_float_state
def _rhs_healthy(t, s, p):
    T = s[0]
    return [p["a"] - p["y"] * T]


@_float_state
def _rhs_linear(t, s, p):
    T = s[0]
    return [p["a"] - p["y"] * T - p["gamma"] * T]


@_float_state
def _rhs_coupled(t, s, p):
    T, D = s
    return [p["a"] - p["y"] * T - D * T, p["x"] * T - p["delta_D"] * D]


@_float_state
def _rhs_power(t, s, p):
    T = s[0]
    return [p["a"] - p["y"] * T - p["gamma"] * T ** p["n"]]


@_float_state
def _rhs_logistic(t, s, p):
    T = s[0]
    return [p["a"] + p["y"] * T - p["gamma"] * T ** 2]


_BASE_MODELS = {
    BaseModelKind.HEALTHY: dict(
        state_names=("T",),
        param_schema=(
            ParamSpec("a", 0.0, False, None),
            ParamSpec("y", 0.0, True, None),
        ),
        rhs=_rhs_healthy,
        equation="dT/dt = a - y*T",
        param_resolver=_healthy_resolver,
    ),
    BaseModelKind.LINEAR_DESTRUCTION: dict(
        state_names=("T",),
        param_schema=(
            ParamSpec("a", 0.0, False, None),
            ParamSpec("y", 0.0, True, None),
            ParamSpec("gamma", 0.0, False, None),
        ),
        rhs=_rhs_linear,
        equation="dT/dt = a - y*T - gamma*T",
    ),
    BaseModelKind.COUPLED_AGENT: dict(
        state_names=("T", "D"),
        param_schema=(
            ParamSpec("a", 0.0, False, None),
            ParamSpec("y", 0.0, False, None),
            ParamSpec("x", 0.0, False, None),
            ParamSpec("delta_D", 0.0, True, None),
        ),
        rhs=_rhs_coupled,
        equation="dT/dt = a - y*T - D*T ; dD/dt = x*T - delta_D*D",
    ),
    BaseModelKind.POWER_DESTRUCTION: dict(
        state_names=("T",),
        param_schema=(
            ParamSpec("a", 0.0, False, None),
            ParamSpec("y", 0.0, False, None),
            ParamSpec("gamma", 0.0, False, None),
            ParamSpec("n", 1.0, True, None),
        ),
        rhs=_rhs_power,
        equation="dT/dt = a - y*T - gamma*T^n  (n > 1)",
    ),
    BaseModelKind.LOGISTIC_SOURCE: dict(
        state_names=("T",),
        param_schema=(
            ParamSpec("a", 0.0, False, None),
            ParamSpec("y", None, False, 0.0),
            ParamSpec("gamma", 0.0, True, None),
        ),
        rhs=_rhs_logistic,
        equation="dT/dt = a + y*T - gamma*T^2  (source-dominated regime, y ~ 0)",
    ),
    BaseModelKind.LOGISTIC_PROLIFERATION: dict(
        state_names=("T",),
        param_schema=(
            ParamSpec("a", 0.0, False, 0.0),
            ParamSpec("y", None, False, None),
            ParamSpec("gamma", 0.0, True, None),
        ),
        rhs=_rhs_logistic,
        equation="dT/dt = a + y*T - gamma*T^2  (proliferation-dominated regime, a ~ 0)",
    ),
}

_BASE_DEFAULTS = {
    BaseModelKind.HEALTHY: {"a": 1.0, "y": 1.0},
    BaseModelKind.LINEAR_DESTRUCTION: {"a": 1.0, "y": 1.0, "gamma": 1.0},
    BaseModelKind.COUPLED_AGENT: {"a": 1.0, "y": 1.0, "x": 1.0, "delta_D": 1.0},
    BaseModelKind.POWER_DESTRUCTION: {"a": 1.0, "y": 1.0, "gamma": 1.0, "n": 2.0},
    BaseModelKind.LOGISTIC_SOURCE: {"a": 4.0, "y": 0.0, "gamma": 1.0},
    BaseModelKind.LOGISTIC_PROLIFERATION: {"a": 0.0, "y": 2.0, "gamma": 1.0},
}


@_float_state
def _rhs_virulence_drift(t, s, p):
    T, I, V, E = s
    beta = p["gamma0"] + p["rho"] * t
    infect = beta * T * V
    help_T = T / (p["h_T"] + T)
    return [
        p["a"] - p["y"] * T - infect,
        infect - p["delta_I"] * I - p["k_E"] * E * I,
        p["pi"] * I - p["c"] * V,
        p["p_E"] * E * (I / (p["h_I"] + I)) * help_T
        - p["delta_E"] * (1.0 + p["x_E"] * I) * E,
    ]


@_float_state
def _rhs_cytokine(t, s, p):
    T, I, C, K1, K2 = s
    share = K1 / (K1 + K2 + p["kappa"])
    help_T = T / (p["h_T"] + T)
    infect = p["beta"] * T * I
    return [
        p["a"] - p["y"] * T - infect,
        infect - p["delta_I"] * I - p["k"] * C * I,
        p["p"] * share * C * (I / (p["h_I"] + I)) * help_T
        - p["delta_C"] * C
        - p["q"] * K2 * C,
        p["c1"] * C - p["d_K"] * K1,
        p["c2"] * I - p["d_K"] * K2,
    ]


@_float_state
def _rhs_humoral(t, s, p):
    T, I, V, C, B = s
    help_T = T / (p["h_T"] + T)
    niche = p["w"] * C + B
    share_C = (p["w"] * C / niche) if niche > 0 else 0.0
    infect = p["beta"] * T * V
    return [
        p["a"] - p["y"] * T - infect,
        infect - p["delta_I"] * I - p["k"] * C * I,
        p["pi"] * I - p["c"] * V - p["k_B"] * B * V,
        p["p_C"] * C * (I / (p["h_I"] + I)) * help_T * share_C
        - (p["delta_C"] + p["x_C"] * I) * C,
        p["p_B"] * B * (V / (p["h_B"] + V)) * help_T * (1.0 - B / p["B_max"])
        - p["delta_B"] * B,
    ]


@_float_state
def _rhs_bcell(t, s, p):
    T, I, V, L = s
    infect = p["beta"] * T * V
    return [
        p["a"] - p["y"] * T - infect,
        infect - p["delta_I"] * I,
        p["pi"] * I - (p["c0"] + p["c1"] * L) * V,
        -p["mu"] * V * L,
    ]


def _spec(name, default, minimum=0.0, exclusive=False):
    return ParamSpec(name, minimum, exclusive, default)


_MECHANISM_MODELS = {
    MechanismKind.VIRULENCE_DRIFT: dict(
        state_names=("T", "I", "V", "E"),
        param_schema=(
            _spec("a", 1.0),
            _spec("y", 1.0, 0.0, True),
            _spec("gamma0", 0.3),
            _spec("rho", 5e-4),
            _spec("pi", 10.0),
            _spec("delta_I", 1.0, 0.0, True),
            _spec("c", 0.2, 0.0, True),
            _spec("k_E", 1.0),
            _spec("p_E", 0.014048),
            _spec("h_I", 0.002, 0.0, True),
            _spec("h_T", 0.3, 0.0, True),
            _spec("delta_E", 0.008),
            _spec("x_E", 12.0),
        ),
        rhs=_rhs_virulence_drift,
        time_dependent=True,
        slow_rate_params=("delta_E", "rho"),
        equation=(
            "dT/dt = a - y*T - (gamma0 + rho*t)*T*V ; "
            "dI/dt = (gamma0 + rho*t)*T*V - delta_I*I - k_E*E*I ; "
            "dV/dt = pi*I - c*V ; "
            "dE/dt = p_E*E*(I/(h_I+I))*(T/(h_T+T)) - delta_E*(1 + x_E*I)*E"
        ),
    ),
    MechanismKind.CYTOKINE_INVERSION: dict(
        state_names=("T", "I", "C", "K1", "K2"),
        param_schema=(
            _spec("a", 1.0),
            _spec("y", 1.0, 0.0, True),
            _spec("beta", 20.0),
            _spec("delta_I", 0.5, 0.0, True),
            _spec("k", 5.0),
            _spec("p", 0.02744),
            _spec("h_I", 0.002, 0.0, True),
            _spec("kappa", 0.004, 0.0, True),
            _spec("c1", 0.2),
            _spec("c2", 5.0),
            _spec("d_K", 10.0, 0.0, True),
            _spec("delta_C", 0.008),
            _spec("q", 0.8),
            _spec("h_T", 0.4, 0.0, True),
        ),
        rhs=_rhs_cytokine,
        slow_rate_params=("delta_C",),
        equation=(
            "dT/dt = a - y*T - beta*T*I ; "
            "dI/dt = beta*T*I - delta_I*I - k*C*I ; "
            "dC/dt = p*(K1/(K1+K2+kappa))*C*(I/(h_I+I))*(T/(h_T+T)) - delta_C*C - q*K2*C ; "
            "dK1/dt = c1*C - d_K*K1 ; dK2/dt = c2*I - d_K*K2"
        ),
    ),
    MechanismKind.HUMORAL_CELLULAR_COMPETITION: dict(
        state_names=("T", "I", "V", "C", "B"),
        param_schema=(
            _spec("a", 1.0),
            _spec("y", 1.0, 0.0, True),
            _spec("beta", 12.0),
            _spec("pi", 10.0),
            _spec("c", 5.0),
            _spec("k_B", 2.0),
            _spec("delta_I", 1.0, 0.0, True),
            _spec("k", 5.0),
            _spec("p_C", 0.1211),
            _spec("h_I", 0.1, 0.0, True),
            _spec("delta_C", 0.01),
            _spec("x_C", 0.1),
            _spec("w", 1.0),
            _spec("p_B", 0.016),
            _spec("h_B", 0.02, 0.0, True),
            _spec("delta_B", 0.005),
            _spec("h_T", 0.25, 0.0, True),
            _spec("B_max", 4.0, 0.0, True),
        ),
        rhs=_rhs_humoral,
        slow_rate_params=("delta_C", "delta_B"),
        equation=(
            "dT/dt = a - y*T - beta*T*V ; "
            "dI/dt = beta*T*V - delta_I*I - k*C*I ; "
            "dV/dt = pi*I - c*V - k_B*B*V ; "
            "dC/dt = p_C*C*(I/(h_I+I))*(T/(h_T+T))*(w*C/(w*C+B)) - (delta_C + x_C*I)*C ; "
            "dB/dt = p_B*B*(V/(h_B+V))*(T/(h_T+T))*(1 - B/B_max) - delta_B*B"
        ),
    ),
    MechanismKind.BCELL_DEPLETION: dict(
        state_names=("T", "I", "V", "L"),
        param_schema=(
            _spec("a", 1.0),
            _spec("y", 1.0, 0.0, True),
            _spec("beta", 1.0),
            _spec("pi", 10.0),
            _spec("c0", 0.05, 0.0, True),
            _spec("c1", 8.0),
            _spec("delta_I", 1.0, 0.0, True),
            _spec("mu", 0.005),
        ),
        rhs=_rhs_bcell,
        slow_rate_params=("mu",),
        equation=(
            "dT/dt = a - y*T - beta*T*V ; "
            "dI/dt = beta*T*V - delta_I*I ; "
            "dV/dt = pi*I - (c0 + c1*L)*V ; "
            "dL/dt = -mu*V*L"
        ),
    ),
}

# Chronic (latent-stage) initial states: every fast balance holds exactly,
# so the trajectory starts on the containment manifold and the only motion
# is the slow erosion.  Values follow from the default parameters.
_MECHANISM_STATES = {
    MechanismKind.VIRULENCE_DRIFT: {
        # T placed where gamma0*T*V balances a - y*T; E from the I balance.
        "T": 0.9,
        "I": 1.0 / 135.0,
        "V": 10.0 / 27.0,
        "E": 12.5,
    },
    MechanismKind.CYTOKINE_INVERSION: {
        # T = (delta_I + k*C)/beta with C0 = 3; I from the T balance.
        "T": 0.775,
        "I": (1.0 / 0.775 - 1.0) / 20.0,
        "C": 3.0,
        "K1": 0.06,
        "K2": 0.5 * (1.0 / 0.775 - 1.0) / 20.0,
    },
    MechanismKind.HUMORAL_CELLULAR_COMPETITION: {
        # T = (delta_I + k*C)(c + k_B*B)/(beta*pi) with C0 = 2, B0 = 1.2.
        "T": 81.4 / 120.0,
        "I": (1.0 - 81.4 / 120.0) / 11.0,
        "V": (1.0 - 81.4 / 120.0) / (12.0 * 81.4 / 120.0),
        "C": 2.0,
        "B": 1.2,
    },
    MechanismKind.BCELL_DEPLETION: {
        # T = delta_I*(c0 + c1*L)/(beta*pi) with L0 = 1.
        "T": 0.805,
        "I": 0.195,
        "V": 1.95 / 8.05,
        "L": 1.0,
    },
}

# Simulation horizons that contain plateau, collapse, and floor for the
# default parameters (used by the claims module and the CLI defaults).
_MECHANISM_HORIZONS = {
    MechanismKind.VIRULENCE_DRIFT: 600.0,
    MechanismKind.CYTOKINE_INVERSION: 600.0,
    MechanismKind.HUMORAL_CELLULAR_COMPETITION: 1100.0,
    MechanismKind.BCELL_DEPLETION: 700.0,
}


def _build(kind_enum, spec_map, kind, params):
    k = _kind(kind, kind_enum)
    cfg = spec_map[k]
    model = ModelSystem(
        name=k.value,
        state_names=cfg["state_names"],
        param_schema=cfg["param_schema"],
        rhs=cfg["rhs"],
        time_dependent=cfg.get("time_dependent", False),
        equation=cfg["equation"],
        kind=k.value,
        slow_rate_params=cfg.get("slow_rate_params", ()),
        param_resolver=cfg.get("param_resolver"),
    )
    if params is not None:
        violations = validate(model, params)
        if violations:
            raise ParameterError(
                f"invalid parameters for {k.value}: " + "; ".join(violations)
            )
    return model


def make_base_model(kind: str | BaseModelKind, params: ParameterSet | None = None) -> ModelSystem:
    """Construct one of the six analytic models; validates ``params`` if given."""
    return _build(BaseModelKind, _BASE_MODELS, kind, params)


def make_mechanism_model(kind: str | MechanismKind, params: ParameterSet | None = None) -> ModelSystem:
    """Construct one of the four collapse mechanisms; validates ``params`` if given."""
    return _build(MechanismKind, _MECHANISM_MODELS, kind, params)


def make_model(kind: str, params: ParameterSet | None = None) -> ModelSystem:
    """Construct any catalog model by its kebab-case name."""
    try:
        return make_base_model(kind, params)
    except UsageError:
        pass
    try:
        return make_mechanism_model(kind, params)
    except UsageError:
        names = ", ".join(all_kind_names())
        raise UsageError(f"unknown model {kind!r}; catalog: {names}") from None


def default_params(kind: str | BaseModelKind | MechanismKind) -> ParameterSet:
    """The documented default parameter set for a catalog kind."""
    name = kind.value if isinstance(kind, Enum) else str(kind)
    try:
        base = BaseModelKind(name)
    except ValueError:
        base = None
    if base is not None:
        return ParameterSet(_BASE_DEFAULTS[base])
    mech = _kind(name, MechanismKind)
    return ParameterSet(
        {spec.name: spec.default for spec in _MECHANISM_MODELS[mech]["param_schema"]}
    )


def default_state(kind: str | BaseModelKind | MechanismKind) -> StateVector:
    """Default initial state: chronic latent state for mechanisms, unit
    concentration (with the matching agent level) for the base kinds."""
    name = kind.value if isinstance(kind, Enum) else str(kind)
    try:
        mech = MechanismKind(name)
    except ValueError:
        mech = None
    if mech is not None:
        values = _MECHANISM_STATES[mech]
        names = _MECHANISM_MODELS[mech]["state_names"]
        return StateVector(names, [values[n] for n in names])
    base = _kind(name, BaseModelKind)
    if base is BaseModelKind.COUPLED_AGENT:
        p = default_params(base)
        return StateVector(("T", "D"), [1.0, p["x"] / p["delta_D"]])
    return StateVector(("T",), [1.0])


def default_horizon(kind: str | MechanismKind) -> float:
    """Default simulation horizon for a mechanism's full collapse course."""
    mech = _kind(kind.value if isinstance(kind, Enum) else str(kind), MechanismKind)
    return _MECHANISM_HORIZONS[mech]


def all_kind_names() -> list[str]:
    return [k.value for k in BaseModelKind] + [k.value for k in MechanismKind]
