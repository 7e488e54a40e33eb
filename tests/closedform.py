"""Closed-form solutions, steady states, relaxation rates, and initial-slope
linearizations for the analytic model catalog.

These are the oracle layer for the numerical modules: exact expressions,
hand-coded per kind, no iteration anywhere.  ``analysis`` never calls them;
its steady states and rates come from the right-hand side alone.  A kind
without an exact expression is refused, not approximated;
``power_approx_steady`` is the one first-order approximation, and says so.
"""
from __future__ import annotations

import math

from qsslab.catalog import BaseModelKind
from qsslab.core import ParameterSet
from qsslab.errors import DomainError, UnsupportedKindError


def _as_kind(kind) -> BaseModelKind:
    if isinstance(kind, BaseModelKind):
        return kind
    try:
        return BaseModelKind(str(kind))
    except ValueError:
        names = ", ".join(k.value for k in BaseModelKind)
        raise UnsupportedKindError(f"unknown kind {kind!r}; expected one of: {names}") from None


def _get(params: ParameterSet, name: str, default: float | None = None) -> float:
    if name in params:
        return params[name]
    if default is not None:
        return default
    return params[name]  # raises ParameterError with the proper message


def linear_solution(a: float, y: float, T0: float, t: float) -> float:
    """T(t) for dT/dt = a - y*T: exponential relaxation to a/y at rate y."""
    if y <= 0:
        raise DomainError(f"y must be positive, got {y:g}")
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t:g}")
    Ts = a / y
    return Ts + (T0 - Ts) * math.exp(-y * t)


def linear_destruction_solution(a: float, y: float, gamma: float, T0: float, t: float) -> float:
    """T(t) for dT/dt = a - y*T - gamma*T: relaxation to a/(y+gamma) at rate y+gamma."""
    if y + gamma <= 0:
        raise DomainError(f"y + gamma must be positive, got {y + gamma:g}")
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t:g}")
    rate = y + gamma
    Ts = a / rate
    return Ts + (T0 - Ts) * math.exp(-rate * t)


def logistic_solution(a: float, y: float, gamma: float, T0: float, t: float) -> float:
    """T(t) for dT/dt = a + y*T - gamma*T^2 with T(0) = T0.

    Written via the two roots T- < T+ of the quadratic: the trajectory is
    (T+ - T- * C * e^{-D t}) / (1 - C * e^{-D t}) with D = sqrt(y^2 + 4 a gamma)
    and C fixed by the initial condition.  Equivalent to the usual tanh form
    but free of the ambiguity in where the integration constant sits.
    """
    if gamma <= 0:
        raise DomainError(f"gamma must be positive, got {gamma:g}")
    if a < 0:
        raise DomainError(f"a must be nonnegative, got {a:g}")
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t:g}")
    if a == 0 and y <= 0:
        raise DomainError("need a > 0 or y > 0 for a positive steady state")
    if T0 < 0:
        raise DomainError(f"T0 must be nonnegative, got {T0:g}")
    disc = math.sqrt(y * y + 4.0 * a * gamma)
    T_hi = (y + disc) / (2.0 * gamma)
    T_lo = (y - disc) / (2.0 * gamma)
    if T0 == T_hi:
        return T_hi
    if T0 == T_lo:
        return T_lo
    C = (T0 - T_hi) / (T0 - T_lo)
    u = C * math.exp(-disc * t)
    return (T_hi - T_lo * u) / (1.0 - u)


def steady_state_formula(kind, params: ParameterSet):
    """Exact steady state for each analytic kind.

    Returns a float, except for ``coupled-agent`` which returns the pair
    (T*, D*) with D* = (x/delta_D) T*.  Refuses ``power-destruction``: its
    textbook expression is a first-order approximation, not the true root --
    use ``power_approx_steady`` for the approximation or the numerical
    steady-state finder for the exact value.
    """
    k = _as_kind(kind)
    if k is BaseModelKind.HEALTHY:
        a, y = params["a"], params["y"]
        if y <= 0:
            raise DomainError(f"y must be positive, got {y:g}")
        return a / y
    if k is BaseModelKind.LINEAR_DESTRUCTION:
        a, y, g = params["a"], params["y"], params["gamma"]
        if y + g <= 0:
            raise DomainError(f"y + gamma must be positive, got {y + g:g}")
        return a / (y + g)
    if k is BaseModelKind.COUPLED_AGENT:
        a, y = params["a"], params["y"]
        x, dD = params["x"], params["delta_D"]
        if dD <= 0:
            raise DomainError(f"delta_D must be positive, got {dD:g}")
        g_eff = x / dD
        if g_eff == 0:
            if y <= 0:
                raise DomainError("need y > 0 when x = 0")
            Ts = a / y
        else:
            Ts = (-y + math.sqrt(y * y + 4.0 * a * g_eff)) / (2.0 * g_eff)
        return (Ts, g_eff * Ts)
    if k is BaseModelKind.POWER_DESTRUCTION:
        raise UnsupportedKindError(
            "power-destruction has no exact closed-form steady state; use "
            "power_approx_steady for the first-order formula or "
            "analysis.find_steady_state for the true root"
        )
    if k in (BaseModelKind.LOGISTIC_SOURCE, BaseModelKind.LOGISTIC_PROLIFERATION):
        a = _get(params, "a", 0.0 if k is BaseModelKind.LOGISTIC_PROLIFERATION else None)
        y = _get(params, "y", 0.0 if k is BaseModelKind.LOGISTIC_SOURCE else None)
        g = params["gamma"]
        if g <= 0:
            raise DomainError(f"gamma must be positive, got {g:g}")
        if a < 0:
            raise DomainError(f"a must be nonnegative, got {a:g}")
        if a == 0 and y <= 0:
            raise DomainError("need a > 0 or y > 0 for a positive steady state")
        return (y + math.sqrt(y * y + 4.0 * a * g)) / (2.0 * g)
    raise UnsupportedKindError(f"no steady-state formula for kind {k.value!r}")


def power_approx_steady(a: float, y: float, gamma: float, n: float) -> float:
    """First-order steady-state formula for dT/dt = a - y*T - gamma*T^n.

    This is one damped-free Newton step from T = a/y, so it is exact at
    n = 1 (where it reduces to a/(y+gamma)) and an upper-biased
    approximation for n > 1; it is NOT the true root.
    """
    if y <= 0:
        raise DomainError(f"y must be positive, got {y:g}")
    if gamma < 0:
        raise DomainError(f"gamma must be nonnegative, got {gamma:g}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n:g}")
    base = a / y
    return (a + (n - 1.0) * gamma * base**n) / (y + n * gamma * base ** (n - 1.0))


def relaxation_rate(kind, params: ParameterSet) -> float:
    """Exact exponential rate at which |T - T*| shrinks; 1/rate is the
    approach time.  A test oracle for ``analysis.find_steady_state``.

    y for healthy, y + gamma for linear destruction, and for the logistic
    kinds the linearized rate at the upper fixed point, sqrt(y^2 + 4 a
    gamma), which reduces to 2*sqrt(a*gamma) in the source regime and to y
    in the proliferation regime.  Refuses power-destruction and
    coupled-agent, whose rates exist only at a numerically found root.
    """
    k = _as_kind(kind)
    if k is BaseModelKind.HEALTHY:
        y = params["y"]
        if y <= 0:
            raise DomainError(f"y must be positive, got {y:g}")
        return y
    if k is BaseModelKind.LINEAR_DESTRUCTION:
        y, g = params["y"], params["gamma"]
        if y + g <= 0:
            raise DomainError(f"y + gamma must be positive, got {y + g:g}")
        return y + g
    if k in (BaseModelKind.LOGISTIC_SOURCE, BaseModelKind.LOGISTIC_PROLIFERATION):
        a = _get(params, "a", 0.0 if k is BaseModelKind.LOGISTIC_PROLIFERATION else None)
        y = _get(params, "y", 0.0 if k is BaseModelKind.LOGISTIC_SOURCE else None)
        g = params["gamma"]
        if g <= 0:
            raise DomainError(f"gamma must be positive, got {g:g}")
        if a == 0 and y <= 0:
            raise DomainError("need a > 0 or y > 0 for a stable positive steady state")
        return math.sqrt(y * y + 4.0 * a * g)
    raise UnsupportedKindError(
        f"no exact relaxation rate for kind {k.value!r}; analysis.find_steady_state "
        "linearises at the root it finds"
    )


def initial_slope(kind, params: ParameterSet, T0: float) -> float:
    """Initial decline/growth rate linearizations for the logistic regimes.

    Source regime: slope = -(gamma*T0^2 - a).  Proliferation regime:
    slope = -(gamma*T0 - y)*T0, the per-capita form, which matches the
    model's right-hand side at a = 0.
    """
    k = _as_kind(kind)
    if k is BaseModelKind.LOGISTIC_SOURCE:
        a, g = params["a"], params["gamma"]
        return -(T0 * T0 * g - a)
    if k is BaseModelKind.LOGISTIC_PROLIFERATION:
        y, g = params["y"], params["gamma"]
        return -(T0 * g - y) * T0
    raise UnsupportedKindError(
        f"initial_slope is defined for the logistic regimes only, not {k.value!r}"
    )
