"""Independent closed forms for the six analytic kinds (standard library only).

These are the oracle the output checks compare qsslab against, and they place
the seeded initial states above or below the steady state.  They are written
here from the model equations, not imported from ``qsslab.closedform``, so a
defect there cannot hide itself.
"""
from __future__ import annotations

import math

LINEAR_KINDS = ("healthy", "linear-destruction")
LOGISTIC_KINDS = ("logistic-source", "logistic-proliferation")


def _loss_rate(kind: str, p: dict) -> float:
    """Per-capita loss y + gamma of the two linear kinds."""
    return p["y"] + (p["gamma"] if kind == "linear-destruction" else 0.0)


def rhs_T(kind: str, p: dict, T: float, D: float = 0.0) -> float:
    """dT/dt of an analytic kind (``D`` only for coupled-agent)."""
    if kind in LINEAR_KINDS:
        return p["a"] - _loss_rate(kind, p) * T
    if kind == "coupled-agent":
        return p["a"] - p["y"] * T - D * T
    if kind == "power-destruction":
        return p["a"] - p["y"] * T - p["gamma"] * T ** p["n"]
    return p["a"] + p["y"] * T - p["gamma"] * T * T


def other_roots(kind: str, p: dict) -> tuple:
    """Fixed points of T besides ``steady_T``: the negative root of the
    quadratic kinds, unstable and outside the positive orthant."""
    if kind == "coupled-agent":
        g = p["x"] / p["delta_D"]
        return ((-p["y"] - math.sqrt(p["y"] ** 2 + 4.0 * p["a"] * g)) / (2.0 * g),)
    if kind in LOGISTIC_KINDS:
        a, y, g = p["a"], p["y"], p["gamma"]
        return ((y - math.sqrt(y * y + 4.0 * a * g)) / (2.0 * g),)
    return ()


def steady_T(kind: str, p: dict) -> float:
    """The positive steady state of T.  Exact for every kind but
    power-destruction, whose root is found by bisection to full precision."""
    if kind in LINEAR_KINDS:
        return p["a"] / _loss_rate(kind, p)
    if kind == "coupled-agent":
        g = p["x"] / p["delta_D"]
        return (-p["y"] + math.sqrt(p["y"] ** 2 + 4.0 * p["a"] * g)) / (2.0 * g)
    if kind in LOGISTIC_KINDS:
        a, y, g = p["a"], p["y"], p["gamma"]
        return (y + math.sqrt(y * y + 4.0 * a * g)) / (2.0 * g)
    lo, hi = 0.0, max(p["a"] / p["y"], 1.0)  # f(0) = a > 0 >= f(a/y)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if rhs_T(kind, p, mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


def rate(kind: str, p: dict) -> float:
    """Relaxation rate at the root: minus the slowest eigenvalue of the
    Jacobian at the steady state."""
    T = steady_T(kind, p)
    if kind in LINEAR_KINDS:
        return _loss_rate(kind, p)
    if kind == "power-destruction":
        return p["y"] + p["n"] * p["gamma"] * T ** (p["n"] - 1.0)
    if kind in LOGISTIC_KINDS:
        return 2.0 * p["gamma"] * T - p["y"]
    # coupled-agent: J = [[-y - D*, -T*], [x, -delta_D]] has real eigenvalues here
    D = p["x"] / p["delta_D"] * T
    tr = -p["y"] - D - p["delta_D"]
    det = (p["y"] + D) * p["delta_D"] + p["x"] * T
    return -(tr + math.sqrt(max(tr * tr - 4.0 * det, 0.0))) / 2.0


def trajectory_T(kind: str, p: dict, T0: float, t: float) -> float:
    """T(t) from T0 for the kinds with an exact solution (linear, logistic)."""
    if kind in LINEAR_KINDS:
        Ts = steady_T(kind, p)
        return Ts + (T0 - Ts) * math.exp(-_loss_rate(kind, p) * t)
    a, y, g = p["a"], p["y"], p["gamma"]
    root = math.sqrt(y * y + 4.0 * a * g)
    hi, lo = (y + root) / (2.0 * g), (y - root) / (2.0 * g)
    u = (T0 - hi) / (T0 - lo) * math.exp(-root * t)
    return (hi - lo * u) / (1.0 - u)


def t_eps_linear(kind: str, p: dict, epsilon: float) -> float:
    """Exact time for |T - T*| to shrink by ``epsilon`` in the linear kinds."""
    return math.log(1.0 / epsilon) / _loss_rate(kind, p)
