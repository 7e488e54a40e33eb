"""Steady states, approach times, trajectory curvature, and the fast-agent
quasi-steady-state reduction.

Curvature naming: a decreasing trajectory whose decline keeps slowing has a
positive second derivative (mathematically convex); one whose decline keeps
steepening has a negative second derivative.  The classes are named by
behavior -- ``decelerating-decline`` / ``accelerating-decline`` -- to avoid
the convex/concave ambiguity; the verdict's ``shape_label`` records the
mathematical term.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import BaseModelKind, make_base_model
from .closedform import relaxation_rate as _closed_rate
from .core import ModelSystem, ParameterSet, StateVector, validate
from .errors import (
    ConvergenceTimeoutError,
    InsufficientDataError,
    NoConvergenceError,
    UnsupportedKindError,
    ValidationError,
)
from .integrate import Trajectory, _dopri_steps, dense_output

_RESIDUAL_LIMIT = 1e-9
_DIFFERENCE_LIMIT = 2.0 ** 1021  # 4x this is still finite


@dataclass(frozen=True)
class SteadyStateReport:
    """A located fixed point with its residual and local relaxation rate."""

    values: StateVector
    residual: float
    method: str  # "formula" | "newton" | "bisection"
    relaxation_rate: float
    time_to_epsilon: float | None = None

    def __post_init__(self):
        if self.residual > _RESIDUAL_LIMIT:
            raise NoConvergenceError(
                f"steady-state residual {self.residual:.3e} exceeds {_RESIDUAL_LIMIT:g}",
                best=self.values, residual=self.residual,
            )


@dataclass(frozen=True)
class CurvatureVerdict:
    """Outcome of second-difference classification on a trajectory window."""

    curvature_class: str  # decelerating-decline | accelerating-decline | mixed | non-monotonic | flat
    window: tuple[float, float]
    evidence: dict = field(default_factory=dict)
    shape_label: str = ""


def _fd_jacobian(f, x):
    n = x.size
    J = np.empty((n, n))
    fx = f(x)
    for j in range(n):
        h = math.sqrt(np.finfo(float).eps) * max(abs(x[j]), 1.0)
        xp = x.copy()
        xp[j] += h
        J[:, j] = (f(xp) - fx) / h
    return J


def _rate_from_linearization(f, x):
    J = _fd_jacobian(f, x)
    eigs = np.linalg.eigvals(J)
    real = eigs.real
    if np.all(real < 0):
        # slowest decaying mode dominates the approach
        return float(-real.max())
    return float("nan")


def _bisection_1d(g, lo, hi, iters=200):
    glo = g(lo)
    if glo == 0.0:
        return lo
    ghi = g(hi)
    # expand the bracket if needed
    grow = 0
    while glo * ghi > 0 and grow < 60:
        hi *= 2.0
        ghi = g(hi)
        grow += 1
    if glo * ghi > 0:
        return None
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if glo * gm <= 0:
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


def find_steady_state(model: ModelSystem, params: ParameterSet,
                      guess: StateVector) -> SteadyStateReport:
    """Damped Newton on the right-hand side with a finite-difference Jacobian;
    scalar bisection fallback for one-dimensional models.

    The residual contract is max-norm <= 1e-9; failure raises
    ``NoConvergenceError`` carrying the best iterate.
    """
    violations = validate(model, params)
    if violations:
        raise ValidationError(violations)
    if guess.names != model.state_names:
        raise ValidationError(
            [f"guess components {guess.names} do not match model states {model.state_names}"]
        )
    p = model.resolve_params(params)
    f = lambda x: np.asarray(model.rhs(0.0, x, p), dtype=float)

    x = np.array(guess.values, dtype=float)
    best = x.copy()
    best_res = float(np.max(np.abs(f(x))))
    method = "newton"
    for _ in range(100):
        fx = f(x)
        res = float(np.max(np.abs(fx)))
        if res < best_res:
            best, best_res = x.copy(), res
        if res <= 1e-13 * max(1.0, float(np.max(np.abs(x)))):
            break
        J = _fd_jacobian(f, x)
        try:
            step = np.linalg.solve(J, -fx)
        except np.linalg.LinAlgError:
            break
        # damping: halve until the residual norm decreases (at most 30 times)
        lam = 1.0
        norm0 = float(np.linalg.norm(fx))
        for _ in range(30):
            trial = x + lam * step
            if float(np.linalg.norm(f(trial))) < norm0:
                break
            lam *= 0.5
        x = x + lam * step

    if best_res > _RESIDUAL_LIMIT and model.dimension == 1:
        # bisection fallback over [0, max(10*|guess|, 1)], expanding if unbracketed
        hi = max(10.0 * abs(guess.values[0]), 1.0)
        root = _bisection_1d(lambda v: float(f(np.array([v]))[0]), 0.0, hi)
        if root is not None:
            cand = np.array([root])
            res = float(np.max(np.abs(f(cand))))
            if res < best_res:
                best, best_res = cand, res
                method = "bisection"
    if best_res > _RESIDUAL_LIMIT:
        raise NoConvergenceError(
            f"no steady state found (best residual {best_res:.3e})",
            best=StateVector(model.state_names, best), residual=best_res,
        )

    rate = float("nan")
    if model.kind is not None and not model.time_dependent:
        try:
            rate = _closed_rate(model.kind, ParameterSet(p))
        except Exception:
            rate = float("nan")
    if not math.isfinite(rate) or rate <= 0:
        rate = _rate_from_linearization(f, best)
    return SteadyStateReport(
        values=StateVector(model.state_names, best),
        residual=best_res,
        method=method,
        relaxation_rate=rate,
    )


def time_to_epsilon(model: ModelSystem, params: ParameterSet, state0: StateVector,
                    epsilon: float, rtol: float = 1e-10, atol: float = 1e-13) -> float:
    """Smallest t with |T(t) - T*| <= epsilon * |T(0) - T*| for the first
    state component, T* being the steady state found from ``state0``.

    Dormand-Prince steps from ``state0`` until the first accepted state
    within the bound; the crossing inside that step is then bisected on the
    step's continuous extension down to float resolution.

    Raises ``ConvergenceTimeoutError`` if the bound is not met within
    50 / relaxation_rate.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValidationError([f"epsilon must be in (0, 1), got {epsilon:g}"])
    report = find_steady_state(model, params, state0)
    return _time_to_epsilon(model, params, state0, epsilon, report, rtol, atol)


@np.errstate(all="ignore")  # the kernel's trial steps run under this error state
def _time_to_epsilon(model: ModelSystem, params: ParameterSet, state0: StateVector,
                     epsilon: float, report: SteadyStateReport,
                     rtol: float = 1e-10, atol: float = 1e-13) -> float:
    """``time_to_epsilon`` towards ``report``, the steady state the caller
    found from ``state0``."""
    t_star = float(report.values.values[0])
    gap0 = abs(float(state0.values[0]) - t_star)
    target = epsilon * gap0
    if gap0 <= target:  # gap0 == 0, or so small that epsilon * gap0 rounds back to it
        return 0.0
    rate = report.relaxation_rate
    if not math.isfinite(rate) or rate <= 0:
        raise NoConvergenceError("steady state has no positive relaxation rate", best=report.values)
    horizon = 50.0 / rate

    for t_prev, t, h, y, Y, _ in _dopri_steps(model, params, state0, 0.0, horizon, rtol, atol):
        if abs(y[0] - t_star) <= target:
            break
    else:
        raise ConvergenceTimeoutError(
            f"|T - T*| did not reach {target:.3e} within {horizon:g} time units"
        )
    # bisect the crossing on the step's continuous extension
    stages, y_end = Y[:, 0].tolist(), float(y[0])
    lo, hi = t_prev, t
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if abs(dense_output(stages, y_end, h, (mid - t_prev) / h) - t_star) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def classify_curvature(trajectory: Trajectory, component: str,
                       window: tuple[float, float] | None = None,
                       grid_size: int = 512) -> CurvatureVerdict:
    """Second-difference classification on a uniform resampling of the
    maximal strictly decreasing run inside ``window`` (default: the whole
    trajectory).

    Classes: ``flat`` when total variation is below 1e-9 * |first value|;
    ``non-monotonic`` when no decreasing run covers half the window;
    ``decelerating-decline`` / ``accelerating-decline`` when at least 90% of
    the nonzero second differences share a sign; ``mixed`` otherwise.
    """
    times = trajectory.times
    values = trajectory.component(component)
    if window is not None:
        lo, hi = window
        if lo < times[0] - 1e-12 or hi > times[-1] + 1e-12 or hi <= lo:
            raise ValidationError([f"window {window} outside trajectory range"])
        mask = (times >= lo) & (times <= hi)
        times = times[mask]
        values = values[mask]
    if times.size < 8:
        raise InsufficientDataError(
            f"need at least 8 points in the window, got {times.size}"
        )

    ref = abs(float(trajectory.component(component)[0]))
    # second differences reach 4x the largest magnitude: near the top of the
    # float range, work on values scaled by a power of two, which is exact
    exponent = 0
    largest = float(np.abs(values).max())
    if largest > _DIFFERENCE_LIMIT:
        exponent = math.frexp(largest)[1]
        values, ref = np.ldexp(values, -exponent), math.ldexp(ref, -exponent)
    span = float(values.max() - values.min())
    if span <= 1e-9 * ref:
        return CurvatureVerdict(
            "flat", (float(times[0]), float(times[-1])),
            {"total_variation": math.ldexp(span, exponent)}, shape_label="constant",
        )

    grid_t = np.linspace(times[0], times[-1], grid_size)
    grid_v = np.interp(grid_t, times, values)

    # maximal strictly decreasing run (ties tolerated up to resampling noise)
    tol = 1e-12 * max(abs(grid_v).max(), 1.0)
    decreasing = np.diff(grid_v) < tol
    best_start, best_len = 0, 0
    start = 0
    for idx in range(decreasing.size + 1):
        if idx < decreasing.size and decreasing[idx]:
            continue
        if idx - start > best_len:
            best_start, best_len = start, idx - start
        start = idx + 1
    if best_len + 1 < grid_size // 2:
        return CurvatureVerdict(
            "non-monotonic", (float(times[0]), float(times[-1])),
            {"longest_decreasing_fraction": (best_len + 1) / grid_size},
            shape_label="not monotone",
        )

    run = grid_v[best_start: best_start + best_len + 1]
    run_t = grid_t[best_start: best_start + best_len + 1]
    d2 = run[2:] - 2.0 * run[1:-1] + run[:-2]
    zero_tol = 1e-12 * max(abs(run).max(), 1e-300)
    pos = int(np.sum(d2 > zero_tol))
    neg = int(np.sum(d2 < -zero_tol))
    nonzero = pos + neg
    evidence = {
        "positive_fraction": pos / max(nonzero, 1),
        "negative_fraction": neg / max(nonzero, 1),
        "zero_fraction": (d2.size - nonzero) / max(d2.size, 1),
        "points": int(d2.size),
    }
    win = (float(run_t[0]), float(run_t[-1]))
    if nonzero == 0:
        return CurvatureVerdict("mixed", win, evidence, shape_label="linear decline")
    if pos / nonzero >= 0.9:
        return CurvatureVerdict(
            "decelerating-decline", win, evidence,
            shape_label="convex (flattening decline)",
        )
    if neg / nonzero >= 0.9:
        return CurvatureVerdict(
            "accelerating-decline", win, evidence,
            shape_label="concave (steepening decline)",
        )
    return CurvatureVerdict("mixed", win, evidence, shape_label="mixed curvature")


def qss_reduce(model: ModelSystem, params: ParameterSet) -> tuple[ModelSystem, ParameterSet]:
    """Eliminate the fast destroyer agent: the two-compartment coupled-agent
    system reduces to the quadratic destruction model with
    gamma_eff = x / delta_D (and to the healthy model when x = 0).

    Returns the reduced system together with its parameter set.
    """
    if model.kind != BaseModelKind.COUPLED_AGENT.value:
        raise UnsupportedKindError(
            f"qss_reduce applies to the coupled-agent model, not {model.kind!r}"
        )
    p = model.resolve_params(params)
    g_eff = p["x"] / p["delta_D"]
    if g_eff == 0.0:
        reduced = make_base_model(BaseModelKind.HEALTHY)
        return reduced, ParameterSet(a=p["a"], y=p["y"])
    reduced = make_base_model(BaseModelKind.POWER_DESTRUCTION)
    return reduced, ParameterSet(a=p["a"], y=p["y"], gamma=g_eff, n=2.0)
