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
from .core import ModelSystem, ParameterSet, StateVector, validate
from .errors import (
    ConvergenceTimeoutError,
    EvaluationError,
    InsufficientDataError,
    NoConvergenceError,
    UnsupportedKindError,
    ValidationError,
)
from .integrate import Trajectory, _dopri_steps, _fd_jacobian, dense_output

_RESIDUAL_LIMIT = 1e-9
_DIFFERENCE_LIMIT = 2.0 ** 1021  # 4x this is still finite
_POLISH_STEPS = 8


@dataclass(frozen=True)
class SteadyStateReport:
    """A nonnegative, stable fixed point with its residual and relaxation
    rate: -max Re(lambda) of the Jacobian at ``values``, the exponential
    rate of the slowest mode of the approach.

    Construction raises ``NoConvergenceError`` carrying ``values`` when the
    residual is above 1e-9 or nan, a component is negative, or the rate is
    not finite and positive.
    """

    values: StateVector
    residual: float
    method: str  # "newton" | "bisection"
    relaxation_rate: float
    time_to_epsilon: float | None = None

    def __post_init__(self):
        if not self.residual <= _RESIDUAL_LIMIT:
            problem = f"no steady state found (best residual {self.residual:.3e})"
        elif min(self.values.values) < 0:
            problem = f"steady state {self.values} has a negative component"
        elif not math.isfinite(self.relaxation_rate) or self.relaxation_rate <= 0:
            problem = f"steady state {self.values} is not stable (rate {self.relaxation_rate:g})"
        else:
            return
        raise NoConvergenceError(problem, best=self.values, residual=self.residual)


@dataclass(frozen=True)
class CurvatureVerdict:
    """Outcome of second-difference classification on a trajectory window."""

    curvature_class: str  # decelerating-decline | accelerating-decline | mixed | non-monotonic | flat
    window: tuple[float, float]
    evidence: dict = field(default_factory=dict)
    shape_label: str = ""


def _bisection_1d(g, lo, hi):
    """A root at which g falls through zero, from g(lo) >= 0 to g(hi) < 0:
    a stable fixed point of dT/dt = g(T).  While g(hi) >= 0, lo moves up to
    hi and hi doubles (at most 60 times), so an unstable root at lo is
    skipped.  None when no such bracket is found."""
    glo = g(lo)
    for _ in range(60):
        ghi = g(hi)
        if not ghi >= 0:  # negative or nan
            break
        lo, glo, hi = hi, ghi, 2.0 * hi
    if not glo >= 0 > ghi:
        return None
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if g(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


def _report(f, names, x, residual, method):
    """The ``SteadyStateReport`` of ``x``, linearised there if it is a
    nonnegative root."""
    rate = math.nan
    if residual <= _RESIDUAL_LIMIT and x.min() >= 0:
        J = _fd_jacobian(f, x)
        if np.isfinite(J).all():
            rate = float(-np.linalg.eigvals(J).real.max())
    return SteadyStateReport(StateVector(names, x), residual, method, rate)


def _polish(f, x, fx, res, limit):
    """Full Newton steps from ``x``, a root by the residual test (``fx`` and
    its max-norm ``res`` there, at most ``limit``), until a step moves no
    component by more than 4 ulps, at most ``_POLISH_STEPS`` of them.  The
    residual test alone leaves x off by up to the residual over the slope,
    which at a small root moved the rate by 1.5e-9 relative.  A step that
    cannot be taken or whose residual exceeds ``limit`` ends the polish;
    returns the last root and its residual."""
    for _ in range(_POLISH_STEPS):
        try:
            step = np.linalg.solve(_fd_jacobian(f, x), -fx)
            x_new = x + step
            f_new = f(x_new)
        except (np.linalg.LinAlgError, EvaluationError):
            break
        res_new = float(np.max(np.abs(f_new)))
        if not res_new <= limit:  # nan too
            break
        x, fx, res = x_new, f_new, res_new
        if np.all(np.abs(step) <= 4.0 * np.spacing(np.abs(x))):
            break
    return x, res


def find_steady_state(model: ModelSystem, params: ParameterSet,
                      guess: StateVector) -> SteadyStateReport:
    """Damped Newton on the right-hand side, with the finite-difference
    Jacobian of ``integrate._fd_jacobian``.  A damping trial at which the rhs raises
    ``EvaluationError`` counts as one whose residual did not decrease, as a
    non-finite residual does.  Once the max-norm residual is at most
    1e-13 * max(1, max|x|), full Newton steps polish the root until a step
    is within 4 ulps of it (``_polish``).

    The best iterate is returned only if it is a steady state: max-norm
    residual <= 1e-9, no negative component, and every eigenvalue of the
    Jacobian there with negative real part; its relaxation rate is -max
    Re(lambda).  Otherwise a one-state model falls back to bisection for a
    stable root on [0, max(10*|guess|, 1)], expanding the bracket upwards,
    and any other model raises ``NoConvergenceError`` carrying the
    iterate.
    """
    violations = validate(model, params)
    if violations:
        raise ValidationError(violations)
    if guess.names != model.state_names:
        raise ValidationError(
            [f"guess components {guess.names} do not match model states {model.state_names}"]
        )
    rhs = model.bind(model.resolve_params(params))
    f = lambda x: np.array(rhs(0.0, x.tolist()))

    x = np.array(guess.values, dtype=float)
    best, best_res = x, math.nan
    for _ in range(100):
        fx = f(x)
        res = float(np.max(np.abs(fx)))
        if res < best_res or math.isnan(best_res) and not math.isnan(res):  # nan ranks last
            best, best_res = x.copy(), res
        limit = 1e-13 * max(1.0, float(np.max(np.abs(x))))
        if res <= limit:
            best, best_res = _polish(f, x, fx, res, limit)
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
            try:
                if float(np.linalg.norm(f(x + lam * step))) < norm0:
                    break
            except EvaluationError:  # outside the rhs's domain: as a nan residual
                pass
            lam *= 0.5
        x = x + lam * step

    try:
        return _report(f, model.state_names, best, best_res, "newton")
    except NoConvergenceError:
        if model.dimension != 1:
            raise
        root = _bisection_1d(lambda v: rhs(0.0, [v])[0], 0.0,
                             max(10.0 * abs(float(guess.values[0])), 1.0))
        if root is None:
            raise
    x = np.array([root])
    return _report(f, model.state_names, x, float(abs(f(x)[0])), "bisection")


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
    horizon = 50.0 / report.relaxation_rate

    for t_prev, t, h, y, K, _ in _dopri_steps(model, params, state0, 0.0, horizon, rtol, atol):
        if abs(y[0] - t_star) <= target:
            break
    else:
        raise ConvergenceTimeoutError(
            f"|T - T*| did not reach {target:.3e} within {horizon:g} time units"
        )
    # bisect the crossing on the step's continuous extension
    stages, y_end = [row[0] for row in K], y[0]
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

    A window outside the trajectory's time range raises ``ValidationError``;
    an empty one, t0 == t1 (``collapse_window`` of a decline that is
    steepest at its start), raises ``InsufficientDataError``, as too few
    points do.

    Classes: ``flat`` when total variation is below 1e-9 * |first value|
    (two points in the window suffice; the other classes need 8);
    ``non-monotonic`` when no decreasing run covers half the window;
    ``decelerating-decline`` / ``accelerating-decline`` when at least 90% of
    the nonzero second differences share a sign; ``mixed`` otherwise.
    """
    times = trajectory.times
    values = trajectory.component(component)
    if window is not None:
        lo, hi = window
        if lo < times[0] - 1e-12 or hi > times[-1] + 1e-12 or hi < lo:
            raise ValidationError([f"window {window} outside trajectory range"])
        if hi == lo:  # holds no span of the trajectory to classify
            raise InsufficientDataError(f"window {window} is empty")
        mask = (times >= lo) & (times <= hi)
        times = times[mask]
        values = values[mask]
    too_few = InsufficientDataError(f"need at least 8 points in the window, got {times.size}")
    if times.size < 2:
        raise too_few

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
    if times.size < 8:
        raise too_few

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
