"""Steady states, approach times (stepped in ``integrate``), curvature on a
trajectory's own points, and the fast-agent quasi-steady-state reduction.

Newton, its polish and the relaxation rate of a steady state take the
model's generated Jacobian, which ``ModelSystem.bind_jacobian`` gives (and
refuses for a model without one).  Newton solves by the LU that the Radau
step factors with (``integrate._lu``).

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
from .integrate import Trajectory, _lu, first_crossing

_RESIDUAL_LIMIT = 1e-9
_T_EPS_RTOL, _T_EPS_ATOL = 1e-10, 1e-13  # Dormand-Prince tolerances of time_to_epsilon
_DIFFERENCE_LIMIT = 2.0 ** 1021  # 4x this is still finite
_POLISH_STEPS = 8


@dataclass(frozen=True)
class SteadyStateReport:
    """A nonnegative, stable fixed point with its residual and relaxation
    rate: -max Re(lambda) of the Jacobian at ``values``, the exponential
    rate of the slowest mode of the approach.

    Construction raises ``NoConvergenceError`` carrying ``values`` when the
    residual is above 1e-9 or nan, a component is negative, or the rate is
    not finite and positive; a rate of 0 marks a root that is not
    hyperbolic.
    """

    values: StateVector
    residual: float
    method: str  # "newton" | "bisection"
    relaxation_rate: float

    def __post_init__(self):
        if not self.residual <= _RESIDUAL_LIMIT:
            problem = f"no steady state found (best residual {self.residual:.3e})"
        elif min(self.values.values) < 0:
            problem = f"steady state {self.values} has a negative component"
        elif self.relaxation_rate == 0:
            problem = (f"steady state {self.values} is not hyperbolic: its relaxation "
                       "rate is 0 to within the root's error, so the approach to it "
                       "is slower than exponential")
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
    skipped.  None when no such bracket is found.  The bisection keeps lo
    where g > 0 only: a g(mid) of 0 may have underflowed (-T^2 at T below
    1e-162), so it moves hi, and a root at lo = 0 is found as 0.  A g(hi)
    of 0 above a g(lo) > 0 is a root hit exactly, and is returned."""
    glo = g(lo)
    for _ in range(60):
        ghi = g(hi)
        if not ghi >= 0:  # negative or nan
            break
        lo, glo, hi = hi, ghi, 2.0 * hi
    if not glo >= 0 > ghi:
        return None
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        gmid = g(mid)
        if gmid > 0:
            lo, glo = mid, gmid
        else:
            hi, ghi = mid, gmid
    return hi if ghi == 0 < glo else lo


def _rate(J) -> float:
    """-max Re(lambda) over the eigenvalues of ``J``."""
    return float(-np.linalg.eigvals(J).real.max())


def _max_norm(v) -> float:
    """max |v_i|, nan if a component is nan, as numpy's ``max`` ranks it
    (the builtin ``max`` skips a nan that is not first)."""
    return math.nan if any(map(math.isnan, v)) else max(map(abs, v))


def _norm2(v) -> float:
    """The 2-norm of ``v``, its squares summed in order (the builtin
    ``sum`` compensates its rounding from Python 3.12 on)."""
    squares = 0.0
    for c in v:
        squares += c * c
    return math.sqrt(squares)


def _report(f, jacobian, names, x, residual, method):
    """The ``SteadyStateReport`` of ``x``, linearised there (``jacobian``,
    of the state) if it is a nonnegative root.

    A negative component within Newton's limit, 1e-13 * max(1, max|x|),
    is a root at 0 that the last iterate stopped just below: it counts as
    0, and the residual is taken there (unless the rhs raises there).

    A positive rate is linearised again one Newton step on.  A simple root
    keeps its rate there; at a multiple root, which Newton approaches only
    linearly, the rate roughly halves.  A rate that moves by more than a
    quarter is 0 to within the root's error and is reported as 0."""
    limit = 1e-13 * max(1.0, _max_norm(x))
    if any(-limit <= v < 0 for v in x):
        zeroed = [0.0 if -limit <= v < 0 else v for v in x]
        try:
            x, residual = zeroed, _max_norm(f(zeroed))
        except EvaluationError:
            pass
    rate = math.nan
    if residual <= _RESIDUAL_LIMIT and all(v >= 0 for v in x):  # nan fails
        J = jacobian(x)
        if all(math.isfinite(c) for row in J for c in row):
            rate = _rate(J)
            if rate > 0:
                try:
                    step = _lu(len(x))["solve"](0.0, J, f(x))
                    rate_next = _rate(jacobian([v + s for v, s in zip(x, step)]))
                except (np.linalg.LinAlgError, EvaluationError):
                    rate_next = rate  # no step to take: nothing tells against the rate
                if abs(rate_next - rate) > 0.25 * rate:
                    rate = 0.0
    return SteadyStateReport(StateVector(names, x), residual, method, rate)


def _polish(f, jacobian, x, fx, res, limit):
    """Full Newton steps from ``x``, a root by the residual test (``fx`` and
    its max-norm ``res`` there, at most ``limit``), until a step moves no
    component by more than 4 ulps, at most ``_POLISH_STEPS`` of them.  The
    residual test alone leaves x off by up to the residual over the slope,
    which at a small root moved the rate by 1.5e-9 relative.  A step that
    cannot be taken, whose residual exceeds ``limit``, or that takes one
    within the report's 1e-9 above it (``limit`` is larger at a root above
    1e4) ends the polish; returns the last root and its residual."""
    solve = _lu(len(x))["solve"]
    for _ in range(_POLISH_STEPS):
        try:
            step = solve(0.0, jacobian(x), fx)
            x_new = [v + s for v, s in zip(x, step)]
            f_new = f(x_new)
        except (np.linalg.LinAlgError, EvaluationError):
            break
        res_new = _max_norm(f_new)
        if not res_new <= limit or res_new > _RESIDUAL_LIMIT >= res:  # nan too
            break
        x, fx, res = x_new, f_new, res_new
        # an ulp of |v| is the gap to the next float up: inf at the largest
        # finite float, nan at inf, as numpy's spacing has it
        if all(abs(s) <= 4.0 * (math.nextafter(a, math.inf) - a)
               for s, a in zip(step, map(abs, x))):
            break
    return x, res


def find_steady_state(model: ModelSystem, params: ParameterSet,
                      guess: StateVector) -> SteadyStateReport:
    """Damped Newton on the right-hand side, with the model's generated
    Jacobian (``ModelSystem.bind_jacobian``, which raises ``UsageError``
    for a model without one), which also gives the relaxation rate.  The
    iteration runs on lists of Python floats, each Newton step s solving
    (0 I - J) s = f(x) by the generated ``solve``, so that f needs no
    negated copy.  A damping trial at which the rhs raises
    ``EvaluationError`` counts as one whose residual did not decrease, as a
    non-finite residual does.  An iterate with a non-finite component ends the iteration, as a
    singular Jacobian does.  Once the max-norm residual is at most
    1e-13 * max(1, max|x|), full Newton steps polish the root until a step
    is within 4 ulps of it (``_polish``).

    The best iterate is returned only if it is a steady state: max-norm
    residual <= 1e-9, no negative component, and every eigenvalue of the
    Jacobian there with negative real part; its relaxation rate is -max
    Re(lambda), and it must not vanish to within the root's error
    (``_report``).  Otherwise a one-state model falls back to bisection for a
    stable root on [0, max(10*|guess|, 1)], expanding the bracket upwards,
    and any other model raises ``NoConvergenceError`` carrying the
    iterate.  A residual with a nan component is nan, and ranks last.
    """
    violations = validate(model, params)
    if violations:
        raise ValidationError(violations)
    if guess.names != model.state_names:
        raise ValidationError(
            [f"guess components {guess.names} do not match model states {model.state_names}"]
        )
    p = model.resolve_params(params)
    rhs = model.bind(p)
    f = lambda x: rhs(0.0, x)
    jac = model.bind_jacobian(p)
    jacobian = lambda x: jac(0.0, x)

    x = guess.values.tolist()
    best, best_res = x, math.nan
    solve = _lu(model.dimension)["solve"]
    for _ in range(100):
        if not all(map(math.isfinite, x)):  # Newton diverged: no limit to test against
            break
        fx = f(x)
        res = _max_norm(fx)
        if res < best_res or math.isnan(best_res) and not math.isnan(res):  # nan ranks last
            best, best_res = x, res
        limit = 1e-13 * max(1.0, _max_norm(x))
        if res <= limit:
            best, best_res = _polish(f, jacobian, x, fx, res, limit)
            break
        J = jacobian(x)
        try:
            step = solve(0.0, J, fx)
        except np.linalg.LinAlgError:
            break
        # damping: halve until the residual norm decreases (at most 30 times)
        lam = 1.0
        norm0 = _norm2(fx)
        for _ in range(30):
            try:
                if _norm2(f([v + lam * s for v, s in zip(x, step)])) < norm0:
                    break
            except EvaluationError:  # outside the rhs's domain: as a nan residual
                pass
            lam *= 0.5
        x = [v + lam * s for v, s in zip(x, step)]

    try:
        return _report(f, jacobian, model.state_names, best, best_res, "newton")
    except NoConvergenceError:
        if model.dimension != 1:
            raise
        root = _bisection_1d(lambda v: rhs(0.0, [v])[0], 0.0,
                             max(10.0 * abs(float(guess.values[0])), 1.0))
        if root is None:
            raise
    return _report(f, jacobian, model.state_names, [root], abs(f([root])[0]), "bisection")


def time_to_epsilon(model: ModelSystem, params: ParameterSet, state0: StateVector,
                    epsilon: float, report: SteadyStateReport | None = None) -> float:
    """Smallest t with |T(t) - T*| <= epsilon * |T(0) - T*| for the first
    state component, T* being ``report``, the steady state found from
    ``state0`` (found here when None).

    The Dormand-Prince run from ``state0`` (rtol 1e-10, atol 1e-13) stops
    at the first accepted state within the bound, and the crossing is
    bisected on that step's continuous extension (``first_crossing``).

    Raises ``ConvergenceTimeoutError`` if the bound is not met within
    50 / relaxation_rate.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValidationError([f"epsilon must be in (0, 1), got {epsilon:g}"])
    if report is None:
        report = find_steady_state(model, params, state0)
    t_star = float(report.values.values[0])
    gap0 = abs(float(state0.values[0]) - t_star)
    target = epsilon * gap0
    if gap0 <= target:  # gap0 == 0, or so small that epsilon * gap0 rounds back to it
        return 0.0
    horizon = 50.0 / report.relaxation_rate
    t = first_crossing(model, params, state0, horizon, lambda T: abs(T - t_star) <= target,
                       _T_EPS_RTOL, _T_EPS_ATOL)
    if t is None:
        raise ConvergenceTimeoutError(
            f"|T - T*| did not reach {target:.3e} within {horizon:g} time units")
    return t


def classify_curvature(trajectory: Trajectory, component: str,
                       window: tuple[float, float] | None = None) -> CurvatureVerdict:
    """Second-difference classification on the trajectory's own points: the
    maximal decreasing run inside ``window`` (default: the whole
    trajectory), the longest in time.

    A window outside the trajectory's time range raises ``ValidationError``;
    an empty one, t0 == t1 (``collapse_window`` of a decline that is
    steepest at its start), raises ``InsufficientDataError``, as too few
    points do.

    Classes: ``flat`` when the total variation is at most 1e-9 * |first
    value| or the run's own ``solver_info["atol"]``, below which a solver
    resolves nothing (two points in the window suffice; the other classes
    need 8); ``non-monotonic`` when no decreasing run covers half the
    window's time; ``decelerating-decline`` / ``accelerating-decline`` when
    at least 90% of the nonzero second differences share a sign; ``mixed``
    otherwise.  The second difference at an interior point of the run is
    its change of slope times the harmonic mean of its two spacings, which
    on a uniform grid is v[i+1] - 2 v[i] + v[i-1].
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
    # differences of values near the top of the float range, and of any
    # times, can overflow: work on them scaled by powers of two (exact)
    exponent = 0
    largest = float(np.abs(values).max())
    if largest > _DIFFERENCE_LIMIT:
        exponent = math.frexp(largest)[1]
        values, ref = np.ldexp(values, -exponent), math.ldexp(ref, -exponent)
    span = float(values.max() - values.min())
    if span <= max(1e-9 * ref, math.ldexp(trajectory.solver_info.get("atol", 0.0), -exponent)):
        return CurvatureVerdict(
            "flat", (float(times[0]), float(times[-1])),
            {"total_variation": math.ldexp(span, exponent)}, shape_label="constant",
        )
    if times.size < 8:
        raise too_few
    t = np.ldexp(times, -math.frexp(max(-float(times[0]), float(times[-1])))[1])  # in [-1, 1]

    # maximal decreasing runs (ties tolerated up to rounding noise), as
    # [first step, one past the last step) of each
    tol = 1e-12 * max(float(np.abs(values).max()), 1.0)
    decreasing = np.concatenate(([False], np.diff(values) < tol, [False]))
    runs = np.flatnonzero(decreasing[1:] != decreasing[:-1]).reshape(-1, 2)
    lengths = t[runs[:, 1]] - t[runs[:, 0]]
    fraction = float(lengths.max() / (t[-1] - t[0])) if runs.size else 0.0
    if fraction < 0.5:
        return CurvatureVerdict(
            "non-monotonic", (float(times[0]), float(times[-1])),
            {"longest_decreasing_fraction": fraction}, shape_label="not monotone",
        )

    first, last = runs[int(np.argmax(lengths))]
    run = values[first:last + 1]
    dv, dt = np.diff(run), np.diff(t[first:last + 1])
    spacing = dt[:-1] + dt[1:]
    d2 = 2.0 * (dv[1:] * (dt[:-1] / spacing) - dv[:-1] * (dt[1:] / spacing))
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
    win = (float(times[first]), float(times[last]))
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
