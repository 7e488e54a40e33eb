"""Time stepping: classic fixed-step RK4 and an adaptive Dormand-Prince 5(4)
embedded pair with proportional step control.  The Dormand-Prince stages
are formed by small matrix products against one constant weight matrix, so
a step costs a handful of numpy calls besides its seven rhs evaluations.

Both integrators return a ``Trajectory`` of accepted points.  Between the
points of a Dormand-Prince step, ``dense_output`` evaluates the method's
free 4th-order continuous extension from the step's stages; the stepping
kernel ``_dopri_steps`` yields them one accepted step at a time, so a caller
can stop at an event (``time_to_epsilon`` does).  ``classify_curvature``
still interpolates linearly between accepted points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelSystem, ParameterSet, StateVector, validate
from .errors import BlowupError, DomainError, StiffnessError, ValidationError

# Dormand-Prince 5(4) coefficients.  The 5th-order solution is propagated;
# the embedded 4th-order difference gives the local error estimate, hence
# the 1/5 exponent in the controller.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
# Weights on k1 ... k7 of the quartic term of the continuous extension
# (Hairer's dopri5.f, contd5)
_DP_D = np.array((-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                  -10690763975 / 1880347072, 701980252875 / 199316789632,
                  -1453857185 / 822651844, 69997945 / 29380423))

# Step budget of one integration, adaptive trial steps or fixed RK4 steps
MAX_STEPS = 2_000_000


def _dp_weights() -> np.ndarray:
    """Weights on Y = [y; k1 ... k7]: row i (1..6) gives the input of stage
    i + 1 once its y weight is set to 1, row 0 the error estimate.  B5 is
    the last row of A, so row 6 is also the 5th-order solution."""
    W = np.zeros((7, 8))
    for i in range(1, 7):
        W[i, 1:i + 1] = _DP_A[i]
    W[0, 1:] = np.subtract(_DP_B5, _DP_B4)
    return W


_DP_W = _dp_weights()


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration points: strictly increasing times, one state row
    per time, and solver metadata."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), dimension)
    state_names: tuple[str, ...]
    solver_info: dict

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        if times.ndim != 1 or times.size < 2:
            raise ValidationError(["trajectory needs at least two time points"])
        if np.any(np.diff(times) <= 0):
            raise ValidationError(["trajectory times must be strictly increasing"])
        if states.shape != (times.size, len(self.state_names)):
            raise ValidationError(
                [f"states shape {states.shape} does not match "
                 f"{times.size} times x {len(self.state_names)} names"]
            )
        if not np.all(np.isfinite(states)):
            raise ValidationError(["trajectory contains non-finite state values"])
        times.setflags(write=False)
        states.setflags(write=False)

    def __len__(self) -> int:
        return int(self.times.size)

    def component(self, name: str) -> np.ndarray:
        try:
            return self.states[:, self.state_names.index(name)]
        except ValueError:
            raise ValidationError([f"no component named {name!r}"]) from None

    def state_at(self, index: int) -> StateVector:
        return StateVector(self.state_names, self.states[index])

    @property
    def final_state(self) -> StateVector:
        return self.state_at(-1)


def _prepare(model: ModelSystem, params: ParameterSet, state0: StateVector,
             t0: float, t_end: float):
    if t_end <= t0:
        raise DomainError(f"t_end ({t_end:g}) must exceed t0 ({t0:g})")
    violations = validate(model, params, state0)
    if violations:
        raise ValidationError(violations)
    resolved = model.resolve_params(params)
    y0 = np.array(state0.values, dtype=float)
    return resolved, y0


def _check_finite(y: np.ndarray, t: float):
    if not np.all(np.isfinite(y)):
        raise BlowupError(f"state became non-finite at t = {t:g}", time=t)


def integrate_fixed(model: ModelSystem, params: ParameterSet, state0: StateVector,
                    t0: float, t_end: float, dt: float) -> Trajectory:
    """Classic 4-stage Runge-Kutta with a shortened final step that lands
    exactly on ``t_end``.  Global error is O(dt^4).  A ``dt`` that needs more
    than ``MAX_STEPS`` steps raises ``DomainError`` before the first step."""
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt:g}")
    p, y = _prepare(model, params, state0, t0, t_end)
    if (t_end - t0) / dt > MAX_STEPS:
        raise DomainError(
            f"dt = {dt:g} needs more than {MAX_STEPS} steps over [{t0:g}, {t_end:g}]"
        )
    f = model.rhs

    def rk4_step(t, y, h):
        k1 = f(t, y, p)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1, p)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2, p)
        k4 = f(t + h, y + h * k3, p)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    n_whole = int(np.floor((t_end - t0) / dt + 1e-9))
    times = [t0]
    states = [y.copy()]
    t = t0
    for i in range(n_whole):
        y = rk4_step(t, y, dt)
        t = t0 + (i + 1) * dt  # recomputed to avoid accumulation drift
        _check_finite(y, t)
        times.append(t)
        states.append(y.copy())
    if t < t_end:
        # shortened final step lands exactly on t_end
        y = rk4_step(t, y, t_end - t)
        _check_finite(y, t_end)
        times.append(t_end)
        states.append(y.copy())
    else:
        times[-1] = t_end
    return Trajectory(
        np.array(times), np.array(states), model.state_names,
        {"scheme": "rk4", "dt": dt, "accepted": len(times) - 1, "rejected": 0},
    )


def _dopri_steps(model: ModelSystem, params: ParameterSet, state0: StateVector,
                 t0: float, t_end: float, rtol: float, atol: float,
                 max_steps: int = MAX_STEPS):
    """Dormand-Prince 5(4) stepping kernel: a generator over accepted steps.

    Each accepted step yields ``(t_prev, t, h, y, Y, rejected)``: the step
    runs from ``t_prev`` to ``t`` with stage size ``h``, ``y`` is the new
    state (a fresh array), ``Y`` the stage buffer ``[y_prev; k1 ... k7]``,
    valid only until the generator resumes, and ``rejected`` the number of
    trial steps rejected so far.  ``dense_output(Y, y, h, theta)`` evaluates
    the step in between.  Step control is described at ``integrate_adaptive``.

    Each stage input, the 5th-order solution and the error estimate cost one
    small product of a row of h * _DP_W with the filled rows of Y.

    Iterate it inside ``np.errstate(all="ignore")``: non-finite trial steps
    are rejected, not warned about.  The error state has to be set by the
    caller, around the loop, because a decorator on a generator function
    covers only the creation of the generator, and a ``with`` block in its
    body would leak into the caller between steps.
    """
    if rtol <= 0 or atol <= 0:
        raise DomainError("rtol and atol must be positive")
    p, y = _prepare(model, params, state0, t0, t_end)
    f = model.rhs
    span = t_end - t0
    h = span / 100.0
    h_min = 1e-14 * span
    t = t0
    rejected = 0
    Y = np.empty((8, y.size))
    Y[0] = y
    Y[1] = f(t, y, p)  # FSAL: k1 is the previous step's k7
    filled = [Y[:i + 1] for i in range(8)]
    y_l = y.tolist()
    finite = True
    for _ in range(max_steps):
        if t >= t_end:
            return
        last = t_end - t - h < h_min  # no remainder shorter than h_min
        if last:
            h = t_end - t
        if h < h_min:
            if not finite:
                raise BlowupError(f"state became non-finite at t = {t + h:g}", time=t + h)
            raise StiffnessError(
                f"step size underflow ({h:.3e}) at t = {t:g}; problem too stiff"
            )
        hW = h * _DP_W
        hW[1:, 0] = 1.0
        for i in range(1, 7):
            z = hW[i, :i + 1].dot(filled[i])
            Y[i + 1] = f(t + _DP_C[i] * h, z, p)
        y5 = z  # the last stage is evaluated at the 5th-order solution
        err = hW[0].dot(Y)
        err_l, y5_l = err.tolist(), y5.tolist()
        # err weighs every stage but k2, and k2 enters every later stage
        finite = all(map(math.isfinite, err_l + y5_l))
        if not finite:
            rejected += 1
            h *= 0.2
            continue
        err_norm = max(abs(e) / (atol + rtol * max(abs(a), abs(b)))
                       for e, a, b in zip(err_l, y_l, y5_l))
        if err_norm <= 1.0:
            t_prev, t = t, (t_end if last else t + h)
            yield t_prev, t, h, y5, Y, rejected
            y_l = y5_l
            Y[0] = y5
            Y[1] = Y[7]
        else:
            rejected += 1
        factor = 0.9 * (1.0 / max(err_norm, 1e-16)) ** 0.2
        h = h * min(5.0, max(0.2, factor))
    raise StiffnessError(f"step budget of {max_steps} exhausted at t = {t:g}")


def dense_output(Y, y, h: float, theta: float):
    """The state at ``t_prev + theta * h``, theta in [0, 1], inside one
    accepted Dormand-Prince step: the free 4th-order continuous extension
    (Hairer, Norsett & Wanner, *Solving ODEs I*, II.6, ``contd5``).

    ``Y = [y_prev; k1 ... k7]`` and ``y`` are what ``_dopri_steps`` yields
    for the step.  Rows may be state vectors or, for one component, floats
    (``Y[:, j]`` with ``y[j]``).  theta = 0 gives ``y_prev`` and theta = 1
    gives ``y``, each up to one rounding of ``y - y_prev``.
    """
    y_prev = Y[0]
    dy = y - y_prev
    slope = h * Y[1] - dy
    bend = dy - h * Y[7] - slope
    quartic = h * np.dot(_DP_D, Y[1:])
    rest = 1.0 - theta
    return y_prev + theta * (dy + rest * (slope + theta * (bend + rest * quartic)))


@np.errstate(all="ignore")  # non-finite trial steps are rejected, not warned about
def integrate_adaptive(model: ModelSystem, params: ParameterSet, state0: StateVector,
                       t0: float, t_end: float, rtol: float = 1e-8,
                       atol: float = 1e-12, max_steps: int = MAX_STEPS) -> Trajectory:
    """Dormand-Prince 5(4) with proportional control.

    Per accepted step the componentwise error estimate satisfies
    |err_i| <= atol + rtol*max(|y_i|, |y5_i|).  Step-size update:
    dt <- dt * clamp(0.9 * (1/err_norm)^(1/5), 0.2, 5.0); the initial step is
    (t_end - t0)/100.  A step that would leave less than the minimum step
    before t_end is stretched to it, and the last accepted time is t_end
    exactly.

    A trial step whose stages or solution are non-finite (the rhs left its
    domain, e.g. an overshoot to T < 0 under a fractional power) is rejected
    and retried at a fifth of the step.  A step size below 1e-14*(t_end - t0)
    raises ``BlowupError`` when the trials that drove it there were
    non-finite and ``StiffnessError`` otherwise.  ``max_steps`` bounds the
    number of trial steps.  The steps are those of ``_dopri_steps``.
    """
    times = [t0]
    states = [np.array(state0.values, dtype=float)]
    rejected = 0
    for _, t, _, y, _, rejected in _dopri_steps(model, params, state0, t0, t_end,
                                                rtol, atol, max_steps):
        times.append(t)
        states.append(y)
    return Trajectory(
        np.array(times), np.array(states), model.state_names,
        {"scheme": "dopri54", "rtol": rtol, "atol": atol,
         "accepted": len(times) - 1, "rejected": rejected},
    )
