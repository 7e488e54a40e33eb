"""Time stepping: classic fixed-step RK4, an adaptive Dormand-Prince 5(4)
embedded pair with proportional step control, and an L-stable Radau IIA
of order 5 for stiff runs.  Every solver evaluates the model through
``ModelSystem.bind``, so the parameters are read once per run.  The
Dormand-Prince kernel computes on Python floats: its states and stages
are lists, and a step makes no numpy call at all besides those a
hand-built rhs makes.

Both explicit integrators return a ``Trajectory`` of accepted points.
Between the points of a Dormand-Prince step, ``dense_output`` evaluates the
method's free 4th-order continuous extension from the step's stages; the
stepping kernel ``_dopri_steps`` yields them one accepted step at a time,
so a caller can stop at an event (``time_to_epsilon`` does).
``classify_curvature`` still interpolates linearly between accepted points.

``_radau_steps`` is the implicit kernel, a generator over accepted steps
like ``_dopri_steps``; between its points ``collocation_output`` evaluates
the step's collocation polynomial, which also predicts the next step's
stages.  Its Newton iteration runs on the inverse of one real 3n x 3n
matrix, so an iteration is one matrix-vector product.  The slow-feedback
mechanisms, whose explicit steps are pinned at the stability limit, run
on it: the claims store each mechanism run as that polynomial sampled at
4,097 uniform times, in one pass after the last step
(``claims.mechanism_trajectory``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelSystem, ParameterSet, StateVector, validate
from .errors import BlowupError, DomainError, EvaluationError, StiffnessError, ValidationError

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
_DP_E = tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))  # the error estimate's weights
# The kernel's weights on k1 ... k7, row by row: the inputs of stages 2 ... 6,
# the 5th-order solution (the input of stage 7) and the error estimate,
# the last two without their zero weights on k2 (and on k7, for B5)
_DP_WEIGHTS = (*_DP_A[1], *_DP_A[2], *_DP_A[3], *_DP_A[4], *_DP_A[5],
               _DP_B5[0], *_DP_B5[2:6], _DP_E[0], *_DP_E[2:])
# Weights on k1 ... k7 of the quartic term of the continuous extension
# (Hairer's dopri5.f, contd5)
_DP_D = np.array((-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                  -10690763975 / 1880347072, 701980252875 / 199316789632,
                  -1453857185 / 822651844, 69997945 / 29380423))

# Radau IIA of order 5 (Hairer & Wanner, *Solving ODEs II*, IV.8): the
# collocation nodes, the weights of the embedded 3rd-order error estimate,
# the eigenvalues of the inverse of the Runge-Kutta matrix (one real, one
# complex pair) and the transformation T that turns that matrix into the
# real block form _RADAU_LAMBDA, the Newton matrix of the transformed stages
# being Lambda / h (x) I - I (x) J
_S6 = 6 ** 0.5
_RADAU_C = np.array(((4 - _S6) / 10, (4 + _S6) / 10, 1.0))
_RADAU_E = np.array((-13 - 7 * _S6, -13 + 7 * _S6, -1.0)) / 3
_MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
_MU_COMPLEX = (3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3))
               - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6)))
_RADAU_LAMBDA = np.array(((_MU_REAL, 0.0, 0.0),
                          (0.0, _MU_COMPLEX.real, -_MU_COMPLEX.imag),
                          (0.0, _MU_COMPLEX.imag, _MU_COMPLEX.real)))
_RADAU_T = np.array((
    (0.09443876248897524, -0.14125529502095421, 0.03002919410514742),
    (0.25021312296533332, 0.20412935229379994, -0.38294211275726192),
    (1.0, 1.0, 0.0)))
_RADAU_TI = np.array((
    (4.17871859155190428, 0.32768282076106237, 0.52337644549944951),
    (-4.17871859155190428, -0.32768282076106237, 0.47662355450055044),
    (0.50287263494578682, -2.57192694985560522, 0.59603920482822492)))
# Coefficients of theta, theta^2, theta^3 of the collocation polynomial,
# per stage increment Z_i = Y_i - y_prev
_RADAU_P = np.array((
    (13 / 3 + 7 * _S6 / 3, -23 / 3 - 22 * _S6 / 3, 10 / 3 + 5 * _S6),
    (13 / 3 - 7 * _S6 / 3, -23 / 3 + 22 * _S6 / 3, 10 / 3 - 5 * _S6),
    (1 / 3, -8 / 3, 10 / 3)))
_NEWTON_MAXITER = 6

# Step budget of one integration, adaptive trial steps or fixed RK4 steps
MAX_STEPS = 2_000_000
_FD_STEP = np.finfo(float).eps ** (1 / 3)  # balances O(h^2) truncation against rounding


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


def _fd_jacobian(f, x):
    """Second-order finite-difference Jacobian: central differences, and the
    one-sided three-point formula where a central step would take a
    nonnegative component below 0."""
    n = x.size
    J = np.empty((n, n))
    fx = None
    for j in range(n):
        h = _FD_STEP * max(abs(x[j]), 1.0)
        e = np.zeros(n)
        e[j] = h
        if x[j] < 0 or x[j] >= h:
            J[:, j] = (f(x + e) - f(x - e)) / (2.0 * h)
        else:
            if fx is None:
                fx = f(x)
            J[:, j] = (4.0 * f(x + e) - f(x + 2.0 * e) - 3.0 * fx) / (2.0 * h)
    return J


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
    rhs = model.bind(p)

    def f(t, y):
        return np.array(rhs(t, y.tolist()))

    def rk4_step(t, y, h):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
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

    Each accepted step yields ``(t_prev, t, h, y, K, counts)``: the step
    runs from ``t_prev`` to ``t`` with stage size ``h``, ``y`` is the new
    state and ``K = (y_prev, k1, ..., k7)`` the step's stages, each a fresh
    list of floats, and ``counts`` one dict, updated in place, with the
    trial steps ``rejected`` and the ``rhs_evals`` so far (an evaluation
    that raises counts).  ``dense_output`` evaluates the step in between.
    Step control is described at ``integrate_adaptive``.

    The arithmetic is on Python floats: the rhs is the model's bound form
    (``ModelSystem.bind``), the tableau is scaled by ``h`` once per trial,
    and each stage input, the 5th-order solution and the error estimate
    is one list comprehension over the components.

    Iterate it inside ``np.errstate(all="ignore")``: a hand-built rhs may
    compute in numpy, whose non-finite trial steps are rejected, not warned
    about.  The error state has to be set by the caller, around the loop,
    because a decorator on a generator function covers only the creation
    of the generator, and a ``with`` block in its body would leak into the
    caller between steps.
    """
    if rtol <= 0 or atol <= 0:
        raise DomainError("rtol and atol must be positive")
    p, y = _prepare(model, params, state0, t0, t_end)
    f = model.bind(p)
    y = y.tolist()
    t0, t_end = float(t0), float(t_end)  # numpy scalars would reach the stages through h
    c2, c3, c4, c5 = _DP_C[1:5]
    span = t_end - t0
    h = span / 100.0
    h_min = 1e-14 * span
    t = t0
    counts = {"rejected": 0, "rhs_evals": 1}
    try:
        k1 = f(t, y)  # FSAL: k1 is the previous step's k7
    except EvaluationError:  # outside the rhs's domain: as a nan rate
        k1 = [math.nan] * len(y)
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
        (a21, a31, a32, a41, a42, a43, a51, a52, a53, a54, a61, a62, a63, a64, a65,
         b1, b3, b4, b5, b6, e1, e3, e4, e5, e6, e7) = [h * w for w in _DP_WEIGHTS]
        stage = 1  # k2 ... k7 are stages 1 ... 6 of the trial
        try:
            k2 = f(t + c2 * h, [u + a21 * q1 for u, q1 in zip(y, k1)])
            stage = 2
            k3 = f(t + c3 * h, [u + a31 * q1 + a32 * q2 for u, q1, q2 in zip(y, k1, k2)])
            stage = 3
            k4 = f(t + c4 * h, [u + a41 * q1 + a42 * q2 + a43 * q3
                                for u, q1, q2, q3 in zip(y, k1, k2, k3)])
            stage = 4
            k5 = f(t + c5 * h, [u + a51 * q1 + a52 * q2 + a53 * q3 + a54 * q4
                                for u, q1, q2, q3, q4 in zip(y, k1, k2, k3, k4)])
            stage = 5
            k6 = f(t + h, [u + a61 * q1 + a62 * q2 + a63 * q3 + a64 * q4 + a65 * q5
                           for u, q1, q2, q3, q4, q5 in zip(y, k1, k2, k3, k4, k5)])
            stage = 6
            y5 = [u + b1 * q1 + b3 * q3 + b4 * q4 + b5 * q5 + b6 * q6
                  for u, q1, q3, q4, q5, q6 in zip(y, k1, k3, k4, k5, k6)]
            k7 = f(t + h, y5)  # the last stage is evaluated at the 5th-order solution
        except EvaluationError:  # a stage left the rhs's domain: a non-finite trial
            finite = False
        else:
            err = [e1 * q1 + e3 * q3 + e4 * q4 + e5 * q5 + e6 * q6 + e7 * q7
                   for q1, q3, q4, q5, q6, q7 in zip(k1, k3, k4, k5, k6, k7)]
            # err weighs every stage but k2, and k2 enters every later stage
            finite = all(map(math.isfinite, err + y5))
        counts["rhs_evals"] += stage  # the last may have raised
        if not finite:
            counts["rejected"] += 1
            h *= 0.2
            continue
        err_norm = max([abs(e) / (atol + rtol * max(abs(a), abs(b)))
                        for e, a, b in zip(err, y, y5)])
        if err_norm <= 1.0:
            t_prev, t = t, (t_end if last else t + h)
            yield t_prev, t, h, y5, (y, k1, k2, k3, k4, k5, k6, k7), counts
            y, k1 = y5, k7
        else:
            counts["rejected"] += 1
        factor = 0.9 * (1.0 / max(err_norm, 1e-16)) ** 0.2
        h = h * min(5.0, max(0.2, factor))
    if t >= t_end:  # the last of the max_steps trials landed on t_end
        return
    raise StiffnessError(f"step budget of {max_steps} exhausted at t = {t:g}")


def dense_output(Y, y, h: float, theta: float):
    """The state at ``t_prev + theta * h``, theta in [0, 1], inside one
    accepted Dormand-Prince step: the free 4th-order continuous extension
    (Hairer, Norsett & Wanner, *Solving ODEs I*, II.6, ``contd5``).

    ``Y = [y_prev; k1 ... k7]`` and ``y`` are the stages ``K`` and the state
    that ``_dopri_steps`` yields for the step, either as arrays
    (``np.array(K)``) or, for one component, as floats (``[row[j] for row
    in K]`` with ``y[j]``).  theta = 0 gives ``y_prev`` and theta = 1 gives
    ``y``, each up to one rounding of ``y - y_prev``.
    """
    y_prev = Y[0]
    dy = y - y_prev
    slope = h * Y[1] - dy
    bend = dy - h * Y[7] - slope
    quartic = h * np.dot(_DP_D, Y[1:])
    rest = 1.0 - theta
    return y_prev + theta * (dy + rest * (slope + theta * (bend + rest * quartic)))


def _rms(x) -> float:
    """The root-mean-square norm of an array."""
    x = x.ravel()
    return math.sqrt(float(x.dot(x)) / x.size)


def _radau_newton(f, t, y, h, Z, scale, tol, M):
    """The simplified Newton iteration on the Radau collocation system,
    started from the stage increments ``Z`` (3 x n: stage i at
    ``t + C_i h`` is ``y + Z_i``) and run on the transformed variables
    W = T^-1 Z.  ``M`` is the inverse of the Newton matrix of W
    (``_radau_newton_inverse``), so an iteration is one product
    dW = M (T^-1 F - (Lambda / h) W) with the stage
    derivatives F.  A stage that raises ``EvaluationError`` ends the
    iteration unconverged, and so does a non-finite Newton norm (a
    non-finite stage or matrix).  Returns (converged, finite, iterations,
    Z, rate of convergence)."""
    n = y.size
    stage_times = (t + h * _RADAU_C).tolist()
    lam = _RADAU_LAMBDA / h
    scale = np.concatenate((scale, scale, scale))  # the scale of each row of W
    F = np.empty((3, n))
    W = _RADAU_TI.dot(Z)
    w = W.reshape(-1)  # a view: W += dW through it
    norm_old = rate = None
    for k in range(_NEWTON_MAXITER):
        stages = y + Z
        try:
            for i in range(3):
                F[i] = f(stage_times[i], stages[i])
        except EvaluationError:
            return False, False, k + 1, Z, rate
        dW = M.dot((_RADAU_TI.dot(F) - lam.dot(W)).reshape(-1))
        norm = _rms(dW / scale)
        if not math.isfinite(norm):
            return False, False, k + 1, Z, rate
        if norm_old is not None:
            rate = norm / norm_old
            if rate >= 1 or rate ** (_NEWTON_MAXITER - k) / (1 - rate) * norm > tol:
                break
        w += dW
        Z = _RADAU_T.dot(W)
        if norm == 0 or rate is not None and rate / (1 - rate) * norm < tol:
            return True, True, k + 1, Z, rate
        norm_old = norm
    return False, True, k + 1, Z, rate


def _radau_newton_inverse(lam, h, J):
    """The inverse of the Newton matrix of the transformed stages,
    Lambda / h (x) I - I (x) J, from ``lam`` = Lambda (x) I: one real
    3n x 3n inversion.  Lambda is block diagonal, so the inverse's first
    n x n block is the inverse of mu_real / h I - J."""
    n = J.shape[0]
    N = lam / h
    for i in range(0, 3 * n, n):
        N[i:i + n, i:i + n] -= J
    return np.linalg.inv(N)


def _radau_factor(h, h_prev, err, err_prev) -> float:
    """Gustafsson's predictive step control: the factor on the step size
    from this and the previous accepted step's error norms."""
    multiplier = 1.0
    if err_prev is not None and err != 0:
        multiplier = min(1.0, h / h_prev * (err_prev / err) ** 0.25)
    return multiplier * err ** -0.25 if err else math.inf


def _radau_steps(model: ModelSystem, params: ParameterSet, state0: StateVector,
                 t0: float, t_end: float, rtol: float, atol: float,
                 max_steps: int = MAX_STEPS):
    """Radau IIA(5) stepping kernel: a generator over accepted steps, as
    ``_dopri_steps`` is (Hairer & Wanner, *Solving ODEs II*, IV.8; the
    algorithm of scipy's ``Radau``, in numpy alone).

    Each accepted step yields ``(t_prev, t, h, y, Y, counts)``: the step
    runs from ``t_prev`` to ``t`` with size ``h``, ``y`` is the new state,
    ``Y = [y_prev; q1; q2; q3]`` the step's collocation polynomial for
    ``collocation_output``, and ``counts`` one dict, updated in place, with
    the trial steps ``rejected``, the ``rhs_evals`` (finite-difference
    Jacobians included; an evaluation that raises counts), the
    ``jac_evals`` and the ``factorizations`` (inversions of the Newton
    matrix) so far.

    Each step solves the collocation system by simplified Newton on the
    transformed stages (``_radau_newton``), with the inverse of their
    Newton matrix formed once per step size and Jacobian; its first block
    serves the error estimate.  The stages start from the last step's
    polynomial (``collocation_output``).  The Jacobian is ``_fd_jacobian`` at
    the step's start, kept across steps while Newton converges fast; a
    Newton solve that fails with a stale Jacobian is retried with a fresh
    one, and one that fails with a fresh Jacobian (a stage that raises
    ``EvaluationError`` or a non-finite Newton norm counts as a failure)
    halves the step.  The embedded 3rd-order error estimate is
    held to 1 in the root-mean-square norm scaled by
    ``atol + rtol * max(|y|, |y_new|)``, and the step size follows
    Gustafsson's predictive controller.  The first trial step is
    ``(t_end - t0) / 100``; the last accepted time is ``t_end`` exactly.
    A step below 1e-14 * (t_end - t0) raises ``BlowupError`` when the
    trials that drove it there were non-finite and ``StiffnessError``
    otherwise, and so does a run of more than ``max_steps`` trial steps.

    Iterate it inside ``np.errstate(all="ignore")``, as ``_dopri_steps``.
    """
    if rtol <= 0 or atol <= 0:
        raise DomainError("rtol and atol must be positive")
    p, y = _prepare(model, params, state0, t0, t_end)
    rhs = model.bind(p)
    counts = {"rejected": 0, "rhs_evals": 0, "jac_evals": 0, "factorizations": 0}

    def f(t, x):
        counts["rhs_evals"] += 1
        return np.array(rhs(t, x.tolist()))

    def jacobian(t, x):
        counts["jac_evals"] += 1
        try:
            return _fd_jacobian(lambda z: f(t, z), x)
        except EvaluationError:  # no Jacobian here: every Newton solve fails
            return np.full((x.size, x.size), math.nan)

    lam = np.kron(_RADAU_LAMBDA, np.identity(y.size))

    def newton_inverse(h, J):
        counts["factorizations"] += 1
        return _radau_newton_inverse(lam, h, J)

    span = t_end - t0
    h_min = 1e-14 * span
    newton_tol = max(10 * np.finfo(float).eps / rtol, min(0.03, rtol ** 0.5))
    t = t0
    try:
        f_y = f(t, y)
    except EvaluationError:  # outside the rhs's domain: as a nan rate
        f_y = np.full(y.size, math.nan)
    J, fresh = jacobian(t, y), True
    inv = None  # (h, the Newton inverse for h and the current J)
    h_next = span / 100.0
    h_prev = err_prev = None  # size and error norm of the last accepted step
    finite, retried = True, False  # retried: a trial of this step failed its error test
    Y = None  # the last accepted step's polynomial, which predicts the next stages
    for _ in range(max_steps):
        last = t_end - t - h_next < h_min  # no remainder shorter than h_min
        h = t_end - t if last else h_next
        if h < h_min:
            if not finite:
                raise BlowupError(f"state became non-finite at t = {t + h:g}", time=t + h)
            raise StiffnessError(
                f"step size underflow ({h:.3e}) at t = {t:g}; problem too stiff"
            )
        if Y is None:
            Z0 = np.zeros((3, y.size))
        else:  # the last polynomial at the new stage times
            theta = (t + h * _RADAU_C - t_prev) / h_prev
            Z0 = collocation_output(Y, theta[:, None]) - y
        scale = atol + rtol * np.abs(y)
        while True:
            try:
                if inv is None or inv[0] != h:
                    inv = (h, newton_inverse(h, J))
            except np.linalg.LinAlgError:  # singular: no Newton step, as a non-finite stage
                converged = finite = False
            else:
                converged, finite, n_iter, Z, rate = _radau_newton(
                    f, t, y, h, Z0, scale, newton_tol, inv[1])
            if converged or fresh:
                break
            J, fresh, inv = jacobian(t, y), True, None
        if not converged:
            counts["rejected"] += 1
            h_next = 0.5 * h
            continue
        y_new = y + Z[-1]
        ZE = Z.T.dot(_RADAU_E) / h
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        E = inv[1][:y.size, :y.size]  # the inverse of mu_real / h I - J
        error = E.dot(f_y + ZE)
        err = _rms(error / scale)
        if retried and err > 1:  # a sharper estimate after a rejection
            try:
                error = E.dot(f(t, y + error) + ZE)
                err = _rms(error / scale)
            except EvaluationError:
                err = math.inf
        safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
        finite = math.isfinite(err) and np.isfinite(y_new).all()
        if not (err <= 1 and finite):
            counts["rejected"] += 1
            factor = _radau_factor(h, h_prev, err, err_prev) if finite else 0.0
            h_next, retried = h * max(0.2, safety * factor), True
            continue
        factor = min(10.0, safety * _radau_factor(h, h_prev, err, err_prev))
        refresh = n_iter > 2 and rate > 1e-3  # Newton converged slowly
        if not refresh and factor < 1.2:
            factor = 1.0  # keep h, and with it the Newton inverse
        h_prev, err_prev, retried = h, err, False
        h_next = h * factor
        Y = np.empty((4, y.size))
        Y[0] = y
        Y[1:] = Z.T.dot(_RADAU_P).T
        t_prev, t = t, (t_end if last else t + h)
        y = y_new
        yield t_prev, t, h, y, Y, counts
        if t >= t_end:
            return
        try:
            f_y = f(t, y)
        except EvaluationError:
            f_y = np.full(y.size, math.nan)
        if refresh:
            J, fresh, inv = jacobian(t, y), True, None
        else:
            fresh = False
    raise StiffnessError(f"step budget of {max_steps} exhausted at t = {t:g}")


def collocation_output(Y, theta):
    """The state at ``t_prev + theta * h`` inside one accepted Radau step:
    its collocation polynomial, ``Y = [y_prev; q1; q2; q3]`` as
    ``_radau_steps`` yields it.  theta may be a column of values, giving one
    state row each; theta = 0 gives ``y_prev``, and theta = 1 the new state
    up to rounding."""
    return Y[0] + theta * (Y[1] + theta * (Y[2] + theta * Y[3]))


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

    A trial step whose stages or solution are non-finite, or whose rhs
    raises ``EvaluationError`` (the trial left the rhs's domain, e.g. an
    overshoot to T < 0 under a fractional power), is rejected and retried at
    a fifth of the step; an initial state outside the domain counts as a
    nan k1.  A step size below 1e-14*(t_end - t0) raises ``BlowupError``
    when the trials that drove it there were non-finite and
    ``StiffnessError`` otherwise.  ``max_steps`` bounds the
    number of trial steps.  The steps are those of ``_dopri_steps``;
    ``solver_info`` counts them (``accepted``, ``rejected``) and the
    ``rhs_evals``.
    """
    times = [t0]
    states = [np.array(state0.values, dtype=float)]
    for _, t, _, y, _, counts in _dopri_steps(model, params, state0, t0, t_end,
                                              rtol, atol, max_steps):
        times.append(t)
        states.append(y)
    return Trajectory(
        np.array(times), np.array(states), model.state_names,
        {"scheme": "dopri54", "rtol": rtol, "atol": atol,
         "accepted": len(times) - 1, **counts},
    )
