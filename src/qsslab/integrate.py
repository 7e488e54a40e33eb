"""Time stepping: classic fixed-step RK4, an adaptive Dormand-Prince 5(4)
embedded pair with proportional step control, and an L-stable Radau IIA
of order 5 for stiff runs.  Every solver evaluates the model through
``ModelSystem.bind``, so the parameters are read once per run.  The
Dormand-Prince kernel computes on Python floats, in a stepping loop
generated for the run's dimension (``_dopri_source``) that keeps each
component of the state and the stages in a local variable and writes
each stage input out component by component; a step makes no numpy call
at all besides those a hand-built rhs makes.

Both explicit integrators return a ``Trajectory`` of accepted points.
The two adaptive kernels, ``_dopri_steps`` and ``_radau_steps``, are
generators over accepted steps, and between a step's points only its own
interpolant is evaluated: the free 4th-order continuous extension for
Dormand-Prince (``dense_output``), the collocation polynomial for Radau
(``collocation_output``, which also predicts the next step's stages).
No other module reads a step: ``sampled_dopri_run`` and
``sampled_radau_run`` keep a run's steps and evaluate them at given
times in one pass after the last step, and ``first_crossing`` stops the
Dormand-Prince run at an event and bisects it on the step's extension
(``analysis.time_to_epsilon``).  Radau takes the model's generated
Jacobian (``ModelSystem.jacobian``; finite differences only for a model
without one), and its Newton iteration runs on the inverse of one real
3n x 3n matrix, so an iteration is one matrix-vector product around
three rhs calls; the slow-feedback mechanisms, whose explicit steps are
pinned at the stability limit, run on it (``claims.mechanism_trajectory``).
"""
from __future__ import annotations

import functools
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
_RADAU_C = ((4 - _S6) / 10, (4 + _S6) / 10, 1.0)
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


def array_jacobian(model: ModelSystem, params, f):
    """J(t, x) as an array at the resolved ``params``: the model's
    generated Jacobian (``ModelSystem.jacobian``), or, for a model without
    one, ``_fd_jacobian`` of ``f(t, x)``, an array-valued rhs."""
    if model.jacobian is None:
        return lambda t, x: _fd_jacobian(lambda z: f(t, z), x)
    jac = model.jacobian(params)
    return lambda t, x: np.array(jac(t, x.tolist()))


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


def _step_underflow(t: float, h: float, finite: bool):
    """The error of a trial step size below the minimum at ``t``:
    ``BlowupError`` when the trials that drove it there were non-finite,
    ``StiffnessError`` otherwise."""
    if not finite:
        return BlowupError(f"state became non-finite at t = {t + h:g}", time=t + h)
    return StiffnessError(f"step size underflow ({h:.3e}) at t = {t:g}; problem too stiff")


def _dopri_source(n: int) -> str:
    """The source of the Dormand-Prince stepping loop for ``n`` components.

    The loop keeps the state ``y_#``, the stages ``k1_#`` ... ``k7_#``, the
    5th-order solution ``y5_#`` and the error estimate ``e_#`` as local
    floats, component ``#`` by component: each per-component form below
    is written out once per component, in the operation order of the
    formula.  The weights, scaled by ``h`` once per trial, are the products
    ``h * <literal>``.  ``kernel`` yields what ``_dopri_steps`` yields, and
    returns the time it reached.
    """

    def each(form: str, sep: str = ", ") -> str:
        """``form`` once per component, ``#`` its index, joined by ``sep``."""
        return sep.join(form.replace("#", str(i)) for i in range(n))

    weights = "; ".join(f"{name} = h * {w!r}" for name, w in zip(
        ("a21 a31 a32 a41 a42 a43 a51 a52 a53 a54 a61 a62 a63 a64 a65 "
         "b1 b3 b4 b5 b6 e1 e3 e4 e5 e6 e7").split(), _DP_WEIGHTS))
    c2, c3, c4, c5 = map(repr, _DP_C[1:5])
    err_norm = "abs(e_#) / (atol + rtol * max(abs(y_#), abs(y5_#)))"
    return f'''\
def kernel(f, t, t_end, h, h_min, rtol, atol, max_steps, y, k1, counts):
    {each("y_#")}, = y
    {each("k1_#")}, = k1
    finite = True
    for _ in range(max_steps):
        if t >= t_end:
            return t
        last = t_end - t - h < h_min  # no remainder shorter than h_min
        if last:
            h = t_end - t
        if h < h_min:
            raise _step_underflow(t, h, finite)
        {weights}
        stage = 1  # k2 ... k7 are stages 1 ... 6 of the trial
        try:
            k2 = f(t + {c2} * h, [{each("y_# + a21 * k1_#")}])
            {each("k2_#")}, = k2
            stage = 2
            k3 = f(t + {c3} * h, [{each("y_# + a31 * k1_# + a32 * k2_#")}])
            {each("k3_#")}, = k3
            stage = 3
            k4 = f(t + {c4} * h, [{each("y_# + a41 * k1_# + a42 * k2_# + a43 * k3_#")}])
            {each("k4_#")}, = k4
            stage = 4
            k5 = f(t + {c5} * h, [{each(
                "y_# + a51 * k1_# + a52 * k2_# + a53 * k3_# + a54 * k4_#")}])
            {each("k5_#")}, = k5
            stage = 5
            k6 = f(t + h, [{each(
                "y_# + a61 * k1_# + a62 * k2_# + a63 * k3_# + a64 * k4_# + a65 * k5_#")}])
            {each("k6_#")}, = k6
            stage = 6
            {each("y5_# = y_# + b1 * k1_# + b3 * k3_# + b4 * k4_# + b5 * k5_# + b6 * k6_#",
                  "; ")}
            y5 = [{each("y5_#")}]
            k7 = f(t + h, y5)  # the last stage is evaluated at the 5th-order solution
            {each("k7_#")}, = k7
        except EvaluationError:  # a stage left the rhs's domain: a non-finite trial
            finite = False
        else:
            {each("e_# = e1 * k1_# + e3 * k3_# + e4 * k4_# + e5 * k5_# + e6 * k6_# + e7 * k7_#",
                  "; ")}
            # err weighs every stage but k2, and k2 enters every later stage
            finite = {each("isfinite(e_#)", " and ")} and {each("isfinite(y5_#)", " and ")}
        counts["rhs_evals"] += stage  # the last may have raised
        if not finite:
            counts["rejected"] += 1
            h *= 0.2
            continue
        err_norm = {each(err_norm) if n == 1 else f"max({each(err_norm)})"}
        if err_norm <= 1.0:
            t_prev, t = t, (t_end if last else t + h)
            yield t_prev, t, h, y5, (y, k1, k2, k3, k4, k5, k6, k7), counts
            y, k1 = y5, k7
            {each("y_# = y5_#", "; ")}
            {each("k1_# = k7_#", "; ")}
        else:
            counts["rejected"] += 1
        factor = 0.9 * (1.0 / max(err_norm, 1e-16)) ** 0.2
        h = h * min(5.0, max(0.2, factor))
    return t
'''


@functools.cache
def _dopri_kernel(n: int):
    """The stepping loop of ``_dopri_source(n)``, compiled on first use."""
    namespace = {"EvaluationError": EvaluationError, "isfinite": math.isfinite,
                 "_step_underflow": _step_underflow}
    exec(compile(_dopri_source(n), f"<dopri5 kernel, n = {n}>", "exec"), namespace)
    return namespace["kernel"]


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
    (``ModelSystem.bind``), and the steps are taken by the loop generated
    for the model's dimension (``_dopri_source``, compiled once per
    dimension and process), which holds each component of the state and
    the stages in its own local variable.

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
    span = t_end - t0
    counts = {"rejected": 0, "rhs_evals": 1}
    try:
        k1 = f(t0, y)  # FSAL: k1 is the previous step's k7
    except EvaluationError:  # outside the rhs's domain: as a nan rate
        k1 = [math.nan] * len(y)
    t = yield from _dopri_kernel(len(y))(f, t0, t_end, span / 100.0, 1e-14 * span,
                                         rtol, atol, max_steps, y, k1, counts)
    if t < t_end:  # the budget's last trial did not land on t_end
        raise StiffnessError(f"step budget of {max_steps} exhausted at t = {t:g}")


def dense_output(Y, y, h: float, theta: float):
    """The state at ``t_prev + theta * h``, theta in [0, 1], inside one
    accepted Dormand-Prince step: the free 4th-order continuous extension
    (Hairer, Norsett & Wanner, *Solving ODEs I*, II.6, ``contd5``).

    ``Y = [y_prev; k1 ... k7]`` and ``y`` are the stages ``K`` and the state
    that ``_dopri_steps`` yields for the step, either as arrays
    (``np.array(K)``, or several steps side by side as columns, with ``h``
    and ``theta`` one per column) or, for one component, as floats
    (``[row[j] for row in K]`` with ``y[j]``).  theta = 0 gives ``y_prev``
    and theta = 1 gives ``y``, each up to one rounding of ``y - y_prev``.
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


def _radau_newton(rhs, t, y, h, Z, scale, tol, K, transforms, counts):
    """The simplified Newton iteration on the Radau collocation system,
    started from the stage increments ``Z`` (flat, stage after stage: stage
    i at ``t + C_i h`` is ``y + Z_i``) and run on the transformed variables
    W = T^-1 Z, kept flat as well.  An iteration is one product
    dW = K [F; W] with the stage derivatives F (``newton_inverse`` in
    ``_radau_steps`` forms K with the Newton inverse), and the stages are
    y + (T (x) I) W, ``transforms`` being (T^-1 (x) I, T (x) I).
    ``rhs`` is the bound rhs; each evaluation is counted in ``counts``,
    one that raises too.  A stage that raises ``EvaluationError`` ends the
    iteration unconverged, and so does a non-finite Newton norm (a
    non-finite stage or matrix).  Returns (converged, finite, iterations,
    Z as 3 x n, rate of convergence)."""
    n = y.size
    t0, t1, t2 = [t + h * c for c in _RADAU_C]
    y3 = np.concatenate((y, y, y))
    scale = np.concatenate((scale, scale, scale))  # the scale of each element of W
    FW = np.empty(6 * n)  # [F; W]
    w = FW[3 * n:]  # W += dW through it
    z = Z.ravel()
    w[:] = transforms[0].dot(z)
    norm_old = rate = None
    for k in range(_NEWTON_MAXITER):
        stages = (y3 + z).tolist()
        evals = 1
        try:
            f0 = rhs(t0, stages[:n])
            evals = 2
            f1 = rhs(t1, stages[n:2 * n])
            evals = 3
            FW[:3 * n] = f0 + f1 + rhs(t2, stages[2 * n:])
        except EvaluationError:
            counts["rhs_evals"] += evals
            return False, False, k + 1, z.reshape(3, n), rate
        counts["rhs_evals"] += 3
        dW = K.dot(FW)
        scaled = dW / scale
        norm = math.sqrt(scaled.dot(scaled) / scaled.size)  # the rms norm
        if not math.isfinite(norm):
            return False, False, k + 1, z.reshape(3, n), rate
        if norm_old is not None:
            rate = norm / norm_old
            if rate >= 1 or rate ** (_NEWTON_MAXITER - k) / (1 - rate) * norm > tol:
                break
        w += dW
        z = transforms[1].dot(w)
        if norm == 0 or rate is not None and rate / (1 - rate) * norm < tol:
            return True, True, k + 1, z.reshape(3, n), rate
        norm_old = norm
    return False, True, k + 1, z.reshape(3, n), rate


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
    the trial steps ``rejected``, the ``rhs_evals`` (an evaluation that
    raises counts, and so do those of finite-difference Jacobians), the
    ``jac_evals`` and the ``factorizations`` (inversions of the Newton
    matrix) so far, and which ``jacobian`` the run takes: ``"generated"``
    or ``"finite-difference"``.

    Each step solves the collocation system by simplified Newton on the
    transformed stages (``_radau_newton``), with the inverse of their
    Newton matrix formed once per step size and Jacobian; its first block
    serves the error estimate.  The stages start from the last step's
    polynomial (``collocation_output``).  The Jacobian is
    ``array_jacobian``'s (the generated one, or finite differences for a
    model without one) at the step's start, kept across steps while
    Newton converges fast; a Newton solve that fails with a stale Jacobian
    is retried with a fresh one, and one that fails with a fresh Jacobian
    (a stage that raises ``EvaluationError`` or a non-finite Newton norm
    counts as a failure) halves the step.  The embedded 3rd-order error estimate is
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
    counts = {"rejected": 0, "rhs_evals": 0, "jac_evals": 0, "factorizations": 0,
              "jacobian": "finite-difference" if model.jacobian is None else "generated"}

    def f(t, x):
        counts["rhs_evals"] += 1
        return np.array(rhs(t, x.tolist()))

    jac = array_jacobian(model, p, f)

    def jacobian(t, x):
        counts["jac_evals"] += 1
        try:
            return jac(t, x)
        except EvaluationError:  # no Jacobian here: every Newton solve fails
            return np.full((x.size, x.size), math.nan)

    n = y.size
    eye = np.identity(n)
    lam = np.kron(_RADAU_LAMBDA, eye)
    transforms = np.kron(_RADAU_TI, eye), np.kron(_RADAU_T, eye)
    B = np.hstack((transforms[0], lam))  # [T^-1 (x) I | -(Lambda / h) (x) I] once h is set

    def newton_inverse(h, J):
        """(h, M, K): the Newton inverse M for ``h`` and ``J``, and the
        Newton iteration's K = M [T^-1 (x) I | -(Lambda / h) (x) I]."""
        counts["factorizations"] += 1
        M = _radau_newton_inverse(lam, h, J)
        np.divide(lam, -h, out=B[:, 3 * n:])
        return h, M, M.dot(B)

    span = t_end - t0
    h_min = 1e-14 * span
    newton_tol = max(10 * np.finfo(float).eps / rtol, min(0.03, rtol ** 0.5))
    t = t0
    try:
        f_y = f(t, y)
    except EvaluationError:  # outside the rhs's domain: as a nan rate
        f_y = np.full(y.size, math.nan)
    J, fresh = jacobian(t, y), True
    inv = None  # newton_inverse(h, J) for the current h and J
    h_next = span / 100.0
    h_prev = err_prev = None  # size and error norm of the last accepted step
    finite, retried = True, False  # retried: a trial of this step failed its error test
    Y = None  # the last accepted step's polynomial, which predicts the next stages
    for _ in range(max_steps):
        last = t_end - t - h_next < h_min  # no remainder shorter than h_min
        h = t_end - t if last else h_next
        if h < h_min:
            raise _step_underflow(t, h, finite)
        if Y is None:
            Z0 = np.zeros(3 * n)
        else:  # the last polynomial at the new stage times, on floats, stage after stage
            thetas = [(t + h * c - t_prev) / h_prev for c in _RADAU_C]
            columns = list(zip(*Y.tolist(), y.tolist()))  # (y_prev, q1, q2, q3, y) by component
            Z0 = np.array([collocation_output(column, theta) - column[4]
                           for theta in thetas for column in columns])
        scale = atol + rtol * np.abs(y)
        while True:
            try:
                if inv is None or inv[0] != h:
                    inv = newton_inverse(h, J)
            except np.linalg.LinAlgError:  # singular: no Newton step, as a non-finite stage
                converged = finite = False
            else:
                converged, finite, n_iter, Z, rate = _radau_newton(
                    rhs, t, y, h, Z0, scale, newton_tol, inv[2], transforms, counts)
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
        E = inv[1][:n, :n]  # the inverse of mu_real / h I - J
        error = E.dot(f_y + ZE)
        err = _rms(error / scale)
        if retried and err > 1:  # a sharper estimate after a rejection
            try:
                error = E.dot(f(t, y + error) + ZE)
                err = _rms(error / scale)
            except EvaluationError:
                err = math.inf
        safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
        finite = math.isfinite(err) and all(map(math.isfinite, y_new.tolist()))
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
        Y = np.empty((4, n))
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
    ``_radau_steps`` yields it, or one column of it.  theta may be a column
    of values, giving one state row each; theta = 0 gives ``y_prev``, and
    theta = 1 the new state up to rounding."""
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


@np.errstate(all="ignore")  # the kernel's trial steps run under this error state
def _sampled_run(kernel, evaluate, scheme, model: ModelSystem, params: ParameterSet,
                 state0: StateVector, times, rtol: float, atol: float) -> Trajectory:
    """The run of ``kernel`` stored at ``times``: after its last step,
    ``evaluate(out, ys, records, step, h, theta)`` fills a row of ``out``
    per later time from the kept steps' new states and records, by the
    first step that ends at or after it: its index, size h and theta."""
    times = np.asarray(times, dtype=float)
    starts, ends, sizes, ys, records, counts = zip(*kernel(
        model, params, state0, float(times[0]), float(times[-1]), rtol, atol))
    step = np.searchsorted(ends, times[1:])
    h = np.take(sizes, step)
    states = np.empty((times.size, model.dimension))
    states[0] = state0.values
    evaluate(states[1:], ys, records, step, h, (times[1:] - np.take(starts, step)) / h)
    return Trajectory(times, states, model.state_names, {
        "scheme": scheme, "rtol": rtol, "atol": atol, "accepted": len(ends), **counts[-1]})


def sampled_dopri_run(model: ModelSystem, params: ParameterSet, state0: StateVector,
                      times, rtol: float, atol: float) -> Trajectory:
    """``integrate_adaptive``'s run stored at the strictly increasing
    ``times``: each time after the first is the continuous extension
    (``dense_output``) of its step, each (time, component) one column."""

    def contd5(out, ys, stages, step, h, theta):
        m, n = out.shape
        Y = np.array(stages).transpose(1, 0, 2)[:, step].reshape(8, m * n)
        out[:] = dense_output(Y, np.array(ys)[step].ravel(), np.repeat(h, n),
                              np.repeat(theta, n)).reshape(m, n)
    return _sampled_run(_dopri_steps, contd5, "dopri54", model, params, state0, times,
                        rtol, atol)


def sampled_radau_run(model: ModelSystem, params: ParameterSet, state0: StateVector,
                      times, rtol: float, atol: float) -> Trajectory:
    """The Radau IIA(5) run stored at the strictly increasing ``times``:
    each time after the first is the collocation polynomial
    (``collocation_output``) of its step, by Horner's scheme in place."""

    def horner(out, ys, polys, step, h, theta):
        coef, theta = np.array(polys), theta[:, None]  # (steps, 4, n)
        out[:] = coef[step, 3]
        for row in (2, 1, 0):
            out *= theta
            out += coef[step, row]
    return _sampled_run(_radau_steps, horner, "radau5", model, params, state0, times,
                        rtol, atol)


@np.errstate(all="ignore")  # the kernel's trial steps run under this error state
def first_crossing(model: ModelSystem, params: ParameterSet, state0: StateVector,
                   t_end: float, reached, rtol: float, atol: float) -> float | None:
    """The first time in (0, t_end] at which ``reached(T)`` holds for the
    first component T of the Dormand-Prince run from ``state0``, or None:
    stepping stops at the first accepted state that reaches it, and the
    crossing is bisected on that step's ``dense_output`` to float resolution."""
    for t_prev, t, h, y, K, _ in _dopri_steps(model, params, state0, 0.0, t_end, rtol, atol):
        if reached(y[0]):
            break
    else:
        return None
    stages, y_end = [row[0] for row in K], y[0]
    lo, hi = t_prev, t
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if reached(dense_output(stages, y_end, h, (mid - t_prev) / h)):
            hi = mid
        else:
            lo = mid
    return hi
