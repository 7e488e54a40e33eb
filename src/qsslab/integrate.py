"""Time stepping: an adaptive Dormand-Prince 5(4) embedded pair with
proportional step control, and an L-stable Radau IIA of order 5 for stiff
runs.  Both kernels start through ``_start``, which checks the run and
binds the model (``ModelSystem.bind``) once, and stop at ``MAX_STEPS``
trial steps (``_within_budget``).  Both compute on Python floats, in a
stepping loop generated once per dimension (``_dopri_source``,
``_radau_source``) that keeps each component of its state and stages in a
local variable.  A Dormand-Prince step makes no numpy call besides those a
hand-built rhs makes; a Radau step inverts one real 3n x 3n Newton matrix
per step size and Jacobian (``ModelSystem.bind_jacobian``'s) and makes one
matrix-vector product per Newton iteration, around three rhs calls.

The kernels, ``_dopri_steps`` and ``_radau_steps``, are generators over
accepted steps, and between a step's points only its own interpolant is
evaluated: the free 4th-order continuous extension for Dormand-Prince
(``dense_coefficients``, ``dense_output``), the collocation polynomial for
Radau (``collocation_output``).  No other module reads a step:
``sampled_dopri_run`` and ``sampled_radau_run`` keep a run's steps and
evaluate them at given times after the last step, and
``first_crossing`` stops the Dormand-Prince run at an event and bisects it
on the step's extension (``analysis.time_to_epsilon``); ``integrate_fixed``
samples the Dormand-Prince run every ``dt``.  The slow-feedback mechanisms,
whose explicit steps are pinned at the stability limit, run on Radau
(``claims.mechanism_trajectory``).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ModelSystem, ParameterSet, StateVector, validate
from .dsl import _compiled
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

# Budget of one integration's trial steps, and of a dt grid's rows after t0
MAX_STEPS = 2_000_000
_SAMPLE_BLOCK = 65_536  # rows of a sampled run interpolated at once


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


def _start(model: ModelSystem, params: ParameterSet, state0: StateVector,
           t0: float, t_end: float, rtol: float, atol: float):
    """Both kernels' checked start: the resolved parameters, the bound rhs f,
    y0 and f(t0, y0) (nan outside the rhs's domain) as lists of floats, t0
    and t_end as floats, the first trial step and the minimum step."""
    if rtol <= 0 or atol <= 0:
        raise DomainError("rtol and atol must be positive")
    if t_end <= t0:
        raise DomainError(f"t_end ({t_end:g}) must exceed t0 ({t0:g})")
    violations = validate(model, params, state0)
    if violations:
        raise ValidationError(violations)
    p = model.resolve_params(params)
    f = model.bind(p)
    y = state0.values.tolist()
    t0, t_end = float(t0), float(t_end)  # numpy scalars would reach the stages through h
    try:
        fy = f(t0, y)
    except EvaluationError:  # outside the rhs's domain: as a nan rate
        fy = [math.nan] * len(y)
    span = t_end - t0
    return p, f, y, fy, t0, t_end, span / 100.0, 1e-14 * span


def _within_budget(run, t_end: float):
    """The steps of ``run``, a kernel that returns the time it reached, short
    of ``t_end`` once its ``MAX_STEPS`` trials are spent."""
    t = yield from run
    if t < t_end:  # the budget's last trial did not land on t_end
        raise StiffnessError(f"step budget of {MAX_STEPS} exhausted at t = {t:g}")


def _step_underflow(t: float, h: float, finite: bool):
    """The error of a trial step size below the minimum at ``t``:
    ``BlowupError`` when the trials that drove it there were non-finite,
    ``StiffnessError`` otherwise."""
    if not finite:
        return BlowupError(f"state became non-finite at t = {t + h:g}", time=t + h)
    return StiffnessError(f"step size underflow ({h:.3e}) at t = {t:g}; problem too stiff")


def _per_component(n: int, form: str, sep: str = ", ") -> str:
    """``form`` for each of ``n`` components, ``#`` its index, joined by ``sep``."""
    return sep.join(form.replace("#", str(i)) for i in range(n))


def _magnitude(name: str) -> str:
    """|name| as a conditional expression, which costs less than a call of
    ``abs``: nan stays nan and -inf becomes inf.  -0.0 stays -0.0, which
    the loops only ever add to atol, square or compare."""
    return f"({name} if {name} >= 0.0 else -{name})"


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
    each = functools.partial(_per_component, n)

    weights = "; ".join(f"{name} = h * {w!r}" for name, w in zip(
        ("a21 a31 a32 a41 a42 a43 a51 a52 a53 a54 a61 a62 a63 a64 a65 "
         "b1 b3 b4 b5 b6 e1 e3 e4 e5 e6 e7").split(), _DP_WEIGHTS))
    c2, c3, c4, c5 = map(repr, _DP_C[1:5])
    # each component's error; max(u, v) is v if v > u else u, nan included
    err = (f"{_magnitude('e_#')} / (atol + rtol * "
           f"(b if (b := {_magnitude('y5_#')}) > (a := {_magnitude('y_#')}) else a))")
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
        err_norm = {err.replace("#", "0")}
        {"; ".join(f"err_norm = r if (r := {err}) > err_norm else err_norm".replace("#", str(j))
                   for j in range(1, n))}
        if err_norm <= 1.0:
            t_prev, t = t, (t_end if last else t + h)
            yield t_prev, t, h, y5, (y, k1, k2, k3, k4, k5, k6, k7), counts
            y, k1 = y5, k7
            {each("y_# = y5_#", "; ")}
            {each("k1_# = k7_#", "; ")}
        else:
            counts["rejected"] += 1
        factor = 0.9 * (1.0 / (1e-16 if 1e-16 > err_norm else err_norm)) ** 0.2
        factor = factor if factor > 0.2 else 0.2
        h = h * (factor if factor < 5.0 else 5.0)
    return t
'''


@functools.cache
def _dopri_kernel(n: int):
    """The stepping loop of ``_dopri_source(n)``, compiled on first use."""
    return _compiled(_dopri_source(n), f"<dopri5 kernel, n = {n}>", {
        "EvaluationError": EvaluationError, "isfinite": math.isfinite,
        "_step_underflow": _step_underflow})["kernel"]


def _dopri_steps(model: ModelSystem, params: ParameterSet, state0: StateVector,
                 t0: float, t_end: float, rtol: float, atol: float):
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
    # FSAL: k1 is f(y0) here, and the previous step's k7 after that
    _, f, y, k1, t0, t_end, h, h_min = _start(model, params, state0, t0, t_end, rtol, atol)
    counts = {"rejected": 0, "rhs_evals": 1}
    yield from _within_budget(_dopri_kernel(len(y))(f, t0, t_end, h, h_min, rtol, atol,
                                                    MAX_STEPS, y, k1, counts), t_end)


def dense_coefficients(Y, y, h: float):
    """The coefficients of the free 4th-order continuous extension of one
    accepted Dormand-Prince step (Hairer, Norsett & Wanner, *Solving ODEs I*,
    II.6, ``contd5``), which ``dense_output`` evaluates.  ``Y = [y_prev; k1
    ... k7]`` and ``y`` are the stages ``K`` and the state that
    ``_dopri_steps`` yields for the step, as arrays (``np.array(K)``, or
    several steps side by side as columns, with ``h`` one per column) or, for
    one component, as floats (``[row[j] for row in K]`` with ``y[j]``)."""
    y_prev = Y[0]
    dy = y - y_prev
    slope = h * Y[1] - dy
    return y_prev, dy, slope, dy - h * Y[7] - slope, h * np.dot(_DP_D, Y[1:])


def dense_output(coefficients, theta):
    """The state at ``t_prev + theta * h``, theta in [0, 1], inside the
    step of ``coefficients = dense_coefficients(Y, y, h)``; theta may be one
    per column.  theta = 0 gives ``y_prev`` and theta = 1 gives ``y``, each
    up to one rounding of ``y - y_prev``."""
    y_prev, dy, slope, bend, quartic = coefficients
    rest = 1.0 - theta
    return y_prev + theta * (dy + rest * (slope + theta * (bend + rest * quartic)))


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


def _radau_source(n: int) -> str:
    """The source of the Radau IIA(5) stepping loop for ``n`` components.

    Each component ``#`` is a local float, as in ``_dopri_source``: of the
    state ``y_#``, f(y) ``fy_#``, the predicted stages ``p<i>_#`` (i = 0, 1,
    2), Newton's stages ``z<i>_#``, transformed stages ``w<i>_#`` and update
    ``d<i>_#``, the scale ``s_#``, the error estimate ``r_#`` and the last
    polynomial ``yp_#``, ``q1_#`` ... ``q3_#``.  The transforms, the error
    estimate and the polynomial are sums over literals.  dW = K [F; W] is the
    one numpy product: ``newton_inverse(h, J)`` returns K's bound ``dot`` and
    the first block of the Newton inverse as floats ``m<j>_<k>``.  ``kernel``
    yields what ``_radau_steps`` yields, and returns the time it reached.
    """
    each = functools.partial(_per_component, n)

    def stages(form: str, sep: str = ", ") -> str:
        """``each(form)`` once per stage, ``@`` its index."""
        return sep.join(each(form.replace("@", str(i)), sep) for i in range(3))

    def combination(weights, term: str) -> str:
        """sum_i weights[i] * term, ``@`` in term standing for i, zero terms
        left out."""
        return " + ".join(term.replace("@", str(i)) if w == 1.0 else
                          f"{w!r} * {term.replace('@', str(i))}"
                          for i, w in enumerate(weights) if w != 0.0)

    def products(matrix, target: str, source: str, first: int = 0) -> str:
        """target<i + first>_# = sum_k matrix[i][k] * source<k>_#."""
        return "; ".join(each(f"{target}{i + first}_# = {combination(row, source + '@_#')}",
                              "; ") for i, row in enumerate(matrix.tolist()))

    def rms(terms) -> str:
        """The root-mean-square of ``terms``, each evaluated once."""
        return f"sqrt(({' + '.join(f'(x := {term}) * x' for term in terms)}) / {len(terms)})"

    def error_estimate(v: str) -> str:
        """r_# = sum_k m#_k * v, ``@`` in v standing for k."""
        return each("r_# = " + " + ".join(f"m#_{k} * " + v.replace("@", str(k))
                                          for k in range(n)), "; ")

    state = f"[{each('y_#')}]"
    block = ", ".join(f"m{j}_{k}" for j in range(n) for k in range(n))
    c0, c1, c2 = map(repr, _RADAU_C)
    predict = "\n            ".join(
        f"theta = (t + h * {c!r} - t_prev) / h_prev\n            "
        + each(f"p{i}_# = yp_# + theta * (q1_# + theta * (q2_# + theta * q3_#)) - y_#", "; ")
        for i, c in enumerate(_RADAU_C))
    maxiter, err_norm = _NEWTON_MAXITER, rms([f"r_{j} / s_{j}" for j in range(n)])
    newton_scale = each(f"s_# = atol + rtol * {_magnitude('y_#')}", "; ")
    error_scale = each(f"a = {_magnitude('y_#')}; b = {_magnitude('yn_#')}; "
                       "s_# = atol + rtol * (b if b > a else a)", "; ")
    return f'''\
def kernel(f, jacobian, newton_inverse, t, t_end, h_next, h_min, rtol, atol, newton_tol,
           max_steps, y, fy, J, counts):
    {each("y_#")}, = y
    {each("fy_#")}, = fy
    h_inv = h_prev = err_prev = None  # the Newton inverse's h; the last accepted h and error
    fresh, finite, retried = True, True, False  # retried: a trial of this step failed its error test
    for _ in range(max_steps):
        last = t_end - t - h_next < h_min  # no remainder shorter than h_min
        h = t_end - t if last else h_next
        if h < h_min:
            raise _step_underflow(t, h, finite)
        if h_prev is None:
            {stages("p@_#", " = ")} = 0.0
        else:  # the last polynomial at the new stage times
            {predict}
        {newton_scale}
        t0, t1, t2 = t + h * {c0}, t + h * {c1}, t + h * {c2}
        while True:
            try:
                if h_inv != h:
                    K_dot, {block}, = newton_inverse(h, J)
                    h_inv = h
            except LinAlgError:  # singular: no Newton step, as a non-finite stage
                converged = finite = False
            else:  # simplified Newton from the predicted stages
                {stages("z@_#")} = {stages("p@_#")}
                {products(_RADAU_TI, "w", "z")}
                converged, finite, norm_old, rate = False, True, None, None
                for k in range({maxiter}):
                    stage = 1
                    try:
                        F0 = f(t0, [{each("y_# + z0_#")}])
                        stage = 2
                        F1 = f(t1, [{each("y_# + z1_#")}])
                        stage = 3
                        F2 = f(t2, [{each("y_# + z2_#")}])
                    except EvaluationError:  # a stage left the rhs's domain
                        counts["rhs_evals"] += stage
                        finite = False
                        break
                    counts["rhs_evals"] += 3
                    {stages("d@_#")}, = K_dot(F0 + F1 + F2 + [{stages("w@_#")}]).tolist()
                    norm = {rms([f"d{i}_{j} / s_{j}" for i in range(3) for j in range(n)])}
                    if not isfinite(norm):
                        finite = False
                        break
                    if norm_old is not None:
                        rate = norm / norm_old
                        if rate >= 1 or rate ** ({maxiter} - k) / (1 - rate) * norm > newton_tol:
                            break
                    {stages("w@_# += d@_#", "; ")}
                    {products(_RADAU_T, "z", "w")}
                    if norm == 0 or rate is not None and rate / (1 - rate) * norm < newton_tol:
                        converged = True
                        break
                    norm_old = norm
                n_iter = k + 1
            if converged or fresh:
                break
            J, fresh, h_inv = jacobian(t, {state}), True, None
        if not converged:
            counts["rejected"] += 1
            h_next = 0.5 * h
            continue
        {each("yn_# = y_# + z2_#", "; ")}
        {each(f"ze_# = ({combination(_RADAU_E.tolist(), 'z@_#')}) / h", "; ")}
        {error_scale}
        {error_estimate("(fy_@ + ze_@)")}
        err = {err_norm}
        if retried and err > 1:  # a sharper estimate after a rejection
            counts["rhs_evals"] += 1
            try:
                {each("fe_#")}, = f(t, [{each("y_# + r_#")}])
            except EvaluationError:
                err = inf
            else:
                {error_estimate("(fe_@ + ze_@)")}
                err = {err_norm}
        safety = 0.9 * {2 * maxiter + 1} / ({2 * maxiter} + n_iter)
        finite = isfinite(err) and {each("isfinite(yn_#)", " and ")}
        factor = 0.0
        if finite:  # Gustafsson's predictive control
            factor = err ** -0.25 if err else inf
            if err_prev is not None and err != 0:
                multiplier = h / h_prev * (err_prev / err) ** 0.25
                if multiplier < 1.0:
                    factor = multiplier * factor
            factor = safety * factor
        if not (err <= 1 and finite):
            counts["rejected"] += 1
            h_next, retried = h * (factor if factor > 0.2 else 0.2), True
            continue
        factor = factor if factor < 10.0 else 10.0
        refresh = n_iter > 2 and rate > 1e-3  # Newton converged slowly
        if not refresh and factor < 1.2:
            factor = 1.0  # keep h, and with it the Newton inverse
        h_prev, err_prev, retried = h, err, False
        h_next = h * factor
        {products(_RADAU_P.T, "q", "z", 1)}
        {each("yp_# = y_#; y_# = yn_#", "; ")}
        t_prev, t = t, (t_end if last else t + h)
        yield t_prev, t, h, array({state}), array(({", ".join(
            f"({each(row + '_#')},)" for row in ("yp", "q1", "q2", "q3"))})), counts
        if t >= t_end:
            return t
        counts["rhs_evals"] += 1
        try:
            {each("fy_#")}, = f(t, {state})
        except EvaluationError:  # outside the rhs's domain: as a nan rate
            {each("fy_#", " = ")} = nan
        if refresh:
            J, fresh, h_inv = jacobian(t, {state}), True, None
        else:
            fresh = False
    return t
'''


@functools.cache
def _radau_kernel(n: int):
    """The stepping loop of ``_radau_source(n)``, compiled on first use."""
    return _compiled(_radau_source(n), f"<radau5 kernel, n = {n}>", {
        "EvaluationError": EvaluationError, "LinAlgError": np.linalg.LinAlgError,
        "array": np.array, "inf": math.inf, "nan": math.nan, "isfinite": math.isfinite,
        "sqrt": math.sqrt, "_step_underflow": _step_underflow})["kernel"]


def _radau_steps(model: ModelSystem, params: ParameterSet, state0: StateVector,
                 t0: float, t_end: float, rtol: float, atol: float):
    """Radau IIA(5) stepping kernel: a generator over accepted steps, as
    ``_dopri_steps`` is (Hairer & Wanner, *Solving ODEs II*, IV.8; the
    algorithm of scipy's ``Radau``).

    Each accepted step yields ``(t_prev, t, h, y, Y, counts)``: the step
    runs from ``t_prev`` to ``t`` with size ``h``, ``y`` is the new state,
    ``Y = [y_prev; q1; q2; q3]`` the step's collocation polynomial for
    ``collocation_output``, both arrays, and ``counts`` one dict, updated
    in place, with the trial steps ``rejected``, the ``rhs_evals`` (an
    evaluation that raises counts, and so do those of finite-difference
    Jacobians), the ``jac_evals`` and the ``factorizations`` (inversions of
    the Newton matrix) so far, and which ``jacobian`` the run takes:
    ``"generated"`` or ``"finite-difference"``.

    A step solves the collocation system by simplified Newton on the
    transformed stages, from the stages that the last step's polynomial
    predicts, with the inverse of their Newton matrix formed once per step
    size and Jacobian; its first block serves the error estimate.  The
    Jacobian, ``ModelSystem.bind_jacobian``'s at the step's start (its rows
    made one array for the Newton matrix), is kept while Newton converges
    fast.  A Newton solve that fails with a stale Jacobian is retried with
    a fresh one from the same prediction; one that fails with a fresh
    Jacobian (a stage that raises ``EvaluationError`` or a non-finite
    Newton norm counts as a failure) halves the step.  The embedded
    3rd-order error estimate is held to 1 in the RMS norm scaled by
    ``atol + rtol * max(|y|, |y_new|)``, under Gustafsson's predictive
    control.  The checked start (``_start``), the first trial step, the
    last accepted time, the minimum step and the ``MAX_STEPS`` budget are
    those of ``integrate_adaptive``.  The steps are taken by the loop
    generated for the model's dimension (``_radau_source``, compiled once
    per dimension and process).  Iterate it inside
    ``np.errstate(all="ignore")``, as ``_dopri_steps``.
    """
    p, rhs, y, f_y, t0, t_end, h, h_min = _start(model, params, state0, t0, t_end, rtol, atol)
    n = len(y)
    counts = {"rejected": 0, "rhs_evals": 1, "jac_evals": 0, "factorizations": 0,
              "jacobian": "finite-difference" if model.jacobian is None else "generated"}

    def f(t, x):  # the rhs of a finite-difference Jacobian
        counts["rhs_evals"] += 1
        return rhs(t, x)

    jac = model.bind_jacobian(p, f)

    def jacobian(t, values):  # as an array, for the Newton matrix
        counts["jac_evals"] += 1
        try:
            return np.array(jac(t, values))
        except EvaluationError:  # no Jacobian here: every Newton solve fails
            return np.full((n, n), math.nan)

    eye = np.identity(n)
    lam = np.kron(_RADAU_LAMBDA, eye)
    B = np.hstack((np.kron(_RADAU_TI, eye), lam))  # [T^-1 (x) I | -(Lambda/h) (x) I] once h is set

    def newton_inverse(h, J):
        """K.dot, K = M [T^-1 (x) I | -(Lambda/h) (x) I] with the Newton inverse
        M for ``h`` and ``J``, and M's first n x n block as floats, row by row."""
        counts["factorizations"] += 1
        M = _radau_newton_inverse(lam, h, J)
        np.divide(lam, -h, out=B[:, 3 * n:])
        return M.dot(B).dot, *M[:n, :n].ravel().tolist()

    newton_tol = max(10 * np.finfo(float).eps / rtol, min(0.03, rtol ** 0.5))
    yield from _within_budget(_radau_kernel(n)(rhs, jacobian, newton_inverse, t0, t_end, h,
                                               h_min, rtol, atol, newton_tol, MAX_STEPS, y,
                                               f_y, jacobian(t0, y), counts), t_end)


def collocation_output(Y, theta, out=None, steps=None):
    """The state at ``t_prev + theta * h`` inside one accepted Radau step:
    its collocation polynomial, ``Y = [y_prev; q1; q2; q3]`` as
    ``_radau_steps`` yields it, or one column of it.  theta = 0 gives
    ``y_prev``, and theta = 1 the new state up to rounding.  With ``out``,
    ``Y`` holds the rows of many steps, each (steps, n), and theta is a
    column: row i of ``out`` is step ``steps[i]`` at ``theta[i]``, formed
    in place by the same operations, gathering one row at a time."""
    if out is None:
        return Y[0] + theta * (Y[1] + theta * (Y[2] + theta * Y[3]))
    out[...] = Y[3][steps]
    for row in (2, 1, 0):
        out *= theta
        out += Y[row][steps]
    return out


@np.errstate(all="ignore")  # non-finite trial steps are rejected, not warned about
def integrate_adaptive(model: ModelSystem, params: ParameterSet, state0: StateVector,
                       t0: float, t_end: float, rtol: float = 1e-8,
                       atol: float = 1e-12) -> Trajectory:
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
    ``StiffnessError`` otherwise; a run of more than ``MAX_STEPS`` trial
    steps raises ``StiffnessError``.  The steps are those of ``_dopri_steps``;
    ``solver_info`` counts them (``accepted``, ``rejected``) and the
    ``rhs_evals``.
    """
    times = [t0]
    states = [np.array(state0.values, dtype=float)]
    for _, t, _, y, _, counts in _dopri_steps(model, params, state0, t0, t_end, rtol, atol):
        times.append(t)
        states.append(y)
    return Trajectory(
        np.array(times), np.array(states), model.state_names,
        {"scheme": "dopri54", "rtol": rtol, "atol": atol,
         "accepted": len(times) - 1, **counts},
    )


@np.errstate(all="ignore")  # the kernel's trial steps run under this error state
def _sampled_run(kernel, interpolant, scheme, model: ModelSystem, params: ParameterSet,
                 state0: StateVector, times, rtol: float, atol: float) -> Trajectory:
    """The run of ``kernel`` stored at ``times``: after its last step,
    ``interpolant(ys, Y)`` of the kept steps' new states and records, Y[i]
    entry i of each record, returns ``fill(out, step, h, theta)``, which
    fills a row of ``out`` per later time by the first step that ends at or
    after it: its index, size h and theta.  ``_SAMPLE_BLOCK`` rows at a time
    keep the interpolation's temporaries bounded on a long grid."""
    times = np.asarray(times, dtype=float)
    starts, ends, sizes, ys, records, counts = zip(*kernel(
        model, params, state0, float(times[0]), float(times[-1]), rtol, atol))
    starts, ends, sizes = np.array(starts), np.array(ends), np.array(sizes)
    fill = interpolant(ys, np.array(records).transpose(1, 0, 2))
    states = np.empty((times.size, model.dimension))
    states[0] = state0.values
    for i in range(1, times.size, _SAMPLE_BLOCK):
        block = times[i:i + _SAMPLE_BLOCK]
        step = np.searchsorted(ends, block)
        h = sizes[step]
        fill(states[i:i + _SAMPLE_BLOCK], step, h, (block - starts[step]) / h)
    return Trajectory(times, states, model.state_names, {
        "scheme": scheme, "rtol": rtol, "atol": atol, "accepted": len(ends), **counts[-1]})


def sampled_dopri_run(model: ModelSystem, params: ParameterSet, state0: StateVector,
                      times, rtol: float, atol: float) -> Trajectory:
    """``integrate_adaptive``'s run stored at the strictly increasing
    ``times``: each time after the first is the continuous extension
    (``dense_output``) of its step, each (time, component) one column."""

    def contd5(ys, Y):
        y = np.array(ys)

        def fill(out, step, h, theta):
            m, n = out.shape
            coefficients = dense_coefficients(Y[:, step].reshape(8, m * n), y[step].ravel(),
                                              np.repeat(h, n))
            out[:] = dense_output(coefficients, np.repeat(theta, n)).reshape(m, n)
        return fill
    return _sampled_run(_dopri_steps, contd5, "dopri54", model, params, state0, times,
                        rtol, atol)


def integrate_fixed(model: ModelSystem, params: ParameterSet, state0: StateVector,
                    t0: float, t_end: float, dt: float, rtol: float = 1e-8,
                    atol: float = 1e-12) -> Trajectory:
    """``integrate_adaptive``'s run stored every ``dt`` (``sampled_dopri_run``)
    at ``t0 + i * dt``, i up to floor((t_end - t0) / dt + 1e-9), and at
    ``t_end`` in place of a last time not below it.  A grid of more than
    ``MAX_STEPS`` rows after ``t0`` raises ``DomainError`` before any step."""
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt:g}")
    if (t_end - t0) / dt > MAX_STEPS:
        raise DomainError(f"dt = {dt:g} needs more than {MAX_STEPS} rows after t0 = {t0:g}")
    grid = t0 + np.arange(1, math.floor((t_end - t0) / dt + 1e-9) + 1) * dt
    times = np.concatenate(([t0], grid[grid < t_end], [t_end]))
    return sampled_dopri_run(model, params, state0, times, rtol, atol)


def sampled_radau_run(model: ModelSystem, params: ParameterSet, state0: StateVector,
                      times, rtol: float, atol: float) -> Trajectory:
    """The Radau IIA(5) run stored at the strictly increasing ``times``:
    each time after the first is the collocation polynomial
    (``collocation_output``) of its step."""

    def polynomial(ys, Y):
        return lambda out, step, h, theta: collocation_output(Y, theta[:, None], out, step)
    return _sampled_run(_radau_steps, polynomial, "radau5", model, params, state0, times,
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
    *head, quartic = dense_coefficients([row[0] for row in K], y[0], h)
    coefficients = *head, float(quartic)  # floats: numpy scalars are slower
    lo, hi = t_prev, t
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if reached(dense_output(coefficients, (mid - t_prev) / h)):
            hi = mid
        else:
            lo = mid
    return hi
