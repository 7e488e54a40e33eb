"""Time stepping: an adaptive Dormand-Prince 5(4) embedded pair with
proportional step control, and an L-stable Radau IIA of order 5 for stiff
runs.  Both kernels start through ``_start``, which checks the run and
binds the model (``ModelSystem.bind``) once.  Both compute on Python
floats, in a generated stepping loop that keeps each component of its
state and stages in a local variable, and that stops at ``MAX_STEPS``
trial steps itself.  The Dormand-Prince loop (``_dopri_source``) is
generated once per compiled model, with the model's rhs body written into
each stage, and once per dimension, calling the rhs, for any other rhs
(a hand-built one, or a wrapper such as perfbench's traced counter); the
Radau loop (``_radau_source``) once per dimension, calling the rhs.
Neither step makes a numpy call besides those a
hand-built rhs makes: a Radau step factors one real and one complex n x n
Newton matrix per step size and Jacobian (the model's generated one, which
``ModelSystem.bind_jacobian`` gives: Radau runs no model without one)
by an LU generated per dimension (``_lu_source``), and solves both
systems inline in each Newton iteration, around three rhs calls; the
steady-state Newton iteration solves by the same LU (``_lu``).

The kernels, ``_dopri_steps`` and ``_radau_steps``, return that loop's
generator over accepted steps, the run's only one, and between a step's
points only its own interpolant is evaluated: the free 4th-order
continuous extension for Dormand-Prince (``dense_coefficients``,
``dense_output``), the collocation polynomial for Radau
(``collocation_output``).  No other module reads a step:
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
import sys
from dataclasses import dataclass

import numpy as np

from .core import ModelSystem, ParameterSet, StateVector, validate
from .dsl import _RUNTIME, _body, _compiled, _param_reads
from .errors import (
    BlowupError,
    DomainError,
    EvaluationError,
    NoConvergenceError,
    StiffnessError,
    ValidationError,
)

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
# real block form Lambda = diag(mu_real, [[Re mu, -Im mu], [Im mu, Re mu]]),
# mu = mu_complex.  The Newton matrix of the transformed stages,
# Lambda / h (x) I - I (x) J, splits into mu_real / h I - J and the complex
# mu_complex / h I - J
_S6 = 6 ** 0.5
_RADAU_C = ((4 - _S6) / 10, (4 + _S6) / 10, 1.0)
_RADAU_E = np.array((-13 - 7 * _S6, -13 + 7 * _S6, -1.0)) / 3
_MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
_MU_COMPLEX = (3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3))
               - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6)))
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


def _check_domain(t0: float, t_end: float, rtol: float, atol: float):
    """Refuse a run whose span or tolerances lie outside their domain: the
    span t_end - t0 must be positive and finite, and so must rtol and atol.
    Each comparison is false for nan."""
    if not (0 < rtol < math.inf and 0 < atol < math.inf):
        raise DomainError("rtol and atol must be positive and finite")
    if not -math.inf < t0 < t_end < math.inf or t_end - t0 == math.inf:
        raise DomainError(f"t_end ({t_end:g}) must exceed t0 ({t0:g}) by a finite span")


def _start(model: ModelSystem, params: ParameterSet, state0: StateVector,
           t0: float, t_end: float, rtol: float, atol: float):
    """Both kernels' checked start: the resolved parameters, the bound rhs f,
    y0 and f(t0, y0) (nan outside the rhs's domain) as lists of floats, t0
    and t_end as floats, the first trial step and the minimum step."""
    _check_domain(t0, t_end, rtol, atol)
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


def _step_underflow(f, t: float, h: float, finite: bool | None, y0: list, y: list,
                    fy: list, counts: dict, cause: EvaluationError | None = None):
    """The error of a trial step size below the minimum at ``t``, where the
    run that started at ``y0`` stands at ``y`` with rate ``fy = f(t, y)``:
    ``NoConvergenceError`` when the last Radau trial had no Newton solve,
    ``BlowupError`` when the trials that drove it there were non-finite or
    the state runs away, ``StiffnessError`` otherwise.

    ``finite`` is None when the last trial had no Newton solve: its Newton
    matrix was singular, or its Jacobian raised ``cause``.  A trial whose
    stage raised or was non-finite is not finite, whatever the Jacobian.

    The state runs away when it grew, |y| > |y0| (2-norms), and grows
    faster than linearly: moved by its own size along its rate, to
    ``y + |y| / |fy| * fy``, its rate more than doubles, as that of
    dT/dt = T^p does for p > 1, whose solution leaves every bound in finite
    time.  That one more rhs evaluation is counted in ``counts``; if it
    raises ``EvaluationError``, or a norm is nan, the state does not run
    away.  A bounded state, one that did not grow, or one whose rate did
    not outgrow it (a switching rhs) underflowed for stiffness.

    The error carries, as ``counts``, a copy of ``counts`` as the run ends:
    a run that yielded no step has no other record of its trials."""
    if finite is None:
        error = NoConvergenceError(
            f"no Newton solve at t = {t:g}: {cause or 'singular Newton matrix'}")
    elif not finite:
        error = BlowupError(f"state became non-finite at t = {t + h:g}", time=t + h)
    else:
        error = StiffnessError(f"step size underflow ({h:.3e}) at t = {t:g}; problem too stiff")
        size, rate = math.hypot(*y), math.hypot(*fy)
        if size > math.hypot(*y0) and rate > 0.0:
            counts["rhs_evals"] += 1
            tau = size / rate
            try:
                ahead = math.hypot(*f(t, [v + tau * r for v, r in zip(y, fy)]))
            except EvaluationError:
                ahead = math.nan
            if ahead > 2.0 * rate:
                error = BlowupError(f"state grew without bound at t = {t:g} "
                                    f"(|y| = {size:.3e}, step size {h:.3e})", time=t)
    error.counts = dict(counts)
    return error


def _per_component(n: int, form: str, sep: str = ", ") -> str:
    """``form`` for each of ``n`` components, ``#`` its index, joined by ``sep``."""
    return sep.join(form.replace("#", str(i)) for i in range(n))


def _magnitude(name: str) -> str:
    """|name| as a conditional expression, which costs less than a call of
    ``abs``: nan stays nan and -inf becomes inf.  -0.0 stays -0.0, which
    the loops only ever add to atol, square or compare."""
    return f"({name} if {name} >= 0.0 else -{name})"


def _dopri_source(n: int, tree: tuple | None = None) -> str:
    """The source of the Dormand-Prince stepping loop for ``n`` components.

    The loop keeps the state ``y_#``, the stages ``k1_#`` ... ``k7_#``, the
    5th-order solution ``y5_#`` and the error estimate ``e_#`` as local
    floats, component ``#`` by component: each per-component form below
    is written out once per component, in the operation order of the
    formula.  The weights, scaled by ``h`` once per trial, are the products
    ``h * <literal>``.  ``kernel`` yields what ``_dopri_steps`` yields, and
    raises ``StiffnessError`` once its ``max_steps`` trials are spent
    short of ``t_end``.

    The two forms differ only in their stage evaluations.  Without
    ``tree`` each stage calls the bound rhs ``f`` on a list and unpacks
    the list it returns.  With ``tree``, the tree of a compiled rhs
    (``rhs.tree``, set by ``dsl.compile_model``), each stage is that rhs's
    body (``dsl._body``), on the parameters that the loop reads from
    ``params`` into locals once per run: the stage's input goes into the
    body's state locals and its results into ``k<i>_#``, so that no stage
    builds or unpacks a list, and the stages' lists that the loop yields
    are built only for an accepted step.  ``f`` then only serves
    ``_step_underflow``.
    """
    each = functools.partial(_per_component, n)
    indent = "\n            "  # of a stage's lines, inside the loop's try block

    def stage(i: int, time: str, inputs: str) -> str:
        """The statements that leave stage ``k<i>``, at ``time`` and on the
        per-component ``inputs``, in ``k<i>_#``."""
        if tree is None:
            return f"k{i} = f({time}, [{each(inputs)}]){indent}{each(f'k{i}_#')}, = k{i}"
        lines = []
        rates = _body(tree, time, [inputs.replace("#", str(j)) for j in range(n)], lines)
        return indent.join(lines + [f"k{i}_{j} = {rate}" for j, rate in enumerate(rates)])

    # what the inlined stages need: the parameters' locals, and the lists of
    # the stages that the call form gets from f
    prologue = "" if tree is None else "".join(f"{line}\n    " for line in _param_reads(tree[1]))
    collect = [] if tree is None else [f"k{i} = [{each(f'k{i}_#')}]" for i in range(2, 8)]

    weights = "; ".join(f"{name} = h * {w!r}" for name, w in zip(
        ("a21 a31 a32 a41 a42 a43 a51 a52 a53 a54 a61 a62 a63 a64 a65 "
         "b1 b3 b4 b5 b6 e1 e3 e4 e5 e6 e7").split(), _DP_WEIGHTS))
    c2, c3, c4, c5 = map(repr, _DP_C[1:5])
    # each component's error; max(u, v) is v if v > u else u, nan included
    err = (f"{_magnitude('e_#')} / (atol + rtol * "
           f"(b if (b := {_magnitude('y5_#')}) > (a := {_magnitude('y_#')}) else a))")
    return f'''\
def kernel(f, params, t, t_end, h, h_min, rtol, atol, max_steps, y, k1, counts):
    {prologue}{each("y_#")}, = y
    {each("k1_#")}, = k1
    y0, finite = y, True
    for _ in range(max_steps):
        if t >= t_end:
            return
        last = t_end - t - h < h_min  # no remainder shorter than h_min
        if last:
            h = t_end - t
        if h < h_min:
            raise _step_underflow(f, t, h, finite, y0, y, k1, counts)
        {weights}
        stage = 1  # k2 ... k7 are stages 1 ... 6 of the trial
        try:
            {stage(2, f"t + {c2} * h", "y_# + a21 * k1_#")}
            stage = 2
            {stage(3, f"t + {c3} * h", "y_# + a31 * k1_# + a32 * k2_#")}
            stage = 3
            {stage(4, f"t + {c4} * h", "y_# + a41 * k1_# + a42 * k2_# + a43 * k3_#")}
            stage = 4
            {stage(5, f"t + {c5} * h",
                   "y_# + a51 * k1_# + a52 * k2_# + a53 * k3_# + a54 * k4_#")}
            stage = 5
            {stage(6, "t + h",
                   "y_# + a61 * k1_# + a62 * k2_# + a63 * k3_# + a64 * k4_# + a65 * k5_#")}
            stage = 6
            {each("y5_# = y_# + b1 * k1_# + b3 * k3_# + b4 * k4_# + b5 * k5_# + b6 * k6_#",
                  "; ")}
            # the last stage is evaluated at the 5th-order solution
            {stage(7, "t + h", "y5_#")}
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
            {"; ".join([f"y5 = [{each('y5_#')}]", *collect])}
            yield t_prev, t, h, y5, (y, k1, k2, k3, k4, k5, k6, k7), counts
            y, k1 = y5, k7
            {each("y_# = y5_#", "; ")}
            {each("k1_# = k7_#", "; ")}
        else:
            counts["rejected"] += 1
        factor = 0.9 * (1.0 / (1e-16 if 1e-16 > err_norm else err_norm)) ** 0.2
        factor = factor if factor > 0.2 else 0.2
        h = h * (factor if factor < 5.0 else 5.0)
    if t < t_end:  # the budget's last trial did not land on t_end
        raise StiffnessError(f"step budget of {{max_steps}} exhausted at t = {{t:g}}")
'''


# The globals of the generated stepping loops
_LOOP_RUNTIME = {"EvaluationError": EvaluationError, "LinAlgError": np.linalg.LinAlgError,
                 "StiffnessError": StiffnessError, "inf": math.inf, "nan": math.nan,
                 "isfinite": math.isfinite, "sqrt": math.sqrt, "_step_underflow": _step_underflow}


@functools.cache
def _dopri_kernel(n: int):
    """The stepping loop of ``_dopri_source(n)``, which calls the rhs,
    compiled on first use."""
    return _compiled(_dopri_source(n), f"<dopri5 kernel, n = {n}>", _LOOP_RUNTIME)["kernel"]


@functools.lru_cache(maxsize=64)
def _inlined_dopri_kernel(rhs):
    """The stepping loop of ``_dopri_source`` with the compiled ``rhs``'s
    body inlined, compiled on first use, once per compiled model (each has
    its own rhs) and process, behind a memo of the 64 most recently used."""
    return _compiled(_dopri_source(len(rhs.tree[0]), rhs.tree), "<dopri5 kernel, inlined rhs>",
                     {**_RUNTIME, **_LOOP_RUNTIME})["kernel"]


def _dopri_steps(model: ModelSystem, params: ParameterSet, state0: StateVector,
                 t0: float, t_end: float, rtol: float, atol: float):
    """Dormand-Prince 5(4) stepping kernel: the generated loop's generator
    over accepted steps, returned after the checked start (``_start``),
    whose checks therefore run at the call.

    Each accepted step yields ``(t_prev, t, h, y, K, counts)``: the step
    runs from ``t_prev`` to ``t`` with stage size ``h``, ``y`` is the new
    state and ``K = (y_prev, k1, ..., k7)`` the step's stages, each a fresh
    list of floats, and ``counts`` one dict, updated in place, with the
    trial steps ``rejected`` and the ``rhs_evals`` so far (an evaluation
    that raises counts).  ``dense_output`` evaluates the step in between.
    Step control is described at ``integrate_adaptive``.

    The arithmetic is on Python floats, in a loop generated by
    ``_dopri_source`` that holds each component of the state and the
    stages in its own local variable.  A compiled model, whose ``rhs``
    carries its tree (``dsl.compile_model``), steps by the loop with that
    rhs inlined in each stage (``_inlined_dopri_kernel``, compiled once
    per model and process); any other rhs, a wrapper set by
    ``dataclasses.replace`` included, by the loop that calls its bound
    form (``ModelSystem.bind``) at each stage (``_dopri_kernel``, compiled
    once per dimension and process).  Both take the same steps, bit for
    bit.

    Call and iterate it inside ``np.errstate(all="ignore")``: a hand-built
    rhs may compute in numpy, whose non-finite trial steps are rejected, not
    warned about.  The error state has to be set by the caller, around the
    call and the loop, because a decorator on this function would cover
    only the creation of the generator, and a ``with`` block in the loop's
    body would leak into the caller between steps.
    """
    # FSAL: k1 is f(y0) here, and the previous step's k7 after that
    p, f, y, k1, t0, t_end, h, h_min = _start(model, params, state0, t0, t_end, rtol, atol)
    counts = {"rejected": 0, "rhs_evals": 1}
    inlined = getattr(model.rhs, "tree", None) is not None
    kernel = _inlined_dopri_kernel(model.rhs) if inlined else _dopri_kernel(len(y))
    return kernel(f, p, t0, t_end, h, h_min, rtol, atol, MAX_STEPS, y, k1, counts)


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


def _pivot_magnitude(name: str) -> str:
    """|Re name| + |Im name|, LAPACK's pivot size for a complex entry, as
    conditional expressions: for a float it is |name|, and unlike ``abs``
    of a complex it cannot raise ``OverflowError``."""
    return (f"((r if (r := {name}.real) >= 0.0 else -r) + "
            f"(i if (i := {name}.imag) >= 0.0 else -i))")


def _lu_factors(n: int, prefix: str) -> str:
    """The names of the factors that ``lu`` returns, in order, each with
    ``prefix``: the permutation ``p<i>``, L's multipliers ``l<i>_<j>``
    (j < i) and U's entries ``u<i>_<j>`` (j >= i), row by row."""
    return ", ".join([f"{prefix}p{i}" for i in range(n)]
                     + [f"{prefix}l{i}_{j}" for i in range(n) for j in range(i)]
                     + [f"{prefix}u{i}_{j}" for i in range(n) for j in range(i, n)])


def _lu_source(n: int) -> str:
    """The source of ``lu(c, J)``, the LU factorisation with partial
    pivoting of c I - J for ``n`` components (c a float or a complex, J
    the Jacobian's rows of floats), and of ``solve(c, J, b)``, which
    factors alike and returns x solving (c I - J) x = b (``_lu_solve``) as
    a list: the steady-state Newton step -J^-1 f is ``solve(0.0, J, f)``.

    Each entry of row i and column j is a local number, named by its place
    in the factors: ``l<i>_<j>`` below the diagonal, where elimination
    leaves L's multiplier, ``u<i>_<j>`` on and above it.  A row swap swaps
    the values of two whole rows and their places ``p<i>``, one branch per
    candidate row.  ``lu`` returns the factors that ``_lu_factors`` names
    (row i of ``L U`` is row ``p<i>`` of c I - J).

    The elimination takes LAPACK's rules (``getf2``): the pivot is the
    first largest in magnitude, and each multiplier is the product with
    the pivot's reciprocal, or the quotient by a pivot below the smallest
    normal float, whose reciprocal would overflow.  An exactly zero pivot
    raises ``LinAlgError``; a nan one is kept, and its nan reaches the
    solves."""
    def a(i: int, j: int) -> str:
        return f"l{i}_{j}" if j < i else f"u{i}_{j}"

    rows = ", ".join(f"({', '.join(a(i, j) for j in range(n))},)" for i in range(n))
    shift = "; ".join(f"{a(i, j)} = " + (f"c - {a(i, j)}" if i == j else f"-{a(i, j)}")
                      for i in range(n) for j in range(n))
    lines = [f"{rows}, = J", shift, f"{_per_component(n, 'p#')}, = range({n})"]
    for k in range(n):
        candidates = range(k + 1, n)
        if candidates:
            lines.append(f"m, q = {_pivot_magnitude(a(k, k))}, {k}")
            lines += [f"if (v := {_pivot_magnitude(a(i, k))}) > m: m, q = v, {i}"
                      for i in candidates]
        for i in candidates:
            row_k, row_i = (", ".join([a(r, j) for j in range(n)] + [f"p{r}"]) for r in (k, i))
            lines.append(f"{'if' if i == k + 1 else 'elif'} q == {i}: "
                         f"({row_k}), ({row_i}) = ({row_i}), ({row_k})")
        lines.append(f"if {a(k, k)} == 0: raise LinAlgError('singular Newton matrix')")
        if candidates:  # m is the pivot's magnitude
            lines += [f"if m >= {sys.float_info.min!r}: d = 1.0 / {a(k, k)}; "
                      + "; ".join(f"{a(i, k)} *= d" for i in candidates),
                      "else: " + "; ".join(f"{a(i, k)} /= {a(k, k)}" for i in candidates)]
            lines += ["; ".join(f"{a(i, j)} -= {a(i, k)} * {a(k, j)}" for j in range(k + 1, n))
                      for i in candidates]
    body = "".join(f"    {line}\n" for line in lines)
    return (f"def lu(c, J):\n{body}    return {_lu_factors(n, '')}\n\n\n"
            f"def solve(c, J, b):\n{body}    {_lu_solve(n, '', 'b[#]', 'x')}\n"
            f"    return [{_per_component(n, 'x#')}]\n")


@functools.cache
def _lu(n: int) -> dict:
    """``lu`` and ``solve`` of ``_lu_source(n)``, compiled on first use."""
    return _compiled(_lu_source(n), f"<lu, n = {n}>", {"LinAlgError": np.linalg.LinAlgError})


def _lu_solve(n: int, prefix: str, values: str, target: str) -> str:
    """Statements that solve L U x = P b with the factors named with
    ``prefix`` (``_lu_factors``) in LAPACK's order (``getrs``): b is
    ``values``, one expression per component ``#``, gathered by the
    permutation; x is left in ``target#``, each row's terms subtracted from
    the last column down and divided by U's diagonal."""
    x = [f"{target}{i}" for i in range(n)]
    forward = [f"{x[i]} = g[{prefix}p{i}]" + "".join(f" - {prefix}l{i}_{j} * {x[j]}"
                                                    for j in range(i))
               for i in range(n)]
    back = [f"{x[i]} = ({x[i]}" + "".join(f" - {prefix}u{i}_{j} * {x[j]}"
                                          for j in reversed(range(i + 1, n)))
            + f") / {prefix}u{i}_{i}" if i < n - 1 else f"{x[i]} /= {prefix}u{i}_{i}"
            for i in reversed(range(n))]
    return "; ".join([f"g = ({_per_component(n, values)},)", *forward, *back])


def _radau_source(n: int) -> str:
    """The source of the Radau IIA(5) stepping loop for ``n`` components.

    Each component ``#`` is a local float, as in ``_dopri_source``: of the
    state ``y_#``, f(y) ``fy_#``, the predicted stages ``p<i>_#`` (i = 0, 1,
    2), Newton's stages ``z<i>_#``, transformed stages ``w<i>_#`` and update
    ``d<i>_#``, the scale ``s_#``, the error estimate ``r_#`` and the last
    polynomial ``yp_#``, ``q1_#`` ... ``q3_#``.  The transforms, the error
    estimate and the polynomial are sums over literals.  The Newton matrix
    of the transformed stages splits into a real n x n system, mu_real / h
    I - J, and a complex one, mu_complex / h I - J, whose real and imaginary
    parts are the other two stages (Hairer & Wanner IV.8): ``lu(c, J)``
    (``_lu_source``) factors each once per step size and Jacobian, into
    the locals ``rp<i>``, ... and ``cp<i>``, ... (``_lu_factors``), and an
    iteration forms both right-hand sides and solves both systems inline
    (``_lu_solve``), the complex one on Python complex numbers.  The error
    estimate ``r_#`` is a solve of the real system.  ``kernel`` yields what
    ``_radau_steps`` yields, and raises ``StiffnessError`` once its
    ``max_steps`` trials are spent short of ``t_end``.
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

    state = f"[{each('y_#')}]"
    real_rhs = f"{combination(_RADAU_TI[0].tolist(), 'F@_#')} - mr * w0_#"
    complex_rhs = (f"{combination((_RADAU_TI[1] + 1j * _RADAU_TI[2]).tolist(), 'F@_#')}"
                   " - mc * (w1_# + 1j * w2_#)")
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
def kernel(f, jacobian, lu, t, t_end, h_next, h_min, rtol, atol, newton_tol,
           max_steps, y, fy, counts):
    {each("y_#")}, = y
    {each("fy_#")}, = fy
    J, cause = jacobian(t, y)  # cause: the error of a Jacobian that could not be evaluated
    h_inv = h_prev = err_prev = None  # the factors' h; the last accepted h and error
    fresh, finite, retried = True, True, False  # retried: a trial of this step failed its error test
    for _ in range(max_steps):
        last = t_end - t - h_next < h_min  # no remainder shorter than h_min
        h = t_end - t if last else h_next
        if h < h_min:
            raise _step_underflow(f, t, h, finite, y, {state}, [{each("fy_#")}], counts, cause)
        if h_prev is None:
            {stages("p@_#", " = ")} = 0.0
        else:  # the last polynomial at the new stage times
            {predict}
        {newton_scale}
        t0, t1, t2 = t + h * {c0}, t + h * {c1}, t + h * {c2}
        mr, mc = {_MU_REAL!r} / h, {_MU_COMPLEX!r} / h
        while True:
            try:
                if h_inv != h:
                    counts["factorizations"] += 1
                    ({_lu_factors(n, "r")}), ({_lu_factors(n, "c")}) = lu(mr, J), lu(mc, J)
                    h_inv = h
            except LinAlgError:  # singular: no Newton step to take
                converged, finite = False, None
            else:  # simplified Newton from the predicted stages
                {stages("z@_#")} = {stages("p@_#")}
                {products(_RADAU_TI, "w", "z")}
                converged, finite, norm_old, rate = False, True, None, None
                for k in range({maxiter}):
                    stage = 1
                    try:
                        {each("F0_#")}, = f(t0, [{each("y_# + z0_#")}])
                        stage = 2
                        {each("F1_#")}, = f(t1, [{each("y_# + z1_#")}])
                        stage = 3
                        {each("F2_#")}, = f(t2, [{each("y_# + z2_#")}])
                    except EvaluationError:  # a stage left the rhs's domain
                        counts["rhs_evals"] += stage
                        finite = False
                        break
                    counts["rhs_evals"] += 3
                    {_lu_solve(n, "r", real_rhs, "d0_")}
                    {_lu_solve(n, "c", complex_rhs, "dc_")}
                    {each("d1_# = dc_#.real; d2_# = dc_#.imag", "; ")}
                    norm = {rms([f"d{i}_{j} / s_{j}" for i in range(3) for j in range(n)])}
                    if not isfinite(norm):  # None: the nan rows of a Jacobian that raised
                        finite = False if cause is None else None
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
            (J, cause), fresh, h_inv = jacobian(t, {state}), True, None
        if not converged:
            counts["rejected"] += 1
            h_next = 0.5 * h
            continue
        {each("yn_# = y_# + z2_#", "; ")}
        {each(f"ze_# = ({combination(_RADAU_E.tolist(), 'z@_#')}) / h", "; ")}
        {error_scale}
        {_lu_solve(n, "r", "fy_# + ze_#", "r_")}
        err = {err_norm}
        if retried and err > 1:  # a sharper estimate after a rejection
            counts["rhs_evals"] += 1
            try:
                {each("fe_#")}, = f(t, [{each("y_# + r_#")}])
            except EvaluationError:
                err = inf
            else:
                {_lu_solve(n, "r", "fe_# + ze_#", "r_")}
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
            factor = 1.0  # keep h, and with it the factors
        h_prev, err_prev, retried = h, err, False
        h_next = h * factor
        {products(_RADAU_P.T, "q", "z", 1)}
        {each("yp_# = y_#; y_# = yn_#", "; ")}
        t_prev, t = t, (t_end if last else t + h)
        yield t_prev, t, h, {state}, ({", ".join(
            f"({each(row + '_#')},)" for row in ("yp", "q1", "q2", "q3"))}), counts
        if t >= t_end:
            return
        counts["rhs_evals"] += 1
        try:
            {each("fy_#")}, = f(t, {state})
        except EvaluationError:  # outside the rhs's domain: as a nan rate
            {each("fy_#", " = ")} = nan
        if refresh:
            (J, cause), fresh, h_inv = jacobian(t, {state}), True, None
        else:
            fresh = False
    # a trial that lands on t_end returns above
    raise StiffnessError(f"step budget of {{max_steps}} exhausted at t = {{t:g}}")
'''


@functools.cache
def _radau_kernel(n: int):
    """The stepping loop of ``_radau_source(n)``, compiled on first use."""
    return _compiled(_radau_source(n), f"<radau5 kernel, n = {n}>", _LOOP_RUNTIME)["kernel"]


def _radau_steps(model: ModelSystem, params: ParameterSet, state0: StateVector,
                 t0: float, t_end: float, rtol: float, atol: float):
    """Radau IIA(5) stepping kernel: the generated loop's generator over
    accepted steps, returned after the checked start, as ``_dopri_steps``
    returns its loop (Hairer & Wanner, *Solving ODEs II*, IV.8; the
    algorithm of scipy's ``Radau``).

    Each accepted step yields ``(t_prev, t, h, y, Y, counts)``: the step
    runs from ``t_prev`` to ``t`` with size ``h``, ``y`` is the new state,
    a list of floats, ``Y = (y_prev, q1, q2, q3)`` the step's collocation
    polynomial, four tuples of floats (``collocation_output`` takes it as
    an array), and ``counts`` one dict, updated in place, with the trial
    steps ``rejected``, the ``rhs_evals`` (an evaluation that raises
    counts), the ``jac_evals`` and the ``factorizations`` (of the Newton
    matrix, each one real and one complex LU) so far.

    A step solves the collocation system by simplified Newton on the
    transformed stages, from the stages that the last step's polynomial
    predicts.  Their Newton matrix splits into a real and a complex n x n
    system, each factored once per step size and Jacobian (``lu`` of
    ``_lu``); the real one serves the error estimate too, and a singular
    one fails the trial.  The Jacobian, the model's generated one
    (``ModelSystem.bind_jacobian``, which refuses a model without one
    before the first step) at the step's start, is kept while Newton
    converges fast; one that raises ``EvaluationError`` is rows of nan,
    which fail every trial.  A
    Newton solve that fails with a stale Jacobian is retried with a fresh
    one from the same prediction; one that fails with a fresh Jacobian (a
    stage that raises ``EvaluationError``, a non-finite Newton norm or a
    singular Newton matrix counts as a failure) halves the step; below the
    minimum step, ``_step_underflow`` tells a trial without a Newton solve
    from a non-finite one.  The embedded
    3rd-order error estimate is held to 1 in the RMS norm scaled by
    ``atol + rtol * max(|y|, |y_new|)``, under Gustafsson's predictive
    control.  The checked start (``_start``), the first trial step, the
    last accepted time, the minimum step and the ``MAX_STEPS`` budget are
    those of ``integrate_adaptive``.  The steps are taken by the loop
    generated for the model's dimension (``_radau_source``, compiled once
    per dimension and process).  Call and iterate it inside
    ``np.errstate(all="ignore")``, as ``_dopri_steps``.
    """
    p, rhs, y, f_y, t0, t_end, h, h_min = _start(model, params, state0, t0, t_end, rtol, atol)
    n = len(y)
    counts = {"rejected": 0, "rhs_evals": 1, "jac_evals": 0, "factorizations": 0}
    jac = model.bind_jacobian(p)

    def jacobian(t, values):  # rows of floats for the factorisations, and the error if none
        counts["jac_evals"] += 1
        try:
            return jac(t, values), None
        except EvaluationError as exc:  # no Jacobian here: every Newton solve fails
            return [[math.nan] * n] * n, exc

    newton_tol = max(10 * math.ulp(1.0) / rtol, min(0.03, rtol ** 0.5))  # ulp(1): eps
    return _radau_kernel(n)(rhs, jacobian, _lu(n)["lu"], t0, t_end, h, h_min, rtol, atol,
                            newton_tol, MAX_STEPS, y, f_y, counts)


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
    when the trials that drove it there were non-finite or the state runs
    away, and ``StiffnessError`` otherwise (``_step_underflow``); a run of
    more than ``MAX_STEPS`` trial steps raises ``StiffnessError``.  The
    steps are those of ``_dopri_steps``; ``solver_info`` counts them
    (``accepted``, ``rejected``) and the ``rhs_evals``.
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
    ``MAX_STEPS`` rows after ``t0`` raises ``DomainError`` before any step,
    as do a ``dt`` that is not positive and ``_check_domain``'s refusals."""
    _check_domain(t0, t_end, rtol, atol)
    if not dt > 0:  # nan too
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
