import dataclasses
import math
import os
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsslab import (
    ParameterSet,
    StateVector,
    default_params,
    default_state,
    find_steady_state,
    integrate_adaptive,
    integrate_fixed,
    make_base_model,
    make_model,
    qss_reduce,
)
from qsslab import integrate
from qsslab.catalog import (
    MechanismKind,
    all_kind_names,
    default_horizon,
    make_mechanism_model,
)
from qsslab.claims import MECHANISM_SAMPLES, mechanism_trajectory
from qsslab.cli import run_cli
from qsslab.core import ModelSystem, ParamSpec, validate
from qsslab.dsl import (
    Call,
    ModelDefinition,
    Neg,
    Num,
    SourceLocation,
    StateDecl,
    Var,
    _children,
    compile_model,
    format_expr,
    parse_model,
)
from qsslab.errors import (
    BlowupError,
    DomainError,
    EvaluationError,
    NoConvergenceError,
    QsslabError,
    StiffnessError,
    UsageError,
    ValidationError,
)
from qsslab.integrate import (
    _DP_C,
    _DP_WEIGHTS,
    _NEWTON_MAXITER,
    _RADAU_C,
    _RADAU_E,
    _RADAU_P,
    _RADAU_T,
    _RADAU_TI,
    Trajectory,
    _dopri_kernel,
    _dopri_steps,
    _inlined_dopri_kernel,
    _lu,
    _radau_kernel,
    _radau_steps,
    _step_underflow,
    collocation_output,
    dense_coefficients,
    dense_output,
    sampled_dopri_run,
    sampled_radau_run,
)
from closedform import linear_solution, logistic_solution
from test_dsl import _exprs, _parse_on_line, read_model_text


def blowup_model():
    def rhs(t, s, p):
        with np.errstate(over="ignore"):
            return np.array([p["g"] * s[0] ** 2])

    return ModelSystem(
        name="quadratic-growth",
        state_names=("T",),
        param_schema=(ParamSpec("g", 0.0, False, None),),
        rhs=rhs,
    )


class TestFixedStep:
    def test_pure_decay_endpoint(self):
        model = make_base_model("healthy")
        traj = integrate_fixed(model, ParameterSet(a=0, y=1),
                               StateVector(("T",), [1.0]), 0.0, 1.0, 0.01)
        assert traj.component("T")[-1] == pytest.approx(math.exp(-1), abs=1e-8)

    def test_fixed_point_preserved(self):
        model = make_base_model("healthy")
        traj = integrate_fixed(model, ParameterSet(a=1, y=1),
                               StateVector(("T",), [1.0]), 0.0, 3.0, 0.37)
        assert np.max(np.abs(traj.component("T") - 1.0)) <= 1e-12

    def test_lands_exactly_on_t_end(self):
        model = make_base_model("healthy")
        traj = integrate_fixed(model, ParameterSet(a=1, y=1),
                               StateVector(("T",), [0.5]), 0.0, 1.0, 0.3)
        assert traj.times[-1] == 1.0

    @pytest.mark.parametrize("t0,t_end,dt", [
        (0.0, 1.0, 0.25),  # divides the span
        (-0.5, 2.0, 0.3),  # does not: t_end is appended
        (0.0, 0.3, 0.1),  # divides it up to rounding (span/dt = 3 - 4e-16)
        (0.0, 1.0, 0.25 * (1 + 2.5e-11)),  # to within 1e-9: t_end replaces 1 + 2.5e-11
    ])
    def test_samples_the_adaptive_run_on_the_grid(self, t0, t_end, dt):
        # t0 + i*dt for i <= floor(span/dt + 1e-9), each time t0 + (i + 1)*dt,
        # and t_end in place of a last time not below it or after it
        n_whole = int(np.floor((t_end - t0) / dt + 1e-9))
        grid = [t0, *(t0 + (i + 1) * dt for i in range(n_whole))]
        if grid[-1] < t_end:
            grid.append(t_end)
        else:
            grid[-1] = t_end
        run = (make_base_model("coupled-agent"), ParameterSet(a=1, y=1, x=2, delta_D=4),
               StateVector(("T", "D"), [2.0, 1.0]))
        traj = integrate_fixed(*run, t0, t_end, dt)
        assert traj.times.tolist() == grid
        sampled = sampled_dopri_run(*run, grid, 1e-8, 1e-12)
        assert traj.states.tobytes() == sampled.states.tobytes()
        assert traj.solver_info == sampled.solver_info
        assert traj.solver_info["scheme"] == "dopri54"

    def test_a_large_grid_is_interpolated_in_blocks(self, monkeypatch):
        # blocks of a few rows give the rows of one block, bit for bit
        run = (make_base_model("coupled-agent"), ParameterSet(a=1, y=1, x=2, delta_D=4),
               StateVector(("T", "D"), [2.0, 1.0]), 0.0, 5.0, 0.01)
        whole = integrate_fixed(*run)
        monkeypatch.setattr(integrate, "_SAMPLE_BLOCK", 7)
        assert integrate_fixed(*run).states.tobytes() == whole.states.tobytes()

    def test_precondition_failures(self):
        model = make_base_model("healthy")
        with pytest.raises(DomainError):
            integrate_fixed(model, ParameterSet(a=1, y=1), StateVector(("T",), [1.0]),
                            1.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            integrate_fixed(model, ParameterSet(a=1, y=1), StateVector(("T",), [1.0]),
                            0.0, 1.0, 0.0)
        with pytest.raises(ValidationError):
            integrate_fixed(model, ParameterSet(a=1), StateVector(("T",), [1.0]),
                            0.0, 1.0, 0.1)


class TestAdaptive:
    def test_matches_quadratic_closed_form(self):
        model = make_base_model("logistic-proliferation")
        params = ParameterSet(a=1, y=1, gamma=1)
        traj = integrate_adaptive(model, params, StateVector(("T",), [0.0]),
                                  0.0, 10.0, rtol=1e-10, atol=1e-13)
        worst = max(
            abs(T - logistic_solution(1, 1, 1, 0.0, t))
            for t, T in zip(traj.times, traj.component("T"))
        )
        assert worst <= 1e-8

    def test_stiff_coupled_agent_completes_and_matches_reduction(self):
        params = ParameterSet(a=1, y=1, x=1000.0, delta_D=1000.0)
        model = make_base_model("coupled-agent", params)
        state0 = StateVector(("T", "D"), [2.0, 2.0])
        full = integrate_adaptive(model, params, state0, 0.0, 10.0,
                                  rtol=1e-8, atol=1e-12)
        reduced_model, reduced_params = qss_reduce(model, params)
        red = integrate_adaptive(reduced_model, reduced_params,
                                 StateVector(("T",), [2.0]), 0.0, 10.0,
                                 rtol=1e-8, atol=1e-12)
        red_T = np.interp(full.times, red.times, red.component("T"))
        T = full.component("T")
        gap = np.max(np.abs(T - red_T)) / (T.max() - T.min())
        assert gap <= 0.01

    def test_tiny_span(self):
        model = make_base_model("healthy")
        traj = integrate_adaptive(model, ParameterSet(a=1, y=1),
                                  StateVector(("T",), [0.5]), 0.0, 1e-9,
                                  rtol=1e-8, atol=1e-12)
        # endpoint ~ state0 + rhs * span (one Euler step's worth of motion)
        assert traj.times[-1] == pytest.approx(1e-9, rel=1e-12)
        assert traj.component("T")[-1] == pytest.approx(0.5 + 0.5e-9, abs=1e-15)
        assert len(traj) <= 8

    def test_determinism(self):
        model = make_base_model("logistic-source")
        params = ParameterSet(a=4, y=0, gamma=1)
        runs = [
            integrate_adaptive(model, params, StateVector(("T",), [0.1]), 0.0, 5.0,
                               rtol=1e-9, atol=1e-12)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].times, runs[1].times)
        assert np.array_equal(runs[0].states, runs[1].states)

    @pytest.mark.parametrize(
        "kind,params,state",
        [
            ("healthy", ParameterSet(a=1, y=1), [0.0]),
            ("linear-destruction", ParameterSet(a=1, y=1, gamma=2), [4.0]),
            ("coupled-agent", ParameterSet(a=1, y=1, x=2, delta_D=4), [2.0, 1.0]),
            ("logistic-source", ParameterSet(a=4, y=0, gamma=1), [0.0]),
        ],
    )
    def test_nonnegativity_preserved(self, kind, params, state):
        model = make_base_model(kind)
        atol = 1e-12
        traj = integrate_adaptive(model, params,
                                  StateVector(model.state_names, state),
                                  0.0, 20.0, rtol=1e-8, atol=atol)
        assert np.min(traj.states) >= -atol

    def test_blowup_or_stiffness_on_singular_problem(self):
        model = blowup_model()
        with pytest.raises((BlowupError, StiffnessError)):
            integrate_adaptive(model, ParameterSet(g=1.0), StateVector(("T",), [1.0]),
                               0.0, 2.0, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("t_end", [1.474, 1.542, 3.009, 7.681])
    def test_last_step_lands_exactly_on_t_end(self, t_end):
        # at the fixed point every step grows 5x, and the final step, clamped
        # to the remainder, covers over half the span: t + h used to round
        # one ulp short of t_end, leaving a remainder below the minimum step
        model = make_base_model("healthy")
        traj = integrate_adaptive(model, ParameterSet(a=1, y=1),
                                  StateVector(("T",), [1.0]), 0.0, t_end)
        assert traj.times[-1] == t_end

    def test_non_finite_trial_step_is_rejected(self):
        # the first trial step overshoots to T < 0, where T**n with a
        # fractional n is nan; the trial is retried at a fifth of the step
        params = ParameterSet(a=0.33014751191550706, y=0.29421304314213753,
                              gamma=96.0681310956346, n=2.205395261283672)
        model = make_base_model("power-destruction")
        state0 = StateVector(("T",), [16.745582880360338])
        traj = integrate_adaptive(model, params, state0, 0.0, 2.387002511409681,
                                  rtol=1e-10, atol=1e-13)
        assert traj.times[-1] == 2.387002511409681
        assert traj.solver_info["rejected"] >= 1
        t_star = find_steady_state(model, params, state0).values.values[0]
        assert traj.component("T")[-1] == pytest.approx(t_star, rel=1e-6)

    def test_always_non_finite_rhs_is_a_blowup(self):
        model = ModelSystem(
            name="nan-rate", state_names=("T",), param_schema=(),
            rhs=lambda t, s, p: np.array([math.nan]),
        )
        with pytest.raises(BlowupError):
            integrate_adaptive(model, ParameterSet(), StateVector(("T",), [1.0]),
                               0.0, 1.0)

    def test_overflowing_rhs_is_a_blowup(self):
        # T**2 overflows to inf in the first rhs call, not to OverflowError
        model = make_base_model("logistic-proliferation")
        with pytest.raises(BlowupError):
            integrate_adaptive(model, ParameterSet(a=0, y=1, gamma=1),
                               StateVector(("T",), [1e200]), 0.0, 1.0)

    def test_bad_tolerances(self):
        model = make_base_model("healthy")
        with pytest.raises(DomainError):
            integrate_adaptive(model, ParameterSet(a=1, y=1),
                               StateVector(("T",), [1.0]), 0.0, 1.0, rtol=0.0)


def forced_decay_model():
    """y' = -y + sin t, solved by y = (y0 + 1/2) e^-t + (sin t - cos t)/2."""
    def rhs(t, s, p):
        return np.array([-s[0] + math.sin(t)])

    return ModelSystem(name="forced-decay", state_names=("y",), param_schema=(),
                       rhs=rhs, time_dependent=True)


def forced_decay_solution(y0, t):
    return (y0 + 0.5) * math.exp(-t) + 0.5 * (math.sin(t) - math.cos(t))


class TestDenseOutput:
    def steps(self, rtol=1e-8):
        state0 = StateVector(("y",), [1.0])
        with np.errstate(all="ignore"):
            return [(t_prev, t, h, y, np.array(K)) for t_prev, t, h, y, K, _ in _dopri_steps(
                forced_decay_model(), ParameterSet(), state0, 0.0, 10.0, rtol, 1e-12)]

    def test_kernel_steps_are_the_adaptive_trajectory(self):
        traj = integrate_adaptive(forced_decay_model(), ParameterSet(),
                                  StateVector(("y",), [1.0]), 0.0, 10.0)
        steps = self.steps()
        assert [s[1] for s in steps] == traj.times[1:].tolist()
        assert np.array_equal(np.array([s[3] for s in steps]), traj.states[1:])
        assert all(Y[0, 0] == prev for (*_, Y), prev in zip(steps, traj.states[:-1, 0]))

    def test_endpoints_of_each_step(self):
        for t_prev, t, h, y, Y in self.steps():
            step = dense_coefficients(Y, y, h)
            assert dense_output(step, 0.0)[0] == Y[0, 0]
            assert dense_output(step, 1.0)[0] == pytest.approx(y[0], abs=1e-15 * abs(Y[0, 0]))

    def test_interior_error_is_of_the_order_of_the_tolerance(self):
        errors = [
            abs(dense_output(dense_coefficients(Y, y, h), theta)[0]
                - forced_decay_solution(1.0, t_prev + theta * h))
            for t_prev, t, h, y, Y in self.steps(rtol=1e-8)
            for theta in (0.25, 0.5, 0.75)
        ]
        assert 1e-12 < max(errors) < 5e-8

    def test_one_component_as_floats(self):
        model = make_base_model("coupled-agent")
        state0 = StateVector(("T", "D"), [2.0, 1.0])
        with np.errstate(all="ignore"):
            t_prev, t, h, y, K, _ = next(_dopri_steps(
                model, ParameterSet(a=1, y=1, x=1, delta_D=1), state0, 0.0, 5.0, 1e-8, 1e-12))
        Y = np.array(K)
        for j in range(2):
            column = dense_output(dense_coefficients(Y[:, j].tolist(), float(y[j]), h), 0.3)
            assert column == pytest.approx(dense_output(dense_coefficients(Y, y, h), 0.3)[j],
                                           rel=1e-15)

    def test_coefficients_evaluate_as_the_one_formula(self):
        # the split into coefficients and their evaluation keeps the
        # operation order of contd5 as one formula, also with the quartic
        # term as a float, as first_crossing takes it: bit for bit
        for t_prev, t, h, y, Y in self.steps():
            column, y_end = Y[:, 0].tolist(), float(y[0])
            *head, quartic = dense_coefficients(column, y_end, h)
            for theta in (0.0, 0.1, 0.5, 0.9, 1.0):
                dy, rest = y_end - column[0], 1.0 - theta
                slope = h * column[1] - dy
                formula = column[0] + theta * (dy + rest * (slope + theta * (
                    dy - h * column[7] - slope + rest * (h * np.dot(integrate._DP_D, column[1:])))))
                value = dense_output((*head, float(quartic)), theta)
                assert type(value) is float and value == formula


class TestSampledDopriRun:
    MODEL, PARAMS = "coupled-agent", ParameterSet(a=1, y=1, x=1, delta_D=1)
    STATE0 = StateVector(("T", "D"), [2.0, 1.0])

    def run(self, times):
        return sampled_dopri_run(make_base_model(self.MODEL), self.PARAMS, self.STATE0,
                                 times, 1e-8, 1e-12)

    def test_each_time_is_the_extension_of_its_step(self):
        # every time after 0 is dense_output of the first step that ends at
        # or after it, the step stages of many steps evaluated side by side
        traj = self.run(np.linspace(0.0, 5.0, 301))
        with np.errstate(all="ignore"):
            steps = [(t_prev, t, h, np.array(y), np.array(K)) for t_prev, t, h, y, K, _ in
                     _dopri_steps(make_base_model(self.MODEL), self.PARAMS, self.STATE0,
                                  0.0, 5.0, 1e-8, 1e-12)]
        assert traj.solver_info["accepted"] == len(steps)
        assert traj.solver_info["scheme"] == "dopri54"
        assert np.array_equal(traj.states[0], self.STATE0.values)
        i = 0
        for tau, state in zip(traj.times[1:], traj.states[1:]):
            while steps[i][1] < tau:
                i += 1
            t_prev, _, h, y, Y = steps[i]
            np.testing.assert_allclose(state, dense_output(dense_coefficients(Y, y, h),
                                                           (tau - t_prev) / h),
                                       rtol=1e-15, atol=0)
        assert i == len(steps) - 1

    def test_at_the_accepted_times_it_is_the_adaptive_run(self):
        full = integrate_adaptive(make_base_model(self.MODEL), self.PARAMS, self.STATE0,
                                  0.0, 5.0)
        traj = self.run(full.times)
        assert {k: traj.solver_info[k] for k in full.solver_info} == full.solver_info
        np.testing.assert_allclose(traj.states, full.states, rtol=1e-15, atol=1e-16)


def reference_dopri_steps(model: ModelSystem, params: ParameterSet, state0: StateVector,
                          t0: float, t_end: float, rtol: float, atol: float):
    """The reference for ``_dopri_steps``: the same Dormand-Prince 5(4)
    stepping kernel written with one list comprehension per stage.

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
    if t_end <= t0:
        raise DomainError(f"t_end ({t_end:g}) must exceed t0 ({t0:g})")
    violations = validate(model, params, state0)
    if violations:
        raise ValidationError(violations)
    f = model.bind(model.resolve_params(params))
    y = np.array(state0.values, dtype=float).tolist()
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
    y0, finite = y, True
    max_steps = integrate.MAX_STEPS
    for _ in range(max_steps):
        if t >= t_end:
            return
        last = t_end - t - h < h_min  # no remainder shorter than h_min
        if last:
            h = t_end - t
        if h < h_min:
            raise _step_underflow(f, t, h, finite, y0, y, k1, counts)
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


def stepping_record(kernel, model, params, state0, t0, t_end, rtol=1e-8, atol=1e-12):
    """Every yield of ``kernel``'s run as bytes and types, ``counts`` as it
    stood at each yield and at the end, and the error the run ends in.  A
    run that ends before its first step has its counts from the error."""
    steps, counts, error = [], {}, None
    try:
        with np.errstate(all="ignore"):
            for t_prev, t, h, y, K, counts in kernel(model, params, state0, t0, t_end,
                                                     rtol, atol):
                floats = [t_prev, t, h, *y, *(v for row in K for v in row)]
                steps.append((np.array(floats).tobytes(), [type(v) for v in floats],
                              [type(row) for row in (y, *K)], dict(counts)))
    except QsslabError as exc:
        error = type(exc), str(exc)
        if not steps:
            counts = getattr(exc, "counts", counts)
    return steps, dict(counts), error


def power_destruction_by_hand():
    """power-destruction as a hand-built numpy rhs: a trial below T = 0 makes
    a nan rate under the fractional power, where the compiled form raises."""
    base = make_base_model("power-destruction")

    def rhs(t, s, p):
        return np.array([p["a"] - p["y"] * s[0] - p["gamma"] * s[0] ** p["n"]])

    return dataclasses.replace(base, name="power-destruction-by-hand", rhs=rhs, jacobian=None)


# the trial steps of TestAdaptive.test_non_finite_trial_step_is_rejected:
# the first trial overshoots to T < 0 under a fractional power
OVERSHOOT = (ParameterSet(a=0.33014751191550706, y=0.29421304314213753,
                          gamma=96.0681310956346, n=2.205395261283672),
             StateVector(("T",), [16.745582880360338]), 0.0, 2.387002511409681)


# The states of a random model, in order, and its parameters: the other
# names that tests/test_dsl.py's random trees read
RANDOM_STATES = ("T", "V", "x1")
RANDOM_PARAMS = ("a", "y", "gamma", "V", "x1")


def _reads(expr, names) -> bool:
    """Whether ``expr`` reads one of ``names``."""
    if isinstance(expr, Var):
        return expr.name in names
    return any(_reads(e, names) for e in _children(expr))


def random_model(exprs):
    """The compiled model whose rates are ``exprs``, one per state."""
    states = RANDOM_STATES[:len(exprs)]
    params = tuple(p for p in RANDOM_PARAMS if p not in states)
    return compile_model(ModelDefinition("random", tuple(StateDecl(s, 1.0) for s in states),
                                         tuple(ParamSpec(p, None) for p in params),
                                         dict(zip(states, exprs))))


class TestGeneratedDopriKernel:
    """``_dopri_steps`` steps through the loop generated for a compiled
    model, its rhs inlined, or for any other model's dimension, calling its
    rhs; ``reference_dopri_steps`` is the same kernel on lists.  Every
    yield must be the same, bit for bit, counts included."""

    @staticmethod
    def assert_same_steps(model, params, state0, t0, t_end, **kwargs):
        steps, counts, error = stepping_record(_dopri_steps, model, params, state0,
                                               t0, t_end, **kwargs)
        assert (steps, counts, error) == stepping_record(
            reference_dopri_steps, model, params, state0, t0, t_end, **kwargs)
        assert all(types == [float] * len(types) for _, types, _, _ in steps)
        assert all(rows == [list] * 9 for _, _, rows, _ in steps)
        return steps, counts, error

    @pytest.mark.parametrize("kind, t_end", [
        ("power-destruction", 10.0), ("logistic-source", 10.0), ("coupled-agent", 20.0),
        ("bcell-depletion", 20.0), ("virulence-drift", 20.0),
        ("cytokine-inversion", 20.0), ("humoral-cellular-competition", 20.0),
    ])
    def test_catalog_models(self, kind, t_end):
        model = make_model(kind)
        steps, counts, error = self.assert_same_steps(
            model, default_params(kind), default_state(kind), 0.0, t_end)
        assert error is None and len(steps) > 10
        assert hasattr(model.rhs, "bind")

    def test_hand_built_models_through_the_adapter(self):
        def rhs(t, values, p):
            T, D = values
            return np.array([p["a"] - p["y"] * T - D * T, p["x"] * T - p["delta_D"] * D])

        coupled = dataclasses.replace(make_base_model("coupled-agent"), rhs=rhs, jacobian=None)
        for model, params, state0 in (
                (forced_decay_model(), ParameterSet(), StateVector(("y",), [1.0])),
                (coupled, ParameterSet(a=1, y=1, x=2, delta_D=4),
                 StateVector(("T", "D"), [2.0, 1.0]))):
            assert not hasattr(model.rhs, "bind")
            steps, _, error = self.assert_same_steps(model, params, state0, 0.0, 10.0)
            assert error is None and len(steps) > 10

    def test_non_finite_trial(self):
        params, state0, t0, t_end = OVERSHOOT
        model = power_destruction_by_hand()
        with np.errstate(all="ignore"):
            assert math.isnan(model.bind(params.as_dict())(0.0, [-1.0])[0])
        _, counts, error = self.assert_same_steps(model, params, state0, t0, t_end,
                                                  rtol=1e-10, atol=1e-13)
        assert error is None and counts["rejected"] >= 1

    def test_stage_that_raises(self):
        params, state0, t0, t_end = OVERSHOOT
        model = make_base_model("power-destruction")
        with pytest.raises(EvaluationError):
            model.bind(params.as_dict())(0.0, [-1.0])
        _, counts, error = self.assert_same_steps(model, params, state0, t0, t_end,
                                                  rtol=1e-10, atol=1e-13)
        assert error is None and counts["rejected"] >= 1
        assert (counts["rhs_evals"] - 1) % 6 != 0  # a trial ended at the stage that raised

    def test_step_size_underflow_ends_in_stiffness(self):
        # the rate flips sign at T = 1: no step across it meets the tolerance
        model = ModelSystem(name="switch", state_names=("T",), param_schema=(),
                            rhs=lambda t, s, p: np.array([-1e10 if s[0] > 1 else 1e10]))
        _, _, error = self.assert_same_steps(model, ParameterSet(), StateVector(("T",), [0.0]),
                                             0.0, 1.0)
        assert error[0] is StiffnessError and "step size underflow" in error[1]

    def test_step_size_underflow_ends_in_blowup(self):
        model = ModelSystem(name="nan-rate", state_names=("T", "U"), param_schema=(),
                            rhs=lambda t, s, p: np.array([math.nan, 1.0]))
        steps, _, error = self.assert_same_steps(model, ParameterSet(),
                                                 StateVector(("T", "U"), [1.0, 1.0]), 0.0, 1.0)
        assert error[0] is BlowupError and not steps

    @pytest.mark.parametrize("max_steps", [32, 33])
    def test_step_budget(self, monkeypatch, max_steps):
        # TestStepBudget's run: 33 trials, the last landing on t_end
        monkeypatch.setattr(integrate, "MAX_STEPS", max_steps)
        _, counts, error = self.assert_same_steps(
            make_base_model("healthy"), ParameterSet(a=1, y=1), StateVector(("T",), [0.5]),
            0.0, 5.0)
        assert counts["rhs_evals"] == 1 + 6 * max_steps  # every trial of the budget taken
        assert (error is None) == (max_steps == 33)
        if error:
            assert error == (StiffnessError, "step budget of 32 exhausted at t = 4.85853")

    @staticmethod
    def assert_inlined_and_called_alike(exprs, values, state0, t_end=1.0):
        """The run of a compiled model of ``exprs`` (``RANDOM_STATES``),
        whose loop inlines its rhs, and the run of the same model with its
        rhs wrapped, whose loop calls it, are both the reference's run, at
        the ``RANDOM_PARAMS`` ``values`` and within a budget of 200 trials."""
        model = random_model(exprs)
        called = dataclasses.replace(model, rhs=lambda t, y, p: model.rhs(t, y, p),
                                     jacobian=None)
        assert model.rhs.tree is not None and not hasattr(called.rhs, "tree")
        params = ParameterSet({p.name: v for p, v in zip(model.param_schema, values)})
        state0 = StateVector(model.state_names, state0[:len(exprs)])
        with mock.patch.object(integrate, "MAX_STEPS", 200):
            expected = stepping_record(reference_dopri_steps, model, params, state0, 0.0, t_end,
                                       rtol=1e-6, atol=1e-9)
            for run in (model, called):
                assert stepping_record(_dopri_steps, run, params, state0, 0.0, t_end,
                                       rtol=1e-6, atol=1e-9) == expected
        return expected

    @given(st.lists(_exprs(3), min_size=1, max_size=3).filter(
               lambda exprs: any(_reads(e, RANDOM_STATES[:len(exprs)]) for e in exprs)),
           st.lists(st.floats(0.0, 5.0), min_size=len(RANDOM_PARAMS), max_size=len(RANDOM_PARAMS)),
           st.lists(st.floats(0.0, 5.0), min_size=3, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_random_models(self, exprs, values, state0):
        # parsed from text, so that every node has its own line and column
        exprs = [_parse_on_line(format_expr(e), i + 1) for i, e in enumerate(exprs)]
        self.assert_inlined_and_called_alike(exprs, values, state0)

    @pytest.mark.parametrize("rates", [
        ["ln(T) - 5"], ["0 - 1/max(T - 0.9, 0)"], ["0 - 3*(T - 0.5)^0.5"],
        ["T*(0 - 3)", "0 - 3*(T - 0.5)^0.5*V"], ["V - 2", "ln(T)*T"],
        ["x1 - T", "V*(0 - 4)", "0 - 3*(T - 0.5)^0.5"],
    ])
    def test_random_models_whose_stages_raise(self, rates):
        # a stage leaves the domain: ln of a negative, a division by zero or
        # a negative base to a fractional power
        _, counts, _ = self.assert_inlined_and_called_alike(
            [_parse_on_line(rate, i + 1) for i, rate in enumerate(rates)], [1.0] * 5, [1.0] * 3)
        assert counts["rejected"] >= 1
        assert (counts["rhs_evals"] - 1) % 6 != 0  # a trial ended at the stage that raised

    def test_each_loop_compiles_once(self):
        # a compiled model's loop, its rhs inlined, once per model and process:
        # an equal model compiled again runs the same loop
        args = default_params("coupled-agent"), default_state("coupled-agent")
        model = make_model("coupled-agent")
        integrate_adaptive(model, *args, 0.0, 1.0)
        inlined, by_dimension = _inlined_dopri_kernel.cache_info(), _dopri_kernel.cache_info()
        for _ in range(3):
            integrate_adaptive(model, *args, 0.0, 1.0)
            integrate_adaptive(make_model("coupled-agent"), *args, 0.0, 1.0)
        after = _inlined_dopri_kernel.cache_info()
        assert after.misses == inlined.misses and after.hits == inlined.hits + 6
        assert _dopri_kernel.cache_info() == by_dimension
        # any other rhs: the loop that calls it, once per dimension
        wrapped = dataclasses.replace(model, rhs=lambda t, s, p: model.rhs(t, s, p))
        integrate_adaptive(wrapped, *args, 0.0, 1.0)
        before = _dopri_kernel.cache_info()
        for _ in range(3):
            integrate_adaptive(wrapped, *args, 0.0, 1.0)
        after = _dopri_kernel.cache_info()
        assert after.misses == before.misses and after.hits == before.hits + 3
        assert _dopri_kernel(2) is _dopri_kernel(2) is not _dopri_kernel(1)

    def test_the_inlined_loops_memo_is_bounded(self):
        def run(rate):
            model = compile_model(parse_model(f"state T = 1\nparam a = 1\ndT/dt = a - {rate}*T\n"))
            integrate_adaptive(model, ParameterSet(), StateVector(("T",), [1.0]), 0.0, 0.1)

        maxsize = _inlined_dopri_kernel.cache_info().maxsize
        assert maxsize == 64
        for rate in range(maxsize + 1):
            run(rate + 1)
        misses = _inlined_dopri_kernel.cache_info().misses
        run(maxsize + 1)  # the most recent is kept
        assert _inlined_dopri_kernel.cache_info().misses == misses
        run(1)  # the least recent was dropped
        assert _inlined_dopri_kernel.cache_info().misses == misses + 1
        assert _inlined_dopri_kernel.cache_info().currsize == maxsize

    def test_import_compiles_no_kernel(self):
        src = Path(integrate.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        code = ("import qsslab, qsslab.cli; from qsslab.integrate import _dopri_kernel; "
                "print(_dopri_kernel.cache_info().misses)")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0"


class TestStepUnderflow:
    """A step that underflows on finite trials is a blowup when the state
    grew and its rate grows faster than linearly, and stiffness otherwise."""

    @pytest.mark.parametrize("kernel", [_dopri_steps, _radau_steps], ids=["dopri", "radau"])
    @pytest.mark.parametrize("rate, T0, t_star", [
        ("T^2", 1.0, 1.0), ("1 + T^2", 0.0, math.pi / 2), ("T^3", 1.0, 0.5),
    ], ids=["square", "tan", "cube"])
    def test_finite_time_blowup_is_a_blowup(self, kernel, rate, T0, t_star):
        # each solution leaves every bound at t_star; the trials up to it
        # stay finite, and the step underflows just before it
        model = compile_model(parse_model(f"model runaway\nstate T = {T0}\ndT/dt = {rate}\n"))
        with pytest.raises(BlowupError, match="state grew without bound") as caught:
            with np.errstate(all="ignore"):
                for _ in kernel(model, ParameterSet(), StateVector(("T",), [T0]), 0.0, 3.0,
                                1e-8, 1e-12):
                    pass
        assert caught.value.time == pytest.approx(t_star, rel=1e-7)

    def test_a_state_that_did_not_grow_is_stiff(self):
        # with beta = 1e300, cytokine-inversion's rates are ~1e298: no Newton
        # solve converges, and the step underflows at t = 0, where the state
        # still is its start
        kind = "cytokine-inversion"
        params = ParameterSet(**{**default_params(kind).as_dict(), "beta": 1e300})
        steps, _, counts, error = radau_record(_radau_steps, make_mechanism_model(kind), params,
                                               default_state(kind), default_horizon(kind))
        assert not steps
        assert error == (StiffnessError,
                         "step size underflow (5.457e-12) at t = 0; problem too stiff")


class TestStepBudget:
    def test_adaptive_budget_counts_every_trial(self, monkeypatch):
        # this run takes 33 trials, the last landing on t_end
        args = (make_base_model("healthy"), ParameterSet(a=1, y=1),
                StateVector(("T",), [0.5]), 0.0, 5.0)
        monkeypatch.setattr(integrate, "MAX_STEPS", 33)
        traj = integrate_adaptive(*args)
        assert traj.solver_info["accepted"] + traj.solver_info["rejected"] == 33
        assert traj.times[-1] == 5.0
        monkeypatch.setattr(integrate, "MAX_STEPS", 32)
        with pytest.raises(StiffnessError, match="step budget of 32 exhausted"):
            integrate_adaptive(*args)

    def test_fixed_step_refuses_more_steps_than_the_budget(self):
        # checked before the first step: the run would otherwise take ~1e300 steps
        with pytest.raises(DomainError, match="needs more than"):
            integrate_fixed(make_base_model("healthy"), ParameterSet(a=1, y=1),
                            StateVector(("T",), [1.0]), 0.0, 1.0, 1e-300)


@pytest.mark.parametrize("kernel", [_dopri_steps, _radau_steps], ids=["dopri", "radau"])
def test_both_kernels_share_one_checked_start(monkeypatch, kernel):
    def run(params=ParameterSet(a=1, y=1), state0=StateVector(("T",), [0.5]), t_end=5.0,
            rtol=1e-8, atol=1e-12, model=make_base_model("healthy")):
        with np.errstate(all="ignore"):
            return list(kernel(model, params, state0, 0.0, t_end, rtol, atol))

    for tolerances in (dict(rtol=0.0), dict(atol=-1e-12)):
        with pytest.raises(DomainError, match="rtol and atol must be positive"):
            run(**tolerances)
    for t_end in (0.0, -1.0):
        with pytest.raises(DomainError, match="must exceed t0"):
            run(t_end=t_end)
    with pytest.raises(ValidationError) as info:
        run(ParameterSet(a=1, y=1, gama=3), StateVector(("T",), [-1.0]))
    assert info.value.violations == ["undeclared parameter 'gama'", "initial T is negative (-1)"]
    # ln(T) raises at T = 0: a nan rate at the start, and every trial step fails
    edge = compile_model(parse_model("model edge\nstate T = 0\nparam a = 1\ndT/dt = a - ln(T)\n"))
    with pytest.raises(BlowupError, match="non-finite"):
        run(ParameterSet(a=1), StateVector(("T",), [0.0]), model=edge)
    monkeypatch.setattr(integrate, "MAX_STEPS", 3)  # read when the run starts
    with pytest.raises(StiffnessError, match=r"^step budget of 3 exhausted at t = "):
        run()


class TestTrajectory:
    def test_invariants_enforced(self):
        with pytest.raises(ValidationError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)), ("T",), {})
        with pytest.raises(ValidationError):
            Trajectory(np.array([0.0]), np.zeros((1, 1)), ("T",), {})
        with pytest.raises(ValidationError):
            Trajectory(np.array([0.0, 1.0]), np.array([[0.0], [float("nan")]]), ("T",), {})

    def test_first_state_is_initial_condition(self):
        model = make_base_model("healthy")
        state0 = StateVector(("T",), [0.123456])
        traj = integrate_adaptive(model, ParameterSet(a=1, y=1), state0, 0.0, 1.0)
        assert traj.states[0, 0] == state0.values[0]
        assert traj.times[0] == 0.0

    def test_component_access(self):
        model = make_base_model("coupled-agent")
        params = ParameterSet(a=1, y=1, x=1, delta_D=2)
        traj = integrate_adaptive(model, params, StateVector(("T", "D"), [1.0, 0.5]),
                                  0.0, 1.0)
        assert traj.component("D").shape == traj.times.shape
        with pytest.raises(ValidationError):
            traj.component("V")


class TestMechanismKernel:
    """The four mechanisms at the claim settings: the Dormand-Prince kernel,
    and the Radau runs that the claims store."""

    # Dormand-Prince accepted steps per mechanism at rtol 1e-8, atol 1e-12
    BASELINE_STEPS = {
        "virulence-drift": 4521,
        "cytokine-inversion": 6647,
        "humoral-cellular-competition": 6316,
        "bcell-depletion": 24080,
    }

    @pytest.mark.parametrize("kind", [k.value for k in MechanismKind])
    def test_accepted_steps_do_not_grow(self, kind):
        traj = integrate_adaptive(make_mechanism_model(kind), default_params(kind),
                                  default_state(kind), 0.0, default_horizon(kind),
                                  rtol=1e-8, atol=1e-12)
        assert traj.solver_info["accepted"] <= 1.10 * self.BASELINE_STEPS[kind]

    # Radau IIA(5) counters per mechanism at the claim settings: accepted
    # steps, rhs evaluations, Jacobians and factorisations of the Newton matrix
    RADAU_COUNTS = {
        "virulence-drift": (544, 4375, 163, 197),
        "cytokine-inversion": (537, 4128, 89, 150),
        "humoral-cellular-competition": (493, 4091, 192, 229),
        "bcell-depletion": (519, 4485, 252, 301),
    }

    @pytest.mark.parametrize("kind", [k.value for k in MechanismKind])
    def test_radau_steps_and_rhs_evals(self, kind):
        # Dormand-Prince takes 27,157 to 147,115 rhs evaluations here
        _, _, traj = mechanism_trajectory(kind)
        info = traj.solver_info
        assert info["scheme"] == "radau5"
        for name, baseline in zip(("accepted", "rhs_evals", "jac_evals", "factorizations"),
                                  self.RADAU_COUNTS[kind]):
            assert info[name] <= 1.01 * baseline, name

    def test_sampled_run_is_the_collocation_polynomial(self):
        # every stored time after 0 is collocation_output of the first step
        # that ends at or after it, bit for bit; the last stored time is
        # t_end, which is also the last step's end
        kind, t_end = "cytokine-inversion", 40.0
        model, params, state0 = make_mechanism_model(kind), default_params(kind), default_state(kind)
        traj = sampled_radau_run(model, params, state0,
                                 np.linspace(0.0, t_end, MECHANISM_SAMPLES), 1e-8, 1e-12)
        with np.errstate(all="ignore"):
            steps = [(t_prev, t, h, Y) for t_prev, t, h, _, Y, _ in
                     _radau_steps(model, params, state0, 0.0, t_end, 1e-8, 1e-12)]
        assert traj.solver_info["accepted"] == len(steps)
        assert traj.times.size == 4097 and traj.times[-1] == steps[-1][1] == t_end
        assert np.array_equal(traj.states[0], state0.values)
        i = 0
        for tau, state in zip(traj.times[1:], traj.states[1:]):
            while steps[i][1] < tau:
                i += 1
            t_prev, _, h, Y = steps[i]
            assert np.array_equal(state, integrate.collocation_output(np.array(Y),
                                                                      (tau - t_prev) / h))
        assert i == len(steps) - 1

    @pytest.mark.parametrize("kind", [k.value for k in MechanismKind])
    def test_agrees_with_scipy_radau(self, kind):
        # on every stored time: T to 1e-8 relative, every state to 1e-8 of its peak
        integrate = pytest.importorskip("scipy.integrate")
        model, params, traj = mechanism_trajectory(kind)
        assert np.array_equal(traj.times, np.linspace(0.0, default_horizon(kind), 4097))
        p = model.resolve_params(params)
        ref = integrate.solve_ivp(
            lambda t, y: model.rhs(t, y, p), (traj.times[0], traj.times[-1]),
            traj.states[0], method="Radau", rtol=1e-12, atol=1e-15, t_eval=traj.times,
        )
        assert ref.success
        np.testing.assert_allclose(traj.component("T"), ref.y[0], rtol=1e-8)
        peak = np.abs(ref.y).max(axis=1)
        assert np.all(np.abs(traj.states - ref.y.T) <= 1e-8 * peak)


def van_der_pol_model():
    """u'' = mu (1 - u^2) u' - u as a first-order system, mu = 1000: stiff."""
    return compile_model(parse_model("model van-der-pol\nstate u = 2\nstate v = 0\n"
                                     "du/dt = v\ndv/dt = 1000*(1 - u^2)*v - u\n"))


def counting(model):
    """``model`` with an rhs that counts its calls, those that raise too."""
    calls = []

    def rhs(t, s, p):
        calls.append(t)
        return model.rhs(t, s, p)

    return dataclasses.replace(model, rhs=rhs), calls


def raising_once_healthy_model():
    """The healthy model, whose rhs raises ``EvaluationError`` at its first
    call after t = 0, and the times of those calls."""
    base = make_base_model("healthy")
    stage_times = []

    def rhs(t, s, p):
        if t > 0.0:
            stage_times.append(t)
            if len(stage_times) == 1:
                raise EvaluationError("outside the domain")
        return base.rhs(t, s, p)

    # the base rhs wherever it is defined: its generated Jacobian holds
    return dataclasses.replace(base, rhs=rhs), stage_times


def failing_jacobian_model(kind, t_fail, rows):
    """The mechanism ``kind`` whose generated Jacobian, after ``t_fail``,
    returns ``rows`` or, for None, raises ``EvaluationError``."""
    model = make_mechanism_model(kind)
    bind_jacobian = model.jacobian

    def jacobian(params):
        jac = bind_jacobian(params)

        def failing(t, values):
            if t <= t_fail:
                return jac(t, values)
            if rows is None:
                raise EvaluationError("no Jacobian here")
            return rows
        return failing

    return dataclasses.replace(model, jacobian=jacobian)


def radau_run(model, state0, t_end, rtol=1e-8, atol=1e-12, params=ParameterSet()):
    """The accepted steps (t, y, Y) of one Radau run, y and Y as arrays, and
    its final counts."""
    steps = []
    with np.errstate(all="ignore"):
        for _, t, _, y, Y, counts in _radau_steps(model, params, state0, 0.0, t_end,
                                                  rtol, atol):
            steps.append((t, np.array(y), np.array(Y)))
    return steps, dict(counts)


def _rms(x) -> float:
    """The root-mean-square norm of an array."""
    x = x.ravel()
    return math.sqrt(float(x.dot(x)) / x.size)


def reference_radau_newton(rhs, t, y, h, Z, scale, tol, K, transforms, counts):
    """The simplified Newton iteration on the Radau collocation system,
    started from the stage increments ``Z`` (flat, stage after stage: stage
    i at ``t + C_i h`` is ``y + Z_i``) and run on the transformed variables
    W = T^-1 Z, kept flat as well.  An iteration is one product
    dW = K [F; W] with the stage derivatives F (``newton_inverse`` in
    ``reference_radau_steps`` forms K with the Newton inverse), and the stages are
    y + (T (x) I) W, ``transforms`` being (T^-1 (x) I, T (x) I).
    ``rhs`` is the bound rhs; each evaluation is counted in ``counts``,
    one that raises too.  A stage that raises ``EvaluationError`` ends the
    iteration unconverged and not finite, and so does a non-finite Newton
    norm (a non-finite stage or matrix), for which ``finite`` is None.
    Returns (converged, finite, iterations, Z as 3 x n, rate of
    convergence)."""
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
            return False, None, k + 1, z.reshape(3, n), rate
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


# The real block form Lambda of the inverse of the Radau IIA(5) matrix under
# the transformation T: the Newton matrix of the transformed stages is
# Lambda / h (x) I - I (x) J
RADAU_LAMBDA = np.array(((integrate._MU_REAL, 0.0, 0.0),
                         (0.0, integrate._MU_COMPLEX.real, -integrate._MU_COMPLEX.imag),
                         (0.0, integrate._MU_COMPLEX.imag, integrate._MU_COMPLEX.real)))


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


def reference_radau_steps(model: ModelSystem, params: ParameterSet, state0: StateVector,
                          t0: float, t_end: float, rtol: float, atol: float):
    """The reference for ``_radau_steps``: the same Radau IIA(5) stepping
    kernel on numpy arrays, a generator over accepted steps, as
    ``_dopri_steps`` is (Hairer & Wanner, *Solving ODEs II*, IV.8; the
    algorithm of scipy's ``Radau``, in numpy alone).

    Each accepted step yields ``(t_prev, t, h, y, Y, counts)``: the step
    runs from ``t_prev`` to ``t`` with size ``h``, ``y`` is the new state,
    ``Y = [y_prev; q1; q2; q3]`` the step's collocation polynomial for
    ``collocation_output``, both arrays, and ``counts`` one dict, updated
    in place, with the trial steps ``rejected``, the ``rhs_evals`` (an
    evaluation that raises counts), the ``jac_evals`` and the
    ``factorizations`` (here inversions of the whole Newton matrix,
    ``_radau_newton_inverse``) so far.

    Each step solves the collocation system by simplified Newton on the
    transformed stages (``reference_radau_newton``), with the inverse of their
    Newton matrix formed once per step size and Jacobian; its first block
    serves the error estimate.  The stages start from the last step's
    polynomial (``collocation_output``).  The Jacobian is the generated
    one, ``ModelSystem.bind_jacobian``'s, at the step's start, kept across
    steps while Newton converges fast; a Newton solve that fails with a
    stale Jacobian is retried with a fresh one, and one that fails with a
    fresh Jacobian (a stage that raises ``EvaluationError``, a non-finite
    Newton norm or a singular Newton matrix counts as a failure) halves
    the step.  A Jacobian that raises ``EvaluationError`` is a matrix of
    nan, and ``_step_underflow`` is told its error and whether the last
    trial's Newton matrix was singular.  The embedded
    3rd-order error estimate is held to 1 in the root-mean-square norm
    scaled by ``atol + rtol * max(|y|, |y_new|)``, and the step size
    follows Gustafsson's predictive controller.  The first trial step is
    ``(t_end - t0) / 100``; the last accepted time is ``t_end`` exactly.
    A step below 1e-14 * (t_end - t0) raises what ``_step_underflow``
    decides, and a run of more than ``MAX_STEPS`` trial steps raises
    ``StiffnessError``.

    Iterate it inside ``np.errstate(all="ignore")``, as ``_dopri_steps``.
    """
    if rtol <= 0 or atol <= 0:
        raise DomainError("rtol and atol must be positive")
    if t_end <= t0:
        raise DomainError(f"t_end ({t_end:g}) must exceed t0 ({t0:g})")
    violations = validate(model, params, state0)
    if violations:
        raise ValidationError(violations)
    p = model.resolve_params(params)
    y = np.array(state0.values, dtype=float)
    rhs = model.bind(p)
    counts = {"rejected": 0, "rhs_evals": 0, "jac_evals": 0, "factorizations": 0}

    def counted(t, values):
        counts["rhs_evals"] += 1
        return rhs(t, values)

    f = lambda t, x: np.array(counted(t, x.tolist()))
    jac = model.bind_jacobian(p)

    def jacobian(t, x):  # and the error of a Jacobian that could not be evaluated
        counts["jac_evals"] += 1
        try:
            return np.array(jac(t, x.tolist())), None
        except EvaluationError as exc:  # no Jacobian here: every Newton solve fails
            return np.full((x.size, x.size), math.nan), exc

    n = y.size
    eye = np.identity(n)
    lam = np.kron(RADAU_LAMBDA, eye)
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
    (J, cause), fresh = jacobian(t, y), True
    inv = None  # newton_inverse(h, J) for the current h and J
    h_next = span / 100.0
    h_prev = err_prev = None  # size and error norm of the last accepted step
    finite, retried = True, False  # retried: a trial of this step failed its error test
    Y = None  # the last accepted step's polynomial, which predicts the next stages
    max_steps = integrate.MAX_STEPS
    for _ in range(max_steps):
        last = t_end - t - h_next < h_min  # no remainder shorter than h_min
        h = t_end - t if last else h_next
        if h < h_min:
            raise _step_underflow(rhs, t, h, finite, state0.values.tolist(), y.tolist(),
                                  f_y.tolist(), counts, cause)
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
            except np.linalg.LinAlgError:  # singular: no Newton step to take
                converged, finite = False, None
            else:
                converged, finite, n_iter, Z, rate = reference_radau_newton(
                    rhs, t, y, h, Z0, scale, newton_tol, inv[2], transforms, counts)
                if finite is None and cause is None:  # a non-finite stage, not a nan Jacobian
                    finite = False
            if converged or fresh:
                break
            (J, cause), fresh, inv = jacobian(t, y), True, None
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
            (J, cause), fresh, inv = jacobian(t, y), True, None
        else:
            fresh = False
    raise StiffnessError(f"step budget of {max_steps} exhausted at t = {t:g}")


def lu_solver(n):
    """``solve(c, J, b)``: x with (c I - J) x = b, by the generated LU and
    the solve that the Radau kernel runs inline (``_lu_source``)."""
    return _lu(n)["solve"]


@st.composite
def _shifted_systems(draw):
    """(c, J, b) of a system (c I - J) x = b with n = 1 ... 5 components, c
    a Radau shift mu / h, real or complex."""
    n = draw(st.integers(1, 5))
    entry = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    J = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    mu = draw(st.sampled_from([integrate._MU_REAL, integrate._MU_COMPLEX]))
    h = draw(st.floats(1e-4, 10.0))
    b = draw(st.lists(entry, min_size=n, max_size=n))
    return mu / h, J, b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_shifted_systems())
# zeros on the diagonal of c I - J: no step without a row swap
@example((integrate._MU_REAL, [[integrate._MU_REAL, 1.0], [2.0, 3.0]], [1.0, 2.0]))
@example((2.0, [[2.0, 1.0, 0.0], [1.0, 2.0, 5.0], [4.0, 3.0, 2.0]], [1.0, -1.0, 2.0]))
@example((3.0 + 1j, [[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0]], [1.0, 2.0, 3.0, 4.0]))
def test_generated_lu_solves_like_numpy(system):
    c, J, b = system
    A = c * np.identity(len(b)) - np.array(J)
    condition = np.linalg.cond(A)
    if not condition < 1e8:  # too close to singular to compare
        return
    x = np.array(lu_solver(len(b))(c, J, b))
    expected = np.linalg.solve(A, b)
    assert np.all(np.abs(x - expected) <= 1e-14 * condition * np.abs(expected).max() + 1e-300)
    assert x.dtype == (complex if isinstance(c, complex) else float)


def _singular(n, c):
    """J with c I - J exactly singular for a shift c = 8 or 8 + 4j: c I - J
    = 0 for n = 1, else a 2 x 2 block with dependent rows and zeros."""
    if n == 1:
        return [[c]]
    J = [[0.0] * n for _ in range(n)]
    J[0][:2], J[1][:2] = ([[8.0, -4.0], [4.0, 8.0]] if isinstance(c, complex)
                          else [[7.0, -2.0], [-2.0, 4.0]])
    return J


@pytest.mark.parametrize("n, c", [(n, 8.0) for n in range(1, 6)]
                         + [(n, 8.0 + 4.0j) for n in range(2, 6)])
def test_generated_lu_refuses_a_singular_matrix(n, c):
    # an exactly zero pivot: the Radau kernel's singular path
    J = _singular(n, c)
    assert np.linalg.matrix_rank(c * np.identity(n) - np.array(J)) == n - 1
    with pytest.raises(np.linalg.LinAlgError):
        _lu(n)["lu"](c, J)


class TestRadauKernel:
    VDP_STATE = StateVector(("u", "v"), [2.0, 0.0])

    def test_stiff_model_outside_the_catalog(self):
        integrate = pytest.importorskip("scipy.integrate")
        model = van_der_pol_model()
        dp5 = integrate_adaptive(model, ParameterSet(), self.VDP_STATE, 0.0, 10.0,
                                 rtol=1e-6, atol=1e-9)
        steps, counts = radau_run(model, self.VDP_STATE, 10.0, rtol=1e-6, atol=1e-9)
        assert len(steps) <= dp5.solver_info["accepted"] / 10
        times = [t for t, _, _ in steps]
        ref = integrate.solve_ivp(lambda t, y: model.rhs(t, y, {}), (0.0, 10.0),
                                  self.VDP_STATE.values, method="Radau", rtol=1e-12,
                                  atol=1e-14, t_eval=times)
        assert ref.success
        peak = np.abs(ref.y).max(axis=1)
        assert np.all(np.abs(np.array([y for _, y, _ in steps]) - ref.y.T) <= 1e-6 * peak)

    def test_collocation_polynomial_spans_each_step(self):
        steps, _ = radau_run(van_der_pol_model(), self.VDP_STATE, 10.0, rtol=1e-6, atol=1e-9)
        y_prev = self.VDP_STATE.values
        for t, y, Y in steps:
            assert np.array_equal(integrate.collocation_output(Y, 0.0), y_prev)
            np.testing.assert_allclose(integrate.collocation_output(Y, 1.0), y,
                                       rtol=1e-13, atol=1e-15)
            y_prev = y

    def test_evaluation_error_in_a_stage_rejects_the_step(self):
        # the first stage of the first trial step raises: that Newton solve
        # fails, and the next trial is at half the step
        model, stage_times = raising_once_healthy_model()
        steps, counts = radau_run(model, StateVector(("T",), [0.0]), 5.0,
                                  params=ParameterSet(a=1, y=1))
        assert stage_times[1] == 0.5 * stage_times[0]
        assert counts["rejected"] >= 1
        assert steps[-1][1][0] == pytest.approx(linear_solution(1, 1, 0, 5.0), rel=1e-7)

    def test_non_finite_stages_end_in_a_blowup(self):
        # every stage after t = 0 is nan: each Newton solve stops at its
        # non-finite norm, the step halves down to its minimum, and the run
        # raises BlowupError, not StiffnessError
        base = make_base_model("healthy")

        def rhs(t, s, p):
            return base.rhs(t, s, p) * (math.nan if t > 0.0 else 1.0)

        model = dataclasses.replace(base, rhs=rhs)
        with pytest.raises(BlowupError, match="non-finite"):
            radau_run(model, StateVector(("T",), [0.5]), 5.0, params=ParameterSet(a=1, y=1))

    @pytest.mark.parametrize("t_end", [1.474, 1.542, 3.009, 7.681])
    def test_last_time_is_exactly_t_end(self, t_end):
        # at the fixed point the step grows 10x at a time, as in the
        # Dormand-Prince test of the same name
        steps, _ = radau_run(make_base_model("healthy"), StateVector(("T",), [1.0]), t_end,
                             params=ParameterSet(a=1, y=1))
        times = [t for t, _, _ in steps]
        assert times[-1] == t_end
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_budget_counts_every_trial(self, monkeypatch):
        # trials rejected for their error and the one whose Newton solve fails
        def run():
            return radau_run(raising_once_healthy_model()[0], StateVector(("T",), [0.0]),
                             5.0, params=ParameterSet(a=1, y=1))

        steps, counts = run()
        trials = len(steps) + counts["rejected"]
        monkeypatch.setattr(integrate, "MAX_STEPS", trials)
        assert run()[0][-1][0] == 5.0
        monkeypatch.setattr(integrate, "MAX_STEPS", trials - 1)
        with pytest.raises(StiffnessError, match=f"step budget of {trials - 1} exhausted"):
            run()

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_newton_matrix_is_the_complex_split(self, n):
        # the generated solves of the real system, on the first block, and
        # of the complex one, on the other two as real and imaginary parts,
        # solve the Newton matrix of the transformed stages,
        # Lambda / h (x) I - I (x) J, as the reference kernel's inverse does
        rng = np.random.default_rng(n)
        J, h = rng.normal(size=(n, n)), 0.1
        solve = lu_solver(n)
        v = rng.normal(size=3 * n)
        w = solve(integrate._MU_COMPLEX / h, J.tolist(), (v[n:2 * n] + 1j * v[2 * n:]).tolist())
        split = np.concatenate((solve(integrate._MU_REAL / h, J.tolist(), v[:n].tolist()),
                                np.real(w), np.imag(w)))
        eye = np.identity(n)
        newton = np.kron(RADAU_LAMBDA / h, eye) - np.kron(np.identity(3), J)
        np.testing.assert_allclose(newton.dot(split), v, rtol=0, atol=1e-13)
        M = _radau_newton_inverse(np.kron(RADAU_LAMBDA, eye), h, J)
        np.testing.assert_allclose(M.dot(v), split, rtol=1e-13, atol=0)

    def test_lambda_is_the_transformed_inverse_of_the_runge_kutta_matrix(self):
        s6 = 6 ** 0.5
        a = np.array((((88 - 7 * s6) / 360, (296 - 169 * s6) / 1800, (-2 + 3 * s6) / 225),
                      ((296 + 169 * s6) / 1800, (88 + 7 * s6) / 360, (-2 - 3 * s6) / 225),
                      ((16 - s6) / 36, (16 + s6) / 36, 1 / 9)))
        transformed = integrate._RADAU_TI.dot(np.linalg.inv(a)).dot(integrate._RADAU_T)
        np.testing.assert_allclose(transformed, RADAU_LAMBDA, atol=1e-14)

    def test_runs_are_bit_identical(self):
        kind = "cytokine-inversion"
        runs = []
        for _ in range(2):
            steps, counts = radau_run(make_mechanism_model(kind), default_state(kind), 50.0,
                                      params=default_params(kind))
            runs.append(([(t, y.tobytes(), Y.tobytes()) for t, y, Y in steps], counts))
        assert runs[0] == runs[1]


def test_a_model_without_a_jacobian_steps_by_dormand_prince_alone():
    # a hand-built model has no generated Jacobian: Radau and the
    # steady-state Newton iteration refuse it, Radau before its first step
    times = []

    def rhs(t, s, p):
        times.append(t)
        return p["a"] - p["y"] * s

    model = ModelSystem(name="hand-relaxation", state_names=("T",),
                        param_schema=(ParamSpec("a"), ParamSpec("y")), rhs=rhs)
    params, state0 = ParameterSet(a=1, y=1), StateVector(("T",), [0.0])
    with pytest.raises(UsageError, match="model 'hand-relaxation' has no Jacobian"):
        find_steady_state(model, params, state0)
    with pytest.raises(UsageError, match="model 'hand-relaxation' has no Jacobian"):
        sampled_radau_run(model, params, state0, [0.0, 1.0, 5.0], 1e-8, 1e-12)
    assert set(times) <= {0.0}  # at most the start's evaluation
    traj = integrate_adaptive(model, params, state0, 0.0, 5.0)
    assert traj.states[-1, 0] == pytest.approx(linear_solution(1, 1, 0, 5.0), rel=1e-7)


def radau_record(kernel, model, params, state0, t_end, rtol=1e-8, atol=1e-12):
    """The accepted steps ``(t_prev, t, h, y, Y)`` of ``kernel``'s run from
    t = 0, ``counts`` as it stood at each yield and at the end, and the
    error the run ends in."""
    steps, seen, counts, error = [], [], {}, None
    try:
        with np.errstate(all="ignore"):
            for t_prev, t, h, y, Y, counts in kernel(model, params, state0, 0.0, t_end,
                                                     rtol, atol):
                steps.append((t_prev, t, h, y, Y))
                seen.append(dict(counts))
    except QsslabError as exc:
        error = type(exc), str(exc)
    return steps, seen, dict(counts), error


class TestGeneratedRadauKernel:
    """``_radau_steps`` steps through the loop generated for the model's
    dimension; ``reference_radau_steps`` is the same kernel on numpy arrays.
    Python float sums round differently from numpy's small products, so
    the two must take the same steps, with the same counts at every yield,
    end alike, and store the same run to rounding."""

    @staticmethod
    def assert_same_steps(make, params, state0, t_end, **kwargs):
        """The runs of both kernels on a fresh model ``make()`` each."""
        steps, seen, counts, error = radau_record(_radau_steps, make(), params, state0,
                                                  t_end, **kwargs)
        ref_steps, *ref = radau_record(reference_radau_steps, make(), params, state0,
                                       t_end, **kwargs)
        assert [seen, counts, error] == ref and len(steps) == len(ref_steps)
        n = len(state0.values)
        # the state a list of floats, the polynomial four tuples of floats
        assert all(type(y) is list and [type(v) for v in y] == [float] * n
                   and type(Y) is tuple
                   and [[type(v) for v in row] for row in Y] == [[float] * n] * 4
                   for *_, y, Y in steps)
        if steps and error is None:
            assert steps[-1][1] == ref_steps[-1][1] == t_end
        return steps, counts, error

    @staticmethod
    def assert_same_stored_run(model, params, state0, times, rtol, atol):
        """``sampled_radau_run`` on both kernels: each state within 1e-12
        of its peak."""
        traj = sampled_radau_run(model, params, state0, times, rtol, atol)
        with mock.patch.object(integrate, "_radau_steps", reference_radau_steps):
            ref = sampled_radau_run(model, params, state0, times, rtol, atol)
        assert traj.solver_info == ref.solver_info
        assert np.all(np.abs(traj.states - ref.states) <= 1e-12 * np.abs(ref.states).max(axis=0))

    @pytest.mark.parametrize("kind", [k.value for k in MechanismKind])
    def test_mechanisms_at_the_claim_settings(self, kind):
        model, params, state0 = make_mechanism_model(kind), default_params(kind), default_state(kind)
        steps, counts, error = self.assert_same_steps(lambda: model, params, state0,
                                                      default_horizon(kind))
        assert error is None
        assert (len(steps), counts["rhs_evals"], counts["jac_evals"], counts["factorizations"]
                ) == TestMechanismKernel.RADAU_COUNTS[kind]
        self.assert_same_stored_run(model, params, state0, np.linspace(
            0.0, default_horizon(kind), MECHANISM_SAMPLES), 1e-8, 1e-12)

    def test_hand_built_models_through_the_adapter(self):
        # van der Pol (mu = 1000) and a mechanism, each with its rhs wrapped
        # as a tracer wraps it, keep their generated Jacobians
        kind = "bcell-depletion"
        for model, params, state0, t_end, rtol, atol in (
                (van_der_pol_model(), ParameterSet(), TestRadauKernel.VDP_STATE, 10.0,
                 1e-6, 1e-9),
                (make_mechanism_model(kind), default_params(kind), default_state(kind), 100.0,
                 1e-8, 1e-12)):
            model, calls = counting(model)
            assert not hasattr(model.rhs, "bind")
            steps, counts, error = self.assert_same_steps(lambda: model, params, state0, t_end,
                                                          rtol=rtol, atol=atol)
            assert error is None and len(steps) > 10 and calls
            self.assert_same_stored_run(model, params, state0, np.linspace(0.0, t_end, 257),
                                        rtol, atol)

    def test_stage_that_raises(self):
        # each run's rhs raises at its first call after t = 0
        stage_times = []

        def make():
            model, times = raising_once_healthy_model()
            stage_times.append(times)
            return model

        _, counts, error = self.assert_same_steps(make, ParameterSet(a=1, y=1),
                                                  StateVector(("T",), [0.0]), 5.0)
        assert error is None and counts["rejected"] >= 1
        # the trial whose stage raised is retried at half the step, in both
        first, ref_first = (times[:2] for times in stage_times)
        assert first == ref_first and first[1] == 0.5 * first[0]

    def test_non_finite_stages_end_in_a_blowup(self):
        base = make_base_model("healthy")

        def rhs(t, s, p):
            return base.rhs(t, s, p) * (math.nan if t > 0.0 else 1.0)

        model = dataclasses.replace(base, rhs=rhs)
        steps, _, error = self.assert_same_steps(lambda: model, ParameterSet(a=1, y=1),
                                                 StateVector(("T",), [0.5]), 5.0)
        assert error[0] is BlowupError and not steps

    @pytest.mark.parametrize("rows, rhs_evals, cause", [
        ([[1e300] * 4] * 4, 449, "singular Newton matrix"), (None, 569, "no Jacobian here")],
        ids=["singular", "nan"])
    def test_a_jacobian_without_a_newton_solve(self, rows, rhs_evals, cause):
        # from t = 50 on, bcell-depletion's Jacobian is a rank-one matrix
        # that absorbs any shift, so that the Newton matrix is singular
        # (LinAlgError: no iteration, no rhs call), or raises
        # EvaluationError (rows of nan: each iteration evaluates its three
        # stages and stops at a non-finite norm).  Every trial after the
        # first refresh past t = 50 fails, and the step halves to its
        # minimum.  Every state stayed finite, so the run ends for want of
        # a Newton solve, named by its cause, not in a blowup
        kind = "bcell-depletion"
        steps, counts, error = self.assert_same_steps(
            lambda: failing_jacobian_model(kind, 50.0, rows), default_params(kind),
            default_state(kind), default_horizon(kind))
        assert error == (NoConvergenceError, f"no Newton solve at t = 51.6556: {cause}")
        assert all(math.isfinite(v) for *_, y, _ in steps for v in y)
        assert (len(steps), counts["rejected"], counts["rhs_evals"], counts["jac_evals"],
                counts["factorizations"]) == (55, 44, rhs_evals, 8, 68)

    @pytest.mark.parametrize("spare", [0, 1])
    def test_step_budget(self, monkeypatch, spare):
        # the trials of the run, and one fewer
        args = (ParameterSet(a=1, y=1), StateVector(("T",), [0.0]), 5.0)
        steps, _, counts, _ = radau_record(_radau_steps, raising_once_healthy_model()[0], *args)
        trials = len(steps) + counts["rejected"]
        monkeypatch.setattr(integrate, "MAX_STEPS", trials - spare)
        _, _, error = self.assert_same_steps(lambda: raising_once_healthy_model()[0], *args)
        assert error == (None if spare == 0 else
                         (StiffnessError, f"step budget of {trials - 1} exhausted at t = "
                          f"{steps[-2][1]:g}"))

    def test_each_dimension_compiles_once(self):
        model, state0 = van_der_pol_model(), TestRadauKernel.VDP_STATE
        radau_run(model, state0, 1.0)
        before = _radau_kernel.cache_info()
        for _ in range(3):
            radau_run(model, state0, 1.0)
        after = _radau_kernel.cache_info()
        assert after.misses == before.misses and after.hits == before.hits + 3
        assert _radau_kernel(2) is _radau_kernel(2) is not _radau_kernel(1)

    def test_import_compiles_no_kernel(self):
        src = Path(integrate.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        code = ("import qsslab, qsslab.cli; from qsslab.integrate import _radau_kernel; "
                "print(_radau_kernel.cache_info().misses)")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0"


class TestSolverCounts:
    """``solver_info`` counts against counting wrappers."""

    def test_dopri_rhs_evals(self):
        model, calls = counting(make_base_model("coupled-agent"))
        traj = integrate_adaptive(model, ParameterSet(a=1, y=1, x=2, delta_D=4),
                                  StateVector(("T", "D"), [2.0, 1.0]), 0.0, 20.0)
        assert traj.solver_info["rhs_evals"] == len(calls)
        assert len(calls) == 1 + 6 * (traj.solver_info["accepted"]
                                      + traj.solver_info["rejected"])

    def test_dopri_rhs_evals_with_a_stage_that_raises(self):
        # the trial steps of TestAdaptive.test_non_finite_trial_step_is_rejected:
        # a stage overshoots to T < 0, where T**n raises for a fractional n
        params = ParameterSet(a=0.33014751191550706, y=0.29421304314213753,
                              gamma=96.0681310956346, n=2.205395261283672)
        base = make_base_model("power-destruction")
        raised = []

        def rhs(t, s, p):
            try:
                return base.rhs(t, s, p)
            except EvaluationError:
                raised.append(t)
                raise

        model, calls = counting(dataclasses.replace(base, rhs=rhs))
        traj = integrate_adaptive(model, params, StateVector(("T",), [16.745582880360338]),
                                  0.0, 2.387002511409681, rtol=1e-10, atol=1e-13)
        assert raised
        assert traj.solver_info["rhs_evals"] == len(calls)

    @staticmethod
    def _radau_counts(monkeypatch):
        """A bcell-depletion run's counts and the calls they count: rhs
        calls, Jacobians and the shifts of the generated LU's
        factorisations."""
        jacobians, shifts = [], []
        generated_lu = integrate._lu

        def counted_lu(n):
            lu = generated_lu(n)["lu"]
            return {"lu": lambda c, J: shifts.append(c) or lu(c, J)}

        monkeypatch.setattr(integrate, "_lu", counted_lu)
        kind = "bcell-depletion"
        model, calls = counting(make_mechanism_model(kind))
        bind_jacobian = model.jacobian

        def counted_jacobian(params):
            jac = bind_jacobian(params)
            return lambda t, values: jacobians.append(t) or jac(t, values)

        model = dataclasses.replace(model, jacobian=counted_jacobian)
        with np.errstate(all="ignore"):
            for *_, counts in _radau_steps(model, default_params(kind), default_state(kind),
                                           0.0, default_horizon(kind), 1e-8, 1e-12):
                pass
        return counts, calls, jacobians, shifts

    def test_radau_rhs_evals_with_a_stage_that_raises(self):
        # the first stage after t = 0 raises: that evaluation counts, and
        # the two stages of its Newton iteration that never ran do not
        model, stage_times = raising_once_healthy_model()
        model, calls = counting(model)
        _, counts = radau_run(model, StateVector(("T",), [0.0]), 5.0,
                              params=ParameterSet(a=1, y=1))
        assert counts["rejected"] >= 1 and len(stage_times) > 1
        assert counts["rhs_evals"] == len(calls)

    @staticmethod
    def assert_one_real_and_one_complex_lu_each(counts, shifts):
        # a factorisation is the real LU, then the complex one, of one h
        assert counts["factorizations"] > 2
        assert [type(c) for c in shifts] == [float, complex] * counts["factorizations"]
        for r, c in zip(shifts[::2], shifts[1::2]):
            assert integrate._MU_COMPLEX / c == pytest.approx(integrate._MU_REAL / r, rel=1e-14)

    def test_radau_counts(self, monkeypatch):
        counts, calls, jacobians, shifts = self._radau_counts(monkeypatch)
        assert counts["rhs_evals"] == len(calls)
        assert counts["jac_evals"] == len(jacobians) > 1
        self.assert_one_real_and_one_complex_lu_each(counts, shifts)


class CountingParams(Mapping):
    """A parameter mapping that counts the reads of each name."""

    def __init__(self, entries):
        self.entries = dict(entries)
        self.reads = {}

    def __getitem__(self, name):
        self.reads[name] = self.reads.get(name, 0) + 1
        return self.entries[name]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def _radau_to_end(model, params, state0, t0, t_end):
    with np.errstate(all="ignore"):
        for _ in _radau_steps(model, params, state0, t0, t_end, 1e-8, 1e-12):
            pass


class TestBoundRhs:
    """The solvers evaluate a model through ``ModelSystem.bind``: a compiled
    model's generated bound form, any other model's adapter.  The
    Dormand-Prince loop of a compiled model evaluates that bound form only
    at the start, and inlines it in its stages."""

    @pytest.mark.parametrize("solve,takes_jacobian,inlined", [
        (integrate_adaptive, False, True),
        (lambda *run: integrate_fixed(*run, 0.01), False, True),
        (_radau_to_end, True, False),
        (lambda model, params, state0, *_: find_steady_state(model, params, state0), True, False),
    ], ids=["dopri", "grid", "radau", "newton"])
    def test_a_run_reads_each_parameter_once(self, monkeypatch, solve, takes_jacobian, inlined):
        # each binder (the rhs's, and the generated Jacobian's where the
        # solver takes it) reads each parameter once from the mapping it is
        # given, however often the run evaluates what it bound; so does the
        # Dormand-Prince loop, which inlines a compiled rhs, from the
        # resolved parameters, and evaluates the bound rhs only at the start
        resolved, evaluations = [], []
        bound = {"rhs": [], "jacobian": []}  # the mapping each binder got
        resolve, bind = ModelSystem.resolve_params, ModelSystem.bind

        def counting_resolve(model, params):
            resolved.append(CountingParams(resolve(model, params)))
            return resolved[-1]

        def counting(name, binder):
            def counted(params):
                bound[name].append(CountingParams(params.entries))
                f = binder(bound[name][-1])
                return lambda t, values: evaluations.append(t) or f(t, values)
            return counted

        monkeypatch.setattr(ModelSystem, "resolve_params", counting_resolve)
        monkeypatch.setattr(ModelSystem, "bind",
                            lambda model, params: counting("rhs", bind.__get__(model))(params))
        model = make_base_model("coupled-agent")
        model = dataclasses.replace(model, jacobian=counting("jacobian", model.jacobian))
        solve(model, ParameterSet(a=1, y=1, x=2, delta_D=4),
              StateVector(("T", "D"), [2.0, 1.0]), 0.0, 5.0)
        once = {"a": 1, "y": 1, "x": 1, "delta_D": 1}
        assert len(resolved) == 1 and resolved[0].reads == (once if inlined else {})
        assert len(evaluations) == 1 if inlined else len(evaluations) > 20
        assert [m.reads for m in bound["rhs"]] == [once]
        assert [m.reads for m in bound["jacobian"]] == ([once] if takes_jacobian else [])

    def test_hand_built_model_steps_like_its_compiled_source(self):
        # the adapter around a hand-written rhs and the generated bound form
        # of the same equations, in the same order of operations
        compiled = make_base_model("coupled-agent")

        def rhs(t, values, p):
            T, D = values
            return np.array([p["a"] - p["y"] * T - D * T, p["x"] * T - p["delta_D"] * D])

        hand = ModelSystem(name="hand-built", state_names=("T", "D"),
                           param_schema=compiled.param_schema, rhs=rhs)
        assert hasattr(compiled.rhs, "bind") and not hasattr(hand.rhs, "bind")
        runs = [integrate_adaptive(m, ParameterSet(a=1, y=1, x=2, delta_D=4),
                                   StateVector(("T", "D"), [2.0, 1.0]), 0.0, 20.0)
                for m in (compiled, hand)]
        assert runs[0].solver_info == runs[1].solver_info
        assert runs[0].times.tobytes() == runs[1].times.tobytes()
        assert runs[0].states.tobytes() == runs[1].states.tobytes()


def _numpy_scalar_eval(expr, env):
    """``expr`` in numpy float64 scalar arithmetic (of the calls, the catalog
    files use only ``max``)."""
    if isinstance(expr, Num):
        return np.float64(expr.value)
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Neg):
        return -_numpy_scalar_eval(expr.operand, env)
    if isinstance(expr, Call):
        assert expr.func == "max"
        a, b = (_numpy_scalar_eval(arg, env) for arg in expr.args)
        return b if b > a else a
    ops = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
    return ops[expr.op](_numpy_scalar_eval(expr.left, env), _numpy_scalar_eval(expr.right, env))


class TestBuiltinRhs:
    """The catalog models' right-hand sides: compiled from their ``.qssm``
    files, with the language's one semantics -- IEEE doubles, and a typed
    ``EvaluationError`` at the file's line and column where a value is
    undefined."""

    @pytest.mark.parametrize("kind", all_kind_names())
    def test_returns_float64_vector(self, kind):
        model = make_model(kind)
        out = model.rhs(0.0, default_state(kind).values,
                        model.resolve_params(default_params(kind)))
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64 and out.shape == (model.dimension,)

    @pytest.mark.parametrize("kind", all_kind_names())
    def test_python_floats_match_numpy_scalars(self, kind):
        # the compiled rhs computes on Python floats; float64 scalars give the same bits
        model = make_model(kind)
        defn = parse_model(read_model_text(kind))
        p = model.resolve_params(default_params(kind))
        rng = np.random.default_rng(7)
        with np.errstate(all="raise"):
            for _ in range(20):
                state = default_state(kind).values * rng.uniform(0.5, 2.0, model.dimension)
                env = {"t": np.float64(3.0), **{k: np.float64(v) for k, v in p.items()},
                       **dict(zip(model.state_names, state))}
                reference = [_numpy_scalar_eval(defn.equations[n], env) for n in model.state_names]
                assert model.rhs(3.0, state, p).tobytes() == np.array(reference).tobytes()

    def test_fractional_power_of_negative_state_raises(self):
        model = make_base_model("power-destruction")
        with pytest.raises(EvaluationError, match="negative base") as excinfo:
            model.rhs(0.0, np.array([-0.5]), {"a": 1.0, "y": 1.0, "gamma": 1.0, "n": 2.5})
        assert excinfo.value.location == SourceLocation(8, 26)  # the '^' of gamma*T^n

    def test_overflowing_square_raises(self):
        model = make_base_model("logistic-source")
        with pytest.raises(EvaluationError, match="overflow") as excinfo:
            model.rhs(0.0, np.array([1e200]), {"a": 1.0, "y": 0.0, "gamma": 1.0})
        assert excinfo.value.location == SourceLocation(7, 26)

    @pytest.mark.parametrize("kind,zero_gate,location", [
        # T = -h_T zeroes the CD4 help gate's denominator h_T + T
        ("virulence-drift", lambda s, p: s.update(T=-p["h_T"]), SourceLocation(28, 31)),
        # K1 = 0, K2 = -kappa zero the cytokine share's K1 + K2 + kappa
        ("cytokine-inversion", lambda s, p: s.update(K1=0.0, K2=-p["kappa"]),
         SourceLocation(30, 14)),
    ], ids=["virulence-drift", "cytokine-inversion"])
    def test_zero_gate_denominator_raises(self, kind, zero_gate, location):
        model = make_model(kind)
        p = model.resolve_params(default_params(kind))
        state = default_state(kind).as_dict()
        zero_gate(state, p)
        with pytest.raises(EvaluationError, match="division by zero") as excinfo:
            model.rhs(0.0, np.array(list(state.values())), p)
        assert excinfo.value.location == location

    def test_humoral_niche_gate_at_zero_arms(self):
        # C = B = 0: the niche share is 0, as the hand-written rhs gave it,
        # not 0/0; the vector is that rhs's, bit for bit
        kind = "humoral-cellular-competition"
        model = make_model(kind)
        p = model.resolve_params(default_params(kind))
        state = default_state(kind).as_dict()
        state.update(C=0.0, B=0.0)
        out = model.rhs(0.0, np.array(list(state.values())), p)
        expected = np.array([0.0, 0.2924242424242424, 0.09484029484029488, 0.0, 0.0])
        assert out.tobytes() == expected.tobytes()

    def test_humoral_simulates_from_zero_arms(self, tmp_path):
        # without either arm the infection settles at T* = delta_I*c/(beta*pi)
        out = tmp_path / "traj.csv"
        assert run_cli(["simulate", "--model", "humoral-cellular-competition",
                        "--init", "C=0", "--init", "B=0", "--t-end", "50",
                        "--out", str(out)]) == 0
        last = out.read_text().splitlines()[-1].split(",")
        assert float(last[1]) == pytest.approx(1.0 / 24.0, rel=1e-6)

    def test_newton_trial_outside_the_domain_is_damped(self):
        # the first Newton trial from T = 3 lands at T ~ -0.296, where ln(T)
        # is undefined, and is halved like a nan one
        base = compile_model(parse_model("model lg\nstate T = 3\ndT/dt = -ln(T)\n"))
        raised = []

        def rhs(t, s, p):
            try:
                return base.rhs(t, s, p)
            except EvaluationError:
                raised.append(float(s[0]))
                raise

        model = dataclasses.replace(base, rhs=rhs)
        report = find_steady_state(model, ParameterSet(), StateVector(("T",), [3.0]))
        assert raised and min(raised) < 0.0
        assert report.method == "newton" and report.values["T"] == pytest.approx(1.0, abs=1e-12)
        assert report.relaxation_rate == pytest.approx(1.0, rel=1e-9)
