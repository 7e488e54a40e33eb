import math

import numpy as np
import pytest

from qsslab import (
    ParameterSet,
    StateVector,
    default_params,
    default_state,
    find_steady_state,
    integrate_adaptive,
    integrate_fixed,
    linear_solution,
    logistic_solution,
    make_base_model,
    make_model,
    qss_reduce,
)
from qsslab.catalog import MechanismKind, all_kind_names
from qsslab.claims import mechanism_trajectory
from qsslab.core import ModelSystem, ParamSpec
from qsslab.errors import BlowupError, DomainError, StiffnessError, ValidationError
from qsslab.integrate import Trajectory, _dopri_steps, dense_output


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

    def test_fourth_order_convergence(self):
        model = make_base_model("healthy")
        params = ParameterSet(a=1, y=1)
        state0 = StateVector(("T",), [0.0])

        def endpoint_error(dt):
            traj = integrate_fixed(model, params, state0, 0.0, 5.0, dt)
            return abs(traj.component("T")[-1] - linear_solution(1, 1, 0, 5.0))

        ratio = endpoint_error(0.25) / endpoint_error(0.125)
        assert ratio >= 15.5  # order >= log2(15.5) ~ 3.95

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

    def test_blowup_raises_with_time(self):
        model = blowup_model()
        with pytest.raises(BlowupError) as excinfo:
            integrate_fixed(model, ParameterSet(g=1.0), StateVector(("T",), [1.0]),
                            0.0, 3.0, 0.1)
        assert 0.0 < excinfo.value.time <= 3.0

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
            return [(t_prev, t, h, y, Y.copy()) for t_prev, t, h, y, Y, _ in _dopri_steps(
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
            assert dense_output(Y, y, h, 0.0)[0] == Y[0, 0]
            assert dense_output(Y, y, h, 1.0)[0] == pytest.approx(y[0], abs=1e-15 * abs(Y[0, 0]))

    def test_interior_error_is_of_the_order_of_the_tolerance(self):
        errors = [
            abs(dense_output(Y, y, h, theta)[0]
                - forced_decay_solution(1.0, t_prev + theta * h))
            for t_prev, t, h, y, Y in self.steps(rtol=1e-8)
            for theta in (0.25, 0.5, 0.75)
        ]
        assert 1e-12 < max(errors) < 5e-8

    def test_one_component_as_floats(self):
        model = make_base_model("coupled-agent")
        state0 = StateVector(("T", "D"), [2.0, 1.0])
        with np.errstate(all="ignore"):
            t_prev, t, h, y, Y, _ = next(_dopri_steps(
                model, ParameterSet(a=1, y=1, x=1, delta_D=1), state0, 0.0, 5.0, 1e-8, 1e-12))
        for j in range(2):
            column = dense_output(Y[:, j].tolist(), float(y[j]), h, 0.3)
            assert column == pytest.approx(dense_output(Y, y, h, 0.3)[j], rel=1e-15)


class TestStepBudget:
    def test_fixed_step_refuses_more_steps_than_the_budget(self):
        # checked before the first step: the run would otherwise take ~1e300 steps
        with pytest.raises(DomainError, match="needs more than"):
            integrate_fixed(make_base_model("healthy"), ParameterSet(a=1, y=1),
                            StateVector(("T",), [1.0]), 0.0, 1.0, 1e-300)


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
    """The Dormand-Prince kernel on the four mechanisms at the claim settings."""

    # accepted steps per mechanism at rtol 1e-8, atol 1e-12
    BASELINE_STEPS = {
        "virulence-drift": 4521,
        "cytokine-inversion": 6647,
        "humoral-cellular-competition": 6316,
        "bcell-depletion": 24080,
    }

    @pytest.mark.parametrize("kind", [k.value for k in MechanismKind])
    def test_accepted_steps_do_not_grow(self, kind):
        _, _, traj = mechanism_trajectory(kind)
        assert traj.solver_info["accepted"] <= 1.10 * self.BASELINE_STEPS[kind]

    @pytest.mark.parametrize("kind", [k.value for k in MechanismKind])
    def test_agrees_with_scipy_radau(self, kind):
        integrate = pytest.importorskip("scipy.integrate")
        model, params, traj = mechanism_trajectory(kind)
        p = model.resolve_params(params)
        picks = np.linspace(1, len(traj) - 1, 10).astype(int)
        ref = integrate.solve_ivp(
            lambda t, y: model.rhs(t, y, p), (traj.times[0], traj.times[-1]),
            traj.states[0], method="Radau", rtol=1e-11, atol=1e-14,
            t_eval=traj.times[picks],
        )
        assert ref.success
        T = traj.component("T")[picks]
        np.testing.assert_allclose(T, ref.y[0], rtol=1e-6)


class TestBuiltinRhs:
    @pytest.mark.parametrize("kind", all_kind_names())
    def test_returns_float64_vector(self, kind):
        model = make_model(kind)
        out = model.rhs(0.0, default_state(kind).values,
                        model.resolve_params(default_params(kind)))
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64 and out.shape == (model.dimension,)

    @pytest.mark.parametrize("kind", all_kind_names())
    def test_python_floats_match_numpy_scalars(self, kind):
        # the undecorated rhs on an array computes on float64 scalars
        model = make_model(kind)
        p = model.resolve_params(default_params(kind))
        rng = np.random.default_rng(7)
        for _ in range(20):
            state = default_state(kind).values * rng.uniform(0.5, 2.0, model.dimension)
            reference = np.array(model.rhs.__wrapped__(3.0, state, p), dtype=float)
            assert np.array_equal(model.rhs(3.0, state, p), reference)

    def test_fractional_power_of_negative_state_is_nan(self):
        model = make_base_model("power-destruction")
        out = model.rhs(0.0, np.array([-0.5]), {"a": 1.0, "y": 1.0, "gamma": 1.0, "n": 2.5})
        assert out.dtype == np.float64 and math.isnan(out[0])

    def test_overflowing_square_is_infinite(self):
        model = make_base_model("logistic-source")
        out = model.rhs(0.0, np.array([1e200]), {"a": 1.0, "y": 0.0, "gamma": 1.0})
        assert out[0] == -math.inf

    @pytest.mark.parametrize("kind,zero_gate", [
        # T = -h_T zeroes the CD4 help gate's denominator h_T + T
        ("virulence-drift", lambda s, p: s.update(T=-p["h_T"])),
        # K1 = 0, K2 = -kappa zero the cytokine share's K1 + K2 + kappa
        ("cytokine-inversion", lambda s, p: s.update(K1=0.0, K2=-p["kappa"])),
    ])
    def test_zero_gate_denominator_is_not_an_exception(self, kind, zero_gate):
        model = make_model(kind)
        p = model.resolve_params(default_params(kind))
        state = default_state(kind).as_dict()
        zero_gate(state, p)
        out = model.rhs(0.0, np.array(list(state.values())), p)
        assert out.dtype == np.float64 and not np.all(np.isfinite(out))
