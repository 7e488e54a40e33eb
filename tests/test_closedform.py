import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsslab import ParameterSet, StateVector, eval_rhs, integrate_adaptive, make_base_model
from qsslab.errors import DomainError, UnsupportedKindError

from closedform import (
    initial_slope,
    linear_destruction_solution,
    linear_solution,
    logistic_solution,
    power_approx_steady,
    relaxation_rate,
    steady_state_formula,
)


def bisect_root(f, lo, hi, iters=200):
    """Independent bisection oracle used throughout this module."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


class TestLinearSolution:
    def test_initial_condition(self):
        assert linear_solution(1, 1, 0, 0) == 0.0

    def test_steady_start_stays(self):
        for t in (0.0, 0.5, 3.0, 100.0):
            assert linear_solution(2, 0.5, 4.0, t) == pytest.approx(4.0, abs=1e-14)

    def test_direct_value(self):
        assert linear_solution(1, 1, 0, 1) == pytest.approx(1 - math.exp(-1), abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            linear_solution(1, 0, 0, 1)
        with pytest.raises(DomainError):
            linear_solution(1, 1, 0, -0.1)


class TestLinearDestructionSolution:
    def test_long_time_limit(self):
        assert linear_destruction_solution(10, 1, 1, 10, 50) == pytest.approx(5.0, abs=1e-12)

    def test_gamma_zero_reduces_to_linear(self):
        for t in np.linspace(0, 5, 11):
            assert linear_destruction_solution(2, 0.7, 0.0, 3.0, t) == linear_solution(2, 0.7, 3.0, t)

    def test_direct_value(self):
        expected = 5 + 5 * math.exp(-2)
        assert linear_destruction_solution(10, 1, 1, 10, 1) == pytest.approx(expected, abs=1e-15)


class TestLogisticSolution:
    def test_source_steady_start_stays(self):
        for t in (0, 1, 7.3, 200):
            assert logistic_solution(4, 0, 1, 2, t) == pytest.approx(2.0, abs=1e-12)

    def test_proliferation_steady_start_stays(self):
        for t in (0, 1, 7.3, 200):
            assert logistic_solution(0, 2, 1, 2, t) == pytest.approx(2.0, abs=1e-12)

    def test_matches_adaptive_integrator(self):
        # oracle: integrate the quadratic model at rtol 1e-10
        model = make_base_model("logistic-proliferation")
        params = ParameterSet(a=1, y=1, gamma=1)
        traj = integrate_adaptive(model, params, StateVector(("T",), [0.0]), 0.0, 10.0,
                                  rtol=1e-10, atol=1e-13)
        worst = max(
            abs(T - logistic_solution(1, 1, 1, 0.0, t))
            for t, T in zip(traj.times, traj.component("T"))
        )
        assert worst <= 1e-8

    def test_unstable_root_start_stays(self):
        assert logistic_solution(0, 2, 1, 0.0, 5.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            logistic_solution(1, 1, 0, 1, 1)
        with pytest.raises(DomainError):
            logistic_solution(0, -1, 1, 1, 1)
        with pytest.raises(DomainError):
            logistic_solution(-1, 1, 1, 1, 1)


class TestSteadyStateFormula:
    def test_healthy(self):
        assert steady_state_formula("healthy", ParameterSet(a=2, y=0.5)) == 4.0

    def test_linear_destruction(self):
        assert steady_state_formula("linear-destruction", ParameterSet(a=10, y=1, gamma=1)) == 5.0

    def test_logistic_source(self):
        assert steady_state_formula("logistic-source", ParameterSet(a=4, gamma=1)) == 2.0

    def test_logistic_proliferation(self):
        assert steady_state_formula("logistic-proliferation", ParameterSet(y=2, gamma=1)) == 2.0

    def test_coupled_agent_pair(self):
        T_star, D_star = steady_state_formula(
            "coupled-agent", ParameterSet(a=1, y=1, x=1, delta_D=1)
        )
        assert T_star == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-14)
        assert D_star == pytest.approx(T_star, abs=1e-14)

    def test_power_destruction_refuses(self):
        with pytest.raises(UnsupportedKindError, match="power_approx_steady"):
            steady_state_formula("power-destruction", ParameterSet(a=1, y=1, gamma=1, n=2))

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_formula_zeroes_rhs_on_grid(self, a, y, gamma):
        cases = {
            "healthy": ParameterSet(a=a, y=y),
            "linear-destruction": ParameterSet(a=a, y=y, gamma=gamma),
            "coupled-agent": ParameterSet(a=a, y=y, x=gamma, delta_D=1.0),
            "logistic-source": ParameterSet(a=a, y=0.0, gamma=gamma),
            "logistic-proliferation": ParameterSet(a=a, y=y, gamma=gamma),
        }
        for kind, params in cases.items():
            model = make_base_model(kind)
            value = steady_state_formula(kind, params)
            values = list(value) if isinstance(value, tuple) else [value]
            out = eval_rhs(model, 0.0, StateVector(model.state_names, values), params)
            assert np.max(np.abs(out.values)) <= 1e-12, kind


class TestPowerApproxSteady:
    def test_reference_point(self):
        assert power_approx_steady(1, 1, 1, 2) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_exact_at_n_equal_one(self):
        for a, y, g in [(1, 1, 1), (2, 0.5, 3), (0.3, 2, 0.1)]:
            assert power_approx_steady(a, y, g, 1) == pytest.approx(a / (y + g), abs=1e-15)

    def test_gap_to_true_root(self):
        true_root = bisect_root(lambda T: 1 - T - T * T, 0.0, 1.0)
        assert true_root == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-12)
        gap = power_approx_steady(1, 1, 1, 2) - true_root
        assert gap == pytest.approx(0.0486, abs=5e-4)

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("n", [2.0, 3.0, 4.0])
    def test_approximation_upper_bounds_true_root(self, gamma, n):
        # observed property, verified against the bisection oracle
        a = y = 1.0
        true_root = bisect_root(lambda T: a - y * T - gamma * T**n, 0.0, a / y)
        assert power_approx_steady(a, y, gamma, n) >= true_root

    def test_domain(self):
        with pytest.raises(DomainError):
            power_approx_steady(1, 0, 1, 2)
        with pytest.raises(DomainError):
            power_approx_steady(1, 1, 1, 0.5)


class TestRelaxationRate:
    def test_healthy(self):
        assert relaxation_rate("healthy", ParameterSet(a=1, y=1)) == 1.0

    def test_linear_destruction_is_faster(self):
        assert relaxation_rate("linear-destruction", ParameterSet(a=1, y=1, gamma=1)) == 2.0

    def test_power_destruction_refuses(self):
        # no exact rate: find_steady_state linearises at the root it finds
        with pytest.raises(UnsupportedKindError, match="find_steady_state"):
            relaxation_rate("power-destruction", ParameterSet(a=1, y=1, gamma=1, n=2))
        with pytest.raises(UnsupportedKindError, match="find_steady_state"):
            relaxation_rate("coupled-agent", ParameterSet(a=1, y=1, x=1, delta_D=1))

    def test_logistic_source_rate(self):
        assert relaxation_rate("logistic-source", ParameterSet(a=4, gamma=1)) == pytest.approx(4.0)

    def test_logistic_proliferation_rate(self):
        assert relaxation_rate("logistic-proliferation", ParameterSet(y=2, gamma=1)) == pytest.approx(2.0)


class TestInitialSlope:
    def test_source_zero_at_steady_state(self):
        assert initial_slope("logistic-source", ParameterSet(a=4, gamma=1), 2.0) == 0.0

    def test_source_pure_decay(self):
        assert initial_slope("logistic-source", ParameterSet(a=0, gamma=1), 1.0) == -1.0

    def test_proliferation_matches_model_rhs(self):
        model = make_base_model("logistic-proliferation")
        params = ParameterSet(a=0, y=2, gamma=1)
        slope = initial_slope("logistic-proliferation", params, 3.0)
        rhs = eval_rhs(model, 0.0, StateVector(("T",), [3.0]), params).values[0]
        assert slope == rhs == -3.0

    def test_wrong_kind(self):
        with pytest.raises(UnsupportedKindError):
            initial_slope("healthy", ParameterSet(a=1, y=1), 1.0)


@given(
    a=st.floats(0.0, 5.0),
    y=st.floats(0.05, 5.0),
    T0=st.floats(0.0, 10.0),
    s=st.floats(0.0, 5.0),
    t=st.floats(0.0, 5.0),
)
@settings(max_examples=150, deadline=None)
def test_semigroup_property(a, y, T0, s, t):
    stepped = linear_solution(a, y, linear_solution(a, y, T0, s), t)
    direct = linear_solution(a, y, T0, s + t)
    assert stepped == pytest.approx(direct, abs=1e-12, rel=1e-12)


@given(
    a=st.floats(0.0, 5.0),
    y=st.floats(0.05, 5.0),
    gamma=st.floats(0.0, 5.0),
    T0=st.floats(0.0, 10.0),
    s=st.floats(0.0, 5.0),
    t=st.floats(0.0, 5.0),
)
@settings(max_examples=150, deadline=None)
def test_semigroup_property_with_destruction(a, y, gamma, T0, s, t):
    stepped = linear_destruction_solution(
        a, y, gamma, linear_destruction_solution(a, y, gamma, T0, s), t
    )
    direct = linear_destruction_solution(a, y, gamma, T0, s + t)
    assert stepped == pytest.approx(direct, abs=1e-12, rel=1e-12)


@given(
    a=st.floats(0.1, 5.0),
    y=st.floats(0.05, 5.0),
    T0=st.floats(0.0, 10.0),
    t1=st.floats(0.001, 5.0),
    dt=st.floats(0.001, 5.0),
)
@settings(max_examples=150, deadline=None)
def test_monotone_approach(a, y, T0, t1, dt):
    T_star = a / y
    if abs(T0 - T_star) < 1e-9:
        return
    d1 = abs(linear_solution(a, y, T0, t1) - T_star)
    d2 = abs(linear_solution(a, y, T0, t1 + dt) - T_star)
    assert d2 < d1
