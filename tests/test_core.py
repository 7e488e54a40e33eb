import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsslab import (
    ParameterSet,
    StateVector,
    default_params,
    eval_rhs,
    make_base_model,
    validate,
)
from qsslab.errors import ParameterError, ShapeError

from closedform import steady_state_formula


class TestParameterSet:
    def test_lookup(self):
        p = ParameterSet(a=1.0, y=0.5)
        assert p["a"] == 1.0
        assert "y" in p and "gamma" not in p

    def test_undeclared_name_raises(self):
        with pytest.raises(ParameterError):
            ParameterSet(a=1.0)["gamma"]

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            ParameterSet(a=float("nan"))
        with pytest.raises(ParameterError):
            ParameterSet(a=float("inf"))

    def test_immutable(self):
        p = ParameterSet(a=1.0)
        with pytest.raises(AttributeError):
            p.entries = {}
        q = p.with_updates(a=2.0, y=3.0)
        assert p["a"] == 1.0 and q["a"] == 2.0 and q["y"] == 3.0


class TestStateVector:
    def test_basic(self):
        s = StateVector(("T", "D"), [1.0, 2.0])
        assert s["T"] == 1.0 and s["D"] == 2.0
        assert s.as_dict() == {"T": 1.0, "D": 2.0}

    def test_duplicate_names(self):
        with pytest.raises(ShapeError):
            StateVector(("T", "T"), [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            StateVector(("T",), [1.0, 2.0])

    def test_nonfinite(self):
        with pytest.raises(ShapeError):
            StateVector(("T",), [float("nan")])

    def test_unknown_component(self):
        with pytest.raises(ShapeError):
            StateVector(("T",), [1.0])["V"]


class TestEvalRhs:
    def test_healthy_steady_state_has_zero_derivative(self):
        model = make_base_model("healthy")
        out = eval_rhs(model, 0.0, StateVector(("T",), [4.0]), ParameterSet(a=2, y=0.5))
        assert out.values[0] == 0.0

    def test_empty_system_stays_empty(self):
        model = make_base_model("healthy")
        out = eval_rhs(model, 0.0, StateVector(("T",), [0.0]), ParameterSet(a=0, y=1))
        assert out.values[0] == 0.0

    def test_power_model_direct_substitution(self):
        model = make_base_model("power-destruction")
        out = eval_rhs(
            model, 0.0, StateVector(("T",), [2.0]), ParameterSet(a=1, y=1, gamma=1, n=2)
        )
        assert out.values[0] == -5.0

    def test_missing_parameter_names_the_parameter(self):
        model = make_base_model("healthy")
        with pytest.raises(ParameterError, match="y"):
            eval_rhs(model, 0.0, StateVector(("T",), [1.0]), ParameterSet(a=1))

    def test_dimension_mismatch(self):
        model = make_base_model("coupled-agent")
        with pytest.raises(ShapeError):
            eval_rhs(model, 0.0, StateVector(("T",), [1.0]),
                     ParameterSet(a=1, y=1, x=1, delta_D=1))

    def test_referential_transparency(self):
        model = make_base_model("power-destruction")
        params = ParameterSet(a=1.3, y=0.7, gamma=2.0, n=2.5)
        state = StateVector(("T",), [1.234])
        first = eval_rhs(model, 0.0, state, params).values
        second = eval_rhs(model, 0.0, state, params).values
        assert np.array_equal(first, second)


class TestValidate:
    def test_valid_combination(self):
        model = make_base_model("healthy")
        assert validate(model, ParameterSet(a=1, y=1), StateVector(("T",), [10.0])) == []

    def test_missing_parameter_reported(self):
        model = make_base_model("healthy")
        report = validate(model, ParameterSet(a=1), StateVector(("T",), [10.0]))
        assert len(report) == 1 and "y" in report[0]

    def test_power_exponent_constraint(self):
        model = make_base_model("power-destruction")
        report = validate(model, ParameterSet(a=1, y=1, gamma=1, n=0.5))
        assert any("n must be > 1" in v for v in report)

    def test_reports_every_violation(self):
        model = make_base_model("power-destruction")
        report = validate(
            model, ParameterSet(gamma=-1, n=0.5), StateVector(("T",), [-2.0])
        )
        # missing a, missing y, bad gamma, bad n, negative initial state
        assert len(report) == 5

    def test_undeclared_parameters_reported(self):
        # a model's parameters are exactly those its file declares
        model = make_base_model("healthy")
        report = validate(model, ParameterSet(a=1, y=1, b=0.25, delta_T=1.0))
        assert report == ["undeclared parameter 'b'", "undeclared parameter 'delta_T'"]

    def test_negative_y_allowed_only_in_logistic_proliferation(self):
        prolif = make_base_model("logistic-proliferation")
        assert validate(prolif, ParameterSet(a=1, y=-2, gamma=1)) == []
        healthy = make_base_model("healthy")
        assert validate(healthy, ParameterSet(a=1, y=-2)) != []


class TestSteadyStateZeroesRhs:
    @pytest.mark.parametrize(
        "kind", ["healthy", "linear-destruction", "coupled-agent",
                 "logistic-source", "logistic-proliferation"]
    )
    def test_catalog_defaults(self, kind):
        model = make_base_model(kind)
        params = default_params(kind)
        value = steady_state_formula(kind, params)
        if isinstance(value, tuple):
            state = StateVector(model.state_names, list(value))
        else:
            state = StateVector(model.state_names, [value])
        residual = np.max(np.abs(eval_rhs(model, 0.0, state, params).values))
        assert residual <= 1e-12


@given(
    a=st.floats(0.0, 10.0),
    y=st.floats(0.01, 10.0),
    gamma=st.floats(0.0, 10.0),
    n=st.floats(1.01, 4.0),
    T=st.floats(0.0, 50.0),
)
@settings(max_examples=100, deadline=None)
def test_valid_inputs_never_raise(a, y, gamma, n, T):
    model = make_base_model("power-destruction")
    params = ParameterSet(a=a, y=y, gamma=gamma, n=n)
    state = StateVector(("T",), [T])
    assert validate(model, params, state) == []
    with np.errstate(over="ignore"):
        out = eval_rhs(model, 0.0, state, params)
    assert len(out) == 1
    assert math.isfinite(out.values[0]) or T > 0  # overflow only for huge T^n
