import dataclasses
import hashlib
import importlib.resources
import inspect
import math
import random
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsslab import (
    ParameterSet,
    ParamSpec,
    StateVector,
    all_kind_names,
    compile_model,
    default_params,
    eval_rhs,
    find_steady_state,
    integrate_adaptive,
    make_model,
    parse_model,
)
from qsslab import derivatives, dsl
from qsslab.dsl import (
    MAX_DEPTH,
    BinOp,
    Call,
    ModelDefinition,
    Neg,
    Num,
    SourceLocation,
    StateDecl,
    Var,
    default_initial_state,
    format_expr,
    format_model,
    parse_expression,
)
from qsslab.errors import (
    EvaluationError,
    ParseError,
    QsslabError,
    SemanticError,
)

from evaluator import BindingError, eval_expr

CATALOG_FILES = (
    "healthy",
    "linear-destruction",
    "coupled-agent",
    "power-destruction",
    "logistic-source",
    "logistic-proliferation",
    "virulence-drift",
    "cytokine-inversion",
    "humoral-cellular-competition",
    "bcell-depletion",
)


def read_model_text(name):
    return (importlib.resources.files("qsslab") / "models" / f"{name}.qssm").read_text()


MALFORMED = [
    # lexical / syntactic -- must raise ParseError with a location
    "model m\nstate T = 1\ndT/dt = a - y*T -\n",
    "model m\nstate T 1\ndT/dt = 0\n",
    "state = 1\ndT/dt = 0\n",
    "param 3x = 1\ndT/dt = 0\n",
    "state T = 1\ndT/dt 0\n",
    "state T = 1\ndT/dt = (1 + 2\n",
    "state T = 1\ndT/dt = 1 @ 2\n",
    "state T = 1\ndT/dt = 1..2\n",
    "state T = 1\ndT/dt = 1 +* 2\n",
    ") + 1\n",
    "state T = 1\ndT/dt = min(1, 2\n",
    "state T = 1\ndT/dt = 0 extra\n",
    # semantic -- must raise SemanticError listing the offense(s)
    "state T = 1\ndT/dt = a - y*T; dT/dt = 0\n",
    "state T = 1\nstate T = 2\ndT/dt = 0\n",
    "state T = 1\ndT/dt = foo(T)\n",
    "state T = 1\ndT/dt = min(T)\n",
    "state T = 1\nstate V = 2\ndT/dt = 0\n",
    "state t = 1\ndt/dt = 0\n",
]


class TestExpressionSemantics:
    def test_power_is_right_associative(self):
        assert eval_expr(parse_expression("2^3^2"), {}) == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        assert eval_expr(parse_expression("-T^2"), {"T": 3.0}) == -9.0

    def test_simple_binding(self):
        assert eval_expr(parse_expression("a - y*T"), {"a": 1, "y": 1, "T": 1}) == 0.0

    def test_negative_exponent_after_caret(self):
        assert eval_expr(parse_expression("2^-3"), {}) == 0.125

    def test_division_precedence(self):
        assert eval_expr(parse_expression("1 - 4/2/2"), {}) == 0.0

    def test_functions(self):
        assert eval_expr(parse_expression("min(3, max(1, 2))"), {}) == 2.0
        assert eval_expr(parse_expression("sqrt(tanh(0) + 4)"), {}) == 2.0
        assert eval_expr(parse_expression("ln(exp(2))"), {}) == pytest.approx(2.0)

    def test_unbound_identifier(self):
        with pytest.raises(BindingError, match="gamma"):
            eval_expr(parse_expression("gamma*T"), {"T": 1.0})

    def test_division_by_zero_has_location(self):
        with pytest.raises(EvaluationError) as excinfo:
            eval_expr(parse_expression("1/(T-T)"), {"T": 2.0})
        assert excinfo.value.location is not None

    def test_negative_base_fractional_exponent(self):
        with pytest.raises(EvaluationError):
            eval_expr(parse_expression("(0-2)^0.5"), {})

    def test_log_domain(self):
        with pytest.raises(EvaluationError):
            eval_expr(parse_expression("ln(0-1)"), {})


class TestParseModel:
    def test_trailing_operator_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse_model("model m\nstate T = 1\ndT/dt = a - y*T -\n")
        assert excinfo.value.location.line == 3
        assert excinfo.value.expected

    def test_duplicate_equation_reported(self):
        with pytest.raises(SemanticError) as excinfo:
            parse_model("state T = 1\nparam a = 1\ndT/dt = a; dT/dt = 0\n")
        assert any("duplicate equation for T" in m for m in excinfo.value.messages)

    def test_all_offenses_listed(self):
        source = "state T = 1\ndT/dt = b * c\ndV/dt = 1\n"
        with pytest.raises(SemanticError) as excinfo:
            parse_model(source)
        messages = " | ".join(excinfo.value.messages)
        assert "undeclared identifier b" in messages
        assert "undeclared identifier c" in messages
        assert "equation for undeclared state V" in messages

    @pytest.mark.parametrize("source", MALFORMED)
    def test_malformed_corpus_rejected(self, source):
        with pytest.raises((ParseError, SemanticError)) as excinfo:
            parse_model(source)
        if isinstance(excinfo.value, ParseError):
            assert excinfo.value.location.line >= 1
            assert excinfo.value.location.column >= 1

    def test_time_symbol_usable_but_not_declarable(self):
        defn = parse_model("state T = 1\nparam r = 1\ndT/dt = r*t - T\n")
        assert compile_model(defn).time_dependent
        with pytest.raises(SemanticError):
            parse_model("state T = 1\nparam t = 1\ndT/dt = 0\n")

    def test_comments_and_crlf(self):
        defn = parse_model("model m # name\r\nstate T = 1 # start\r\ndT/dt = 0 - T\r\n")
        assert defn.name == "m"
        assert defn.states[0].initial == 1.0

    def test_lower_bound_clause(self):
        defn = parse_model("state T = 1\nparam a = 1 nonneg\nparam b >= 0\nparam y = 1 > 0\n"
                           "param n = 2 > 1\nparam s >= -2.5\nparam z\ndT/dt = 0\n")
        bounds = {p.name: (p.minimum, p.exclusive, p.nonneg) for p in defn.params}
        assert bounds == {"a": (0.0, False, True), "b": (0.0, False, True),
                          "y": (0.0, True, False), "n": (1.0, True, False),
                          "s": (-2.5, False, False), "z": (None, False, False)}
        assert defn.params[0] == ParamSpec("a", 0.0, False, 1.0) == parse_model(
            "state T = 1\nparam a = 1 >= 0\ndT/dt = 0\n").params[0]
        schema = {spec.name: spec for spec in compile_model(defn).param_schema}
        assert schema["n"].check(1.0) == "n must be > 1, got 1"
        assert schema["s"].check(-2.5) is None and schema["z"].minimum is None

    @pytest.mark.parametrize("source", [
        "state T = 1\nparam a = 1 nonneg > 0\ndT/dt = 0\n",  # one clause only
        "state T = 1\nparam a = 1 >\ndT/dt = 0\n",
        "state T = 1\nparam a = 1 < 2\ndT/dt = 0\n",
        "state T = 1\nparam a\nslow\ndT/dt = 0\n",
        "state T = 1\nparam a\nslow a,\ndT/dt = 0\n",
        "state T = 1\ndT/dt = T > 0\n",
    ])
    def test_malformed_bound_or_slow_clause(self, source):
        with pytest.raises(ParseError):
            parse_model(source)

    def test_slow_rates_keep_their_order(self):
        defn = parse_model("state T = 1\nparam r\nparam d\nslow d, r\ndT/dt = 0 - d*r*T\n")
        assert defn.slow == ("d", "r")
        assert compile_model(defn).slow_rate_params == ("d", "r")
        with pytest.raises(SemanticError) as excinfo:
            parse_model("state T = 1\nparam r\nslow r, q; slow r\ndT/dt = 0\n")
        assert excinfo.value.messages == ["duplicate slow rate r",
                                          "slow rate q is not a declared parameter"]

    def test_equations_are_read_only_and_a_rejected_text_raises_every_time(self):
        defn = parse_model(read_model_text("bcell-depletion"))
        with pytest.raises(TypeError):
            defn.equations["T"] = Num(0.0)
        for source in (MALFORMED[0], MALFORMED[-1]):
            for _ in range(2):
                with pytest.raises((ParseError, SemanticError)):
                    parse_model(source)


class TestCompile:
    def test_zero_equations_give_zero_vector(self):
        defn = parse_model("state T = 1\nstate V = 2\ndT/dt = 0\ndV/dt = 0\n")
        model = compile_model(defn)
        assert np.array_equal(model.rhs(0.0, np.array([3.0, 4.0]), {}), [0.0, 0.0])
        assert not model.time_dependent

    def test_time_reference_sets_flag(self):
        defn = parse_model("state T = 1\ndT/dt = 0 - t*T\n")
        assert compile_model(defn).time_dependent

    def test_compiled_healthy_matches_catalog(self):
        defn = parse_model(read_model_text("healthy"))
        compiled = compile_model(defn)
        builtin = make_model("healthy")
        rng = random.Random(7)
        for _ in range(100):
            T = rng.uniform(0, 10)
            params = {"a": rng.uniform(0, 5), "y": rng.uniform(0.01, 5)}
            delta = abs(
                compiled.rhs(0.0, np.array([T]), params)[0]
                - builtin.rhs(0.0, np.array([T]), params)[0]
            )
            assert delta <= 1e-12

    @pytest.mark.parametrize("name", CATALOG_FILES)
    def test_all_shipped_files_match_catalog(self, name):
        compiled = compile_model(parse_model(read_model_text(name)))
        builtin = make_model(name)
        assert compiled.state_names == builtin.state_names
        rng = random.Random(hash(name) % (2**31))
        defaults = default_params(name)
        for _ in range(100):
            values = np.array([rng.uniform(0.0, 5.0) for _ in builtin.state_names])
            params = {k: rng.uniform(0.05, 3.0) for k in defaults}
            if "n" in params:
                params["n"] = rng.uniform(1.1, 4.0)
            delta = np.max(np.abs(
                compiled.rhs(0.0, values, params) - builtin.rhs(0.0, values, params)
            ))
            assert delta <= 1e-12

    def test_compiled_model_integrates(self):
        from closedform import linear_destruction_solution
        from qsslab import integrate_adaptive

        defn = parse_model(read_model_text("linear-destruction"))
        model = compile_model(defn)
        params = ParameterSet(a=10, y=1, gamma=1)
        traj = integrate_adaptive(model, params, StateVector(("T",), [10.0]), 0.0, 5.0)
        expected = linear_destruction_solution(10, 1, 1, 10.0, 5.0)
        assert traj.component("T")[-1] == pytest.approx(expected, abs=1e-6)

    def test_the_parsed_declarations_are_the_schema(self):
        defn = parse_model("state T = 1\nparam a = 1 nonneg\nparam y = 2 > 0\n"
                           "param n = 3 >= 1\nparam z\ndT/dt = a - y*T + z\n")
        assert compile_model(defn).param_schema is defn.params
        # nonneg is the bound >= 0 alone, the one format_model spells so
        assert [p.nonneg for p in defn.params] == [True, False, False, False]
        assert format_model(defn).splitlines()[2:6] == [
            "param a = 1.0 nonneg", "param y = 2.0 > 0.0", "param n = 3.0 >= 1.0", "param z"]
        assert dsl.default_params(defn) == ParameterSet(a=1, y=2, n=3)

    def test_nonneg_flag_enters_schema(self):
        defn = parse_model("state T = 1\nparam a = 1 nonneg\nparam z\ndT/dt = a*z - T\n")
        model = compile_model(defn)
        by_name = {s.name: s for s in model.param_schema}
        assert by_name["a"].nonneg and by_name["a"].default == 1.0
        assert by_name["z"].minimum is None and by_name["z"].default is None
        report = eval_rhs(model, 0.0, StateVector(("T",), [1.0]), ParameterSet(a=2, z=3))
        assert report.values[0] == 5.0


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

_ident = st.sampled_from(["a", "y", "gamma", "T", "V", "x1", "t"])
_number = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False).map(
    lambda v: round(v, 6)
)


def _exprs(depth):
    if depth == 0:
        return st.one_of(_number.map(Num), _ident.map(Var))
    sub = _exprs(depth - 1)
    return st.one_of(
        _number.map(Num),
        _ident.map(Var),
        sub.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda t: BinOp(*t)),
        st.tuples(st.sampled_from(["exp", "ln", "sqrt", "tanh"]), sub).map(
            lambda t: Call(t[0], (t[1],))
        ),
        st.tuples(st.sampled_from(["min", "max"]), sub, sub).map(
            lambda t: Call(t[0], (t[1], t[2]))
        ),
    )


@given(_exprs(4))
@settings(max_examples=300, deadline=None)
def test_format_parse_round_trip(expr):
    text = format_expr(expr)
    reparsed = parse_expression(text)
    assert reparsed == expr  # locations excluded from equality


@given(st.text(max_size=80))
@settings(max_examples=300, deadline=None)
def test_parser_totality(text):
    # no input crashes or hangs: every failure is a located qsslab error
    try:
        parse_model(text)
    except QsslabError:
        pass


def test_model_round_trip():
    for name in CATALOG_FILES:
        defn = parse_model(read_model_text(name))
        again = parse_model(format_model(defn))
        assert again.name == defn.name
        assert again.states == defn.states
        assert again.params == defn.params
        assert again.equations == defn.equations


def test_packaged_models_are_the_catalog():
    # one .qssm file per catalog kind, named after its model
    files = importlib.resources.files("qsslab") / "models"
    names = sorted(f.name[:-5] for f in files.iterdir() if f.name.endswith(".qssm"))
    assert names == sorted(all_kind_names())
    for name in names:
        assert parse_model(read_model_text(name)).name == name


# ---------------------------------------------------------------------------
# Generated code against the tree-walking evaluator
# ---------------------------------------------------------------------------

_PARITY_PARAMS = ("a", "y", "gamma", "x1")
_value = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.5, 0.5, 2.0, math.inf, -math.inf, math.nan,
                     1e308, -1e308, 709.8, 710.0, 1e154, -1e154, 5e-324]),
    st.floats(),
)


def _bits(value):
    return "nan" if math.isnan(value) else struct.pack("<d", value)


def _outcome(evaluate):
    """The value bits of every component, or the error's type, text and location."""
    try:
        return [_bits(v) for v in evaluate()]
    except QsslabError as exc:
        return type(exc), str(exc), getattr(exc, "location", None)


def _parity_model(exprs):
    defn = ModelDefinition(
        "parity", (StateDecl("T", 1.0), StateDecl("V", 1.0)),
        tuple(ParamSpec(p, None) for p in _PARITY_PARAMS),
        {"T": exprs[0], "V": exprs[1]},
    )
    return compile_model(defn)


def _parse_on_line(text, line_no):
    """``text`` parsed as an expression on line ``line_no`` of a source
    (``parse_expression`` places it on line 1)."""
    return dsl._Parser(dsl._tokenize_line(text, line_no)).parse_expr()


def _assert_parity(exprs, t, T, V, params):
    """The array form and the bound list form (``ModelSystem.bind``) of the
    generated rhs against ``eval_expr``: the same bits or the same error."""
    model = _parity_model(exprs)
    bindings = {"t": t, "T": T, "V": V, **params}
    expected = _outcome(lambda: [eval_expr(e, bindings) for e in exprs])
    assert _outcome(lambda: model.rhs(t, np.array([T, V]), params).tolist()) == expected
    bound = model.bind(params)
    assert _outcome(lambda: bound(t, [T, V])) == expected
    if isinstance(expected, list):  # values, not an error
        assert {type(v) for v in bound(t, [T, V])} == {float}


@given(st.tuples(_exprs(4), _exprs(2)), _value, _value, _value,
       st.fixed_dictionaries({p: _value for p in _PARITY_PARAMS}))
@settings(max_examples=400, deadline=None)
def test_generated_rhs_matches_eval_expr(exprs, t, T, V, params):
    # parsed from text, so that every node has its own line and column
    exprs = tuple(_parse_on_line(format_expr(e), i + 1) for i, e in enumerate(exprs))
    _assert_parity(exprs, t, T, V, params)


@pytest.mark.parametrize("expr", [
    BinOp("^", Num(-2.0), Var("a")),
    BinOp("^", Var("a"), Num(-2.0)),
    BinOp("^", Var("a"), Num(3.0)),
    BinOp("^", Var("a"), Num(math.inf)),
    BinOp("/", Var("a"), Num(0.0)),
    BinOp("-", Num(math.inf), Num(math.inf)),
    Neg(Num(-0.0)),
    Call("min", (Num(math.nan), Var("a"))),
    Call("max", (Var("a"), Num(math.nan))),
])
@pytest.mark.parametrize("a", [-2.0, -0.5, 0.0, 3.0, math.inf, math.nan, 1e300])
def test_generated_rhs_matches_eval_expr_on_literals(expr, a):
    # negative and non-finite literals, which the parser never produces
    _assert_parity((expr, Num(0.0)), 0.0, 1.0, 1.0, {"a": a, "y": 0.0, "gamma": 0.0, "x1": 0.0})


@pytest.mark.parametrize("text", [
    "a/(T - T)", "(0 - 2)^0.5", "(0 - 2)^a", "T^1000", "0^(0 - 1)", "(0 - T)^(1/(a - a))",
    "exp(1000*T)", "ln(0 - T)", "sqrt(0 - T)", "tanh(a)*min(a, T) - max(T, a)",
])
@pytest.mark.parametrize("a", [math.nan, 2.0, 0.5])
def test_generated_rhs_errors_match_eval_expr(text, a):
    # in the second equation, on line 3: messages and locations must agree
    expr = _parse_on_line(text, 3)
    _assert_parity((Num(0.0), expr), 0.0, 10.0, 1.0, {"a": a, "y": 0.0, "gamma": 0.0, "x1": 0.0})


def test_nan_exponent_of_negative_base_is_an_evaluation_error():
    expr = parse_expression("(0-2)^x")
    with pytest.raises(EvaluationError, match="negative base with non-integer exponent") as excinfo:
        eval_expr(expr, {"x": math.nan})
    assert excinfo.value.location == expr.loc
    model = compile_model(parse_model("state T = 1\nparam x\ndT/dt = (0-2)^x\n"))
    with pytest.raises(EvaluationError, match="negative base with non-integer exponent") as excinfo:
        model.rhs(0.0, np.array([1.0]), {"x": math.nan})
    assert excinfo.value.location == SourceLocation(3, 14)


FORCED = """model forced
state T = 2
param a = 1 nonneg
param y = 1 nonneg
param w = 0.5 nonneg
dT/dt = a*exp(0 - w*t) - y*T^1.5 + max(0, 1 - t)*sqrt(T)/(1 + T)
"""


def _tree_walking(model, defn):
    """``model`` with a right-hand side that evaluates the syntax tree per call."""
    states = tuple(s.name for s in defn.states)
    exprs = [defn.equations[name] for name in states]

    def rhs(t, values, params):
        bindings = {"t": float(t), **dict(zip(states, map(float, values)))}
        bindings.update({p.name: float(params[p.name]) for p in defn.params})
        return np.array([eval_expr(e, bindings) for e in exprs])

    return dataclasses.replace(model, rhs=rhs)


@pytest.mark.parametrize("source", [*(read_model_text(n) for n in CATALOG_FILES), FORCED],
                         ids=[*CATALOG_FILES, "forced"])
def test_generated_rhs_integrates_like_eval_expr(source):
    from qsslab import integrate_adaptive

    defn = parse_model(source)
    model = compile_model(defn)
    state0 = default_initial_state(defn)
    runs = [integrate_adaptive(m, ParameterSet(), state0, 0.0, 10.0)
            for m in (model, _tree_walking(model, defn))]
    assert runs[0].solver_info == runs[1].solver_info
    assert runs[0].times.tobytes() == runs[1].times.tobytes()
    assert runs[0].states.tobytes() == runs[1].states.tobytes()


# sha256 of each catalog model's generated rhs and Jacobian sources: a
# refactor of the generator that moves one byte of either fails here.
# Change a hash only with a change that means to alter the generated code.
GENERATED_SHA256 = {  # name: (rhs, Jacobian)
    "healthy": (
        "901c2359608c23c6ef42768a8457bae3debe07c10e01307d5987ac71d9cef332",
        "46dedf71851033b77f00dd357307b27ac66d5c3360effdc01d0a0c5985879faf"),
    "linear-destruction": (
        "1fd31955dc61a30c33eea81a3174339e8861b5e12d55d68b27937bf3d0e06c48",
        "eccdb122ed97b3cf4996ce92d741c465fc4b3f40b1394cb7902325dc2578d646"),
    "coupled-agent": (
        "287f623eb8db2e2cd3450e49515554b21d0e06f86fa324437bf0b6921e978c8f",
        "a7d19407faed9141d8de450ba4a97500b877615f38ad7d1cc51cd031fed45bbe"),
    "power-destruction": (
        "4adc4aa8dd3c4094b70d48387e6d22fc678a9b2ebb962c88c7573c0822d4aa9c",
        "88bb826c6823f2e3b7634989b9875f852ac2d2ed67f68e0d33483df2a9cf4891"),
    "logistic-source": (
        "d7736e8c45f5a3199e7daf1a0cec0f5549dc58a4398703b0cae88f015f00c246",
        "348ee408668160867188a9cd77f2088fbe6075d380f17d35fd5047d8301d171e"),
    "logistic-proliferation": (
        "d7736e8c45f5a3199e7daf1a0cec0f5549dc58a4398703b0cae88f015f00c246",
        "348ee408668160867188a9cd77f2088fbe6075d380f17d35fd5047d8301d171e"),
    "virulence-drift": (
        "59c853539e03e94a66296ad759e7777cbfd6df8844239288b0eb763a65d126e0",
        "97f163787111ef63f36d45588608fb70a813c018c856b79775f86aace0a0b4ac"),
    "cytokine-inversion": (
        "664afa10ee7025ff1994986cbf36a0bcd11000dbeb707b86601ee919091e3c1e",
        "0516fe4b1a5af316de15bd16c29ef437a3cfdb71ff2c6b1dc2f201aecb0470d0"),
    "humoral-cellular-competition": (
        "bc6d0f5dd43078c868add8e0f241a374e39c91df8a13b712422aeb589bbe3df0",
        "21e6665fa72a20167a5567d70b3621fbc3034cb76460958e7f3ad54eb6c1d522"),
    "bcell-depletion": (
        "c8fd36384356a9e9639a0080a81032e5c76d5de37e67c3f739abc835ef319d70",
        "f9cb4f843a5b16e944f441460481d9d53762b3a1bcb50b514669d58c1f15f9d3"),
}


@pytest.mark.parametrize("name", CATALOG_FILES)
def test_generated_sources_are_pinned(name):
    defn = parse_model(read_model_text(name))
    states = tuple(s.name for s in defn.states)
    params = tuple(p.name for p in defn.params)
    exprs = [defn.equations[s] for s in states]
    reads_time = any(dsl.expression_reads_time(e) for e in exprs)
    tree = (states, params, tuple(exprs), reads_time)
    sources = (dsl._rhs_source(tree), derivatives.jacobian_source(tree))
    assert tuple(hashlib.sha256(s.encode()).hexdigest() for s in sources) == GENERATED_SHA256[name]


@pytest.mark.parametrize("expr,problems", [
    (Call("foo", (Var("b"),)), ["undeclared identifier b", "unknown function foo"]),
    (Call("min", (Var("T"),)), ["function min takes 2 argument(s), got 1"]),
    (BinOp("%", Var("T"), Num(2.0)), ["unknown operator %"]),
])
def test_construction_rejects_an_unchecked_expression(expr, problems):
    with pytest.raises(SemanticError) as excinfo:
        ModelDefinition("m", (StateDecl("T", 1.0),), (), {"T": expr})
    assert [m.split(" at ")[0] for m in excinfo.value.messages] == problems


# Each passed construction and then failed with a bare Python error: a
# SyntaxError from the generated rhs, an AttributeError in compile_model
# and a TypeError at the first rhs call
@pytest.mark.parametrize("params, equation, problem", [
    ((ParamSpec("a b", None),), Var("a b"), "parameter name 'a b' is not an identifier"),
    ((), "T", "equation for T holds 'T', not an expression"),
    ((), Num("x"), "number 'x' at line 0, column 0 is not an int or a float"),
], ids=["name", "node", "number"])
def test_construction_refuses_what_no_generated_code_runs(params, equation, problem):
    with pytest.raises(SemanticError) as excinfo:
        ModelDefinition("m", (StateDecl("T", 1.0),), params, {"T": equation})
    assert excinfo.value.messages == [problem]


_T = (StateDecl("T", 1.0),)
_A = ParamSpec("a", None, False, 1.0)


# Each definition built by hand and written as text: construction refuses
# it with the messages parse_model gives for the text
HAND_BUILT = {
    "missing-equation": (dict(states=_T, params=(), equations={}),
                         "state T = 1\n"),
    "undeclared-state": (dict(states=_T, params=(), equations={"T": Num(0.0), "V": Num(1.0)}),
                         "state T = 1\ndT/dt = 0\ndV/dt = 1\n"),
    "duplicate-state": (dict(states=_T * 2, params=(), equations={"T": Num(0.0)}),
                        "state T = 1\nstate T = 1\ndT/dt = 0\n"),
    "duplicate-param": (dict(states=_T, params=(_A, _A), equations={"T": Var("a")}),
                        "state T = 1\nparam a = 1\nparam a = 1\ndT/dt = a\n"),
    "state-and-param": (dict(states=_T, params=(ParamSpec("T", None),),
                             equations={"T": Neg(Var("T"))}),
                        "state T = 1\nparam T\ndT/dt = -T\n"),
    "declared-time": (dict(states=_T, params=(ParamSpec("t", None),),
                           equations={"T": Neg(Var("T"))}),
                      "state T = 1\nparam t\ndT/dt = -T\n"),
    "undeclared-slow-rate": (dict(states=_T, params=(_A,), equations={"T": Var("a")},
                                  slow=("k",)),
                             "state T = 1\nparam a = 1\nslow k\ndT/dt = a\n"),
    "duplicate-slow-rate": (dict(states=_T, params=(_A,), equations={"T": Var("a")},
                                 slow=("a", "a")),
                            "state T = 1\nparam a = 1\nslow a, a\ndT/dt = a\n"),
}


@pytest.mark.parametrize("case", HAND_BUILT)
def test_a_definition_is_valid_by_construction(case):
    fields, text = HAND_BUILT[case]
    with pytest.raises(SemanticError) as parsed:
        parse_model("model m\n" + text)
    with pytest.raises(SemanticError) as built:
        ModelDefinition("m", **fields)
    assert built.value.messages == parsed.value.messages


def test_a_model_without_a_state_is_rejected():
    # its generated stepping loops would unpack nothing
    with pytest.raises(SemanticError, match="no state declared"):
        parse_model("model empty\nparam a = 1\n")
    with pytest.raises(SemanticError, match="no state declared"):
        compile_model(ModelDefinition("empty", (), (ParamSpec("a", None, False, 1.0),), {}))


# Equations k levels deep as written (parentheses, unary minus) or as a
# tree (a sum of k + 1 terms, calls, powers), and no deeper in either
NESTINGS = {
    "sum": lambda k: "-T" + " - T" * (k - 2) + " + 1",
    "parentheses": lambda k: "(" * k + "1 - T" + ")" * k,
    "unary-minus": lambda k: "-" * (k - 1) + "(T - 1)",
    "calls": lambda k: "tanh(" * (k - 1) + "1 - T" + ")" * (k - 1),
    "powers": lambda k: "1 - T^" + "^".join(["1"] * (k - 1)),
}


@pytest.mark.parametrize("shape", NESTINGS)
def test_an_equation_nests_at_most_max_depth_levels(shape):
    # at the bound a model parses, compiles and runs within 600 frames of
    # its caller; one level deeper is refused, naming the equation
    source = "model m\nstate T = 2\ndT/dt = {}\n".format
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 600)
    try:
        defn = parse_model(source(NESTINGS[shape](MAX_DEPTH)))
        model, params = compile_model(defn), dsl.default_params(defn)
        state0 = default_initial_state(defn)
        integrate_adaptive(model, params, state0, 0.0, 1.0)
        find_steady_state(model, params, state0)
        model.jacobian(params)
        format_expr(defn.equations["T"])
    finally:
        sys.setrecursionlimit(limit)
    with pytest.raises((ParseError, SemanticError),
                       match=f"equation for T nests deeper than {MAX_DEPTH} levels"):
        parse_model(source(NESTINGS[shape](MAX_DEPTH + 1)))


# ---------------------------------------------------------------------------
# Generated Jacobian against central differences
# ---------------------------------------------------------------------------

STEP = math.ulp(1.0) ** (1 / 3)  # eps^(1/3) balances O(h^2) truncation against rounding


def _differences(f, x, h, side=0):
    """Differences of ``f`` at ``x`` with the steps ``h * max(|x_j|, 1)``:
    central (``side`` 0), forward (1) or backward (-1)."""
    columns = []
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h * max(abs(x[j]), 1.0)
        if side:
            columns.append(side * (f(x + side * e) - f(x)) / e[j])
        else:
            columns.append((f(x + e) - f(x - e)) / (2.0 * e[j]))
    return np.array(columns).T


def _magnitude(expr, bindings) -> float:
    """The largest |value| of a node of ``expr`` at ``bindings``."""
    return max([abs(eval_expr(expr, bindings)),
                *(_magnitude(e, bindings) for e in dsl._children(expr))])


def _assert_jacobian_is_the_derivative(model, exprs, params, t, x):
    """The generated Jacobian at (t, x) against central differences
    (``_differences`` at ``STEP``; every x_j drawn is far above the step):
    the difference must lie within the finite-difference error, bounded by
    Richardson's estimate from a second set of differences at a quarter of
    the step.  That
    holds where the rhs is smooth on the scale of the steps, which a kink
    of min or max is not: there central differences average the two
    sides, and the gap between forward and backward differences does not
    close in as the step shrinks.  Returns whether the point was compared."""
    rhs = model.bind(params)
    f = lambda z: np.array(rhs(t, z.tolist()))
    try:
        with np.errstate(all="ignore"):
            fd, fine = _differences(f, x, STEP), _differences(f, x, STEP / 4)
            gap, gap_fine = (_differences(f, x, h, 1) - _differences(f, x, h, -1)
                             for h in (STEP, STEP / 4))
    except EvaluationError:  # a step leaves the rhs's domain
        return False
    J = np.array(model.jacobian(params)(t, x.tolist()))
    assert J.shape == (x.size, x.size)
    if not all(np.isfinite(d).all() for d in (fd, fine, gap, gap_fine)):
        return False
    # rounding in the differences at the quarter step: about eps times the
    # largest node of f_i (f_i itself may cancel to 0), over the step
    bindings = {"t": t, **dict(zip(model.state_names, x.tolist())), **params}
    size = np.array([1.0 + _magnitude(e, bindings) for e in exprs])
    noise = 2e-14 * size[:, None] / (STEP * np.maximum(np.abs(x), 1.0))
    if np.any(np.abs(gap_fine) > 0.5 * np.abs(gap) + noise):
        return False  # a kink
    bound = 2.0 * np.abs(fd - fine) + 1e-7 * (1.0 + np.abs(fd)) + noise
    assert np.all(np.abs(J - fd) <= bound), (J, fd)
    return True


@pytest.mark.parametrize("name", CATALOG_FILES)
@given(st.lists(st.floats(0.5, 2.0), min_size=5, max_size=5), st.floats(0.0, 500.0))
@settings(max_examples=30, deadline=None)
def test_generated_jacobian_of_the_catalog_models(name, factors, t):
    # near the default state (a zero component at 0.1 times the factor)
    defn = parse_model(read_model_text(name))
    model = compile_model(defn)
    state = default_initial_state(defn).values
    x = np.array([max(v, 0.1) * k for v, k in zip(state, factors)])
    exprs = [defn.equations[s.name] for s in defn.states]
    assert _assert_jacobian_is_the_derivative(model, exprs, dsl.default_params(defn).as_dict(),
                                              t, x)


_point = st.floats(0.1, 4.0)


def _has_tie(expr, bindings) -> bool:
    """Whether a min or max in ``expr`` has equal arguments at ``bindings``."""
    if isinstance(expr, Call) and expr.func in ("min", "max"):
        first, second = (eval_expr(e, bindings) for e in expr.args)
        if first == second:
            return True
    return any(_has_tie(e, bindings) for e in dsl._children(expr))


@given(st.tuples(_exprs(4), _exprs(2)), _point, _point, _point,
       st.fixed_dictionaries({p: _point for p in _PARITY_PARAMS}))
@settings(max_examples=400, deadline=None)
def test_generated_jacobian_of_random_trees(exprs, t, T, V, params):
    # ties of min and max are test_min_max_tie_takes_the_branch_eval_expr_takes's
    model = _parity_model(exprs)
    raised = _outcome(lambda: model.bind(params)(t, [T, V]))
    if not isinstance(raised, list):  # the Jacobian raises the rhs's error
        assert _outcome(lambda: model.jacobian(params)(t, [T, V])[0]) == raised
    elif not any(_has_tie(e, {"t": t, "T": T, "V": V, **params}) for e in exprs):
        _assert_jacobian_is_the_derivative(model, exprs, params, t, np.array([T, V]))


@pytest.mark.parametrize("func", ["min", "max"])
def test_min_max_tie_takes_the_branch_eval_expr_takes(func):
    # at a tie min(a, b) and max(a, b) are a, as eval_expr's builtin min and
    # max return the first of equal values: a signed zero shows which
    for first, second, row in (("T", "V", [1.0, 0.0]), ("V", "T", [0.0, 1.0])):
        expr = Call(func, (Var(first), Var(second)))
        model = _parity_model((expr, Num(0.0)))
        bindings = {first: 0.0, second: -0.0}
        assert _bits(eval_expr(expr, bindings)) == _bits(0.0)
        assert model.jacobian({p: 1.0 for p in _PARITY_PARAMS})(
            0.0, [bindings["T"], bindings["V"]])[0] == row


def test_jacobian_is_generated_once_per_source_and_not_by_compile(monkeypatch):
    calls = []
    generate = derivatives.jacobian_function
    monkeypatch.setattr(derivatives, "jacobian_function",
                        lambda tree: calls.append(tree) or generate(tree))
    model = compile_model(parse_model(read_model_text("power-destruction")))
    assert len(calls) == 0
    params = {"a": 1.0, "y": 1.0, "gamma": 2.0, "n": 3.0}
    assert model.jacobian(params)(0.0, [0.5]) == [[-1.0 - 2.0 * 3.0 * 0.25]]
    assert calls == [model.rhs.tree]
    assert model.jacobian(params)(0.0, [0.5]) == [[-1.0 - 2.0 * 3.0 * 0.25]]
    assert len(calls) == 1
