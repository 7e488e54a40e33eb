"""A small text language for defining ODE systems (``.qssm`` files).

Line-oriented syntax; statements may also be separated by ``;``::

    model linear-destruction
    state T = 10
    param a = 1 nonneg
    param y = 1 > 0
    param gamma = 1 nonneg
    # destruction enters linearly
    dT/dt = a - y*T - gamma*T

A ``param`` may carry one lower bound, ``> x`` or ``>= x``; ``nonneg`` is
the spelling of ``>= 0``.  ``slow name, ...`` lists the model's designated
slow rates, in order.  The ten catalog models are written this way, one
file each under ``models/``.

Expression grammar (see models/grammar.ebnf): ``^`` is right-associative
and binds tightest, then unary minus, then ``* /``, then ``+ -``; calls
``exp ln sqrt tanh min max``; the symbol ``t`` is reserved for time.

A compiled model carries its right-hand side as generated Python and, as
``ModelSystem.jacobian``, its exact Jacobian, generated from the same tree
on first use (``derivatives``); ``_body`` writes both bodies.  A
``ModelDefinition`` is checked when it is made, parsed or built by hand
(``_issues``), so ``compile_model`` and the code generators trust it and
check nothing.  Whoever runs a model keeps it compiled
(``compile_model``).  ``min(a, b)`` is a unless b < a, and ``max(a, b)``
a unless b > a: at a tie both are the first argument, and so is their
derivative.  No runtime path walks the tree: the
tests' oracle for the generated code is the tree walker ``eval_expr`` in
``tests/evaluator.py``.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .core import BoundJacobian, ModelSystem, ParameterSet, ParamSpec, StateVector
from .errors import EvaluationError, ParseError, SemanticError

RESERVED_TIME = "t"
FUNCTIONS = {"exp": 1, "ln": 1, "sqrt": 1, "tanh": 1, "min": 2, "max": 2}
# The deepest an equation may nest, as written (parentheses, calls, unary
# minus, exponents) and as a tree (a sum of MAX_DEPTH + 1 terms is MAX_DEPTH
# deep): the parser spends up to 5 frames per written level and the tree
# walkers (``_emit``, ``expression_reads_time``, ``format_expr``) up to 3
# per tree level, so at the bound a model parses, compiles and runs in ~510
# of Python's 1,000.
MAX_DEPTH = 100


@dataclass(frozen=True)
class SourceLocation:
    line: int  # 1-based
    column: int  # 1-based

    def __str__(self):
        return f"line {self.line}, column {self.column}"


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float
    loc: SourceLocation = field(compare=False, default=SourceLocation(0, 0))


@dataclass(frozen=True)
class Var:
    name: str
    loc: SourceLocation = field(compare=False, default=SourceLocation(0, 0))


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    loc: SourceLocation = field(compare=False, default=SourceLocation(0, 0))


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"
    loc: SourceLocation = field(compare=False, default=SourceLocation(0, 0))


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]
    loc: SourceLocation = field(compare=False, default=SourceLocation(0, 0))


Expr = Num | Var | Neg | BinOp | Call


def _children(expr: Expr) -> tuple:
    """The operands of ``expr`` in evaluation order; none for a leaf."""
    if isinstance(expr, Neg):
        return (expr.operand,)
    if isinstance(expr, BinOp):
        return (expr.left, expr.right)
    if isinstance(expr, Call):
        return expr.args
    return ()


@dataclass(frozen=True)
class StateDecl:
    name: str
    initial: float


@dataclass(frozen=True)
class ModelDefinition:
    """A model, valid by construction: one that breaks a rule of the
    language (``_issues``) raises ``SemanticError`` listing every offense,
    as a parsed one does.  Its fields are read-only (``equations``, state
    name -> Expr, a mapping proxy), so that the definition the catalog
    keeps per kind (``catalog._definition``) and shares between its callers
    cannot be changed by one of them, nor made invalid."""

    name: str
    states: tuple[StateDecl, ...]
    params: tuple[ParamSpec, ...]  # the compiled model's schema
    equations: MappingProxyType
    slow: tuple[str, ...] = ()  # designated slow rates, in order

    def __post_init__(self):
        for name in ("states", "params", "slow"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "equations", MappingProxyType(dict(self.equations)))
        issues = _issues(self)
        if issues:
            raise SemanticError(sorted(set(issues)))


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # a name, as the tokenizer reads one
_TOKEN_RE = re.compile(
    rf"""
    (?P<NUMBER>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
  | (?P<IDENT>{_IDENT_RE.pattern})
  | (?P<OP>>=|[+\-*/^(),=;>])
  | (?P<WS>[ \t]+)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER | IDENT | OP | EOL
    text: str
    loc: SourceLocation


def _tokenize_line(text: str, line_no: int) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    text = text.partition("#")[0]
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}",
                SourceLocation(line_no, pos + 1),
                expected={"number", "identifier", "operator"},
            )
        kind = m.lastgroup
        if kind != "WS":
            tokens.append(Token(kind, m.group(), SourceLocation(line_no, pos + 1)))
        pos = m.end()
    tokens.append(Token("EOL", "", SourceLocation(line_no, len(text) + 1)))
    return tokens


# ---------------------------------------------------------------------------
# Expression parser (recursive descent)
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # levels nested inside the expression (parse_factor calls less one)
        self.what = "expression"  # what the nesting error names

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOL":
            self.pos += 1
        return tok

    def at_op(self, *symbols: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text in symbols

    def expect_op(self, symbol: str) -> Token:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == symbol:
            return self.advance()
        raise ParseError(
            f"expected {symbol!r}, found {tok.text or 'end of line'!r}",
            tok.loc, expected={symbol},
        )

    # expr := term (('+'|'-') term)*
    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.at_op("+", "-"):
            op = self.advance()
            right = self.parse_term()
            node = BinOp(op.text, node, right, op.loc)
        return node

    # term := factor (('*'|'/') factor)*
    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.at_op("*", "/"):
            op = self.advance()
            right = self.parse_factor()
            node = BinOp(op.text, node, right, op.loc)
        return node

    # factor := '-' factor | power   (unary minus binds looser than '^');
    # every nested level of the grammar passes through here
    def parse_factor(self) -> Expr:
        if self.depth > MAX_DEPTH:
            raise ParseError(f"{self.what} nests deeper than {MAX_DEPTH} levels",
                             self.peek().loc)
        self.depth += 1
        if self.at_op("-"):
            op = self.advance()
            node = Neg(self.parse_factor(), op.loc)
        else:
            node = self.parse_power()
        self.depth -= 1
        return node

    # power := atom ['^' factor]    (right-associative; '-x' allowed in exponent)
    def parse_power(self) -> Expr:
        node = self.parse_atom()
        if self.at_op("^"):
            op = self.advance()
            right = self.parse_factor()
            node = BinOp("^", node, right, op.loc)
        return node

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Num(float(tok.text), tok.loc)
        if tok.kind == "IDENT":
            self.advance()
            if self.at_op("("):
                self.advance()
                args = [self.parse_expr()]
                while self.at_op(","):
                    self.advance()
                    args.append(self.parse_expr())
                self.expect_op(")")
                return Call(tok.text, tuple(args), tok.loc)
            return Var(tok.text, tok.loc)
        if self.at_op("("):
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(
            f"expected a value, found {tok.text or 'end of line'!r}",
            tok.loc, expected={"number", "identifier", "("},
        )


def parse_expression(text: str) -> Expr:
    """Parse a standalone expression, located as on line 1 (used by tests)."""
    parser = _Parser(_tokenize_line(text, 1))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "EOL":
        raise ParseError(
            f"unexpected trailing {tok.text!r}", tok.loc, expected={"end of line"}
        )
    return node


# ---------------------------------------------------------------------------
# Model-definition parser
# ---------------------------------------------------------------------------

def parse_model(source: str) -> ModelDefinition:
    """Parse and validate a full model definition.

    Lexical/syntax problems raise ``ParseError`` with a location and the set
    of acceptable tokens; semantic problems, the two that only a text can
    have (a second ``model`` line, a second equation for a state) and those
    of the definition it builds (``ModelDefinition``), are collected and
    raised together as one ``SemanticError`` listing every offense.  Each
    call parses anew: a caller that reads one text more than once keeps the definition
    (``catalog._definition``) or the compiled model (``cli._file_model``).
    """
    names_seen: list[str] = []
    states: list[StateDecl] = []
    params: list[ParamSpec] = []
    equations: dict[str, Expr] = {}
    slow: list[str] = []
    semantic: list[str] = []

    for line_no, raw in enumerate(source.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        parser = _Parser(tokens)
        while parser.peek().kind != "EOL":
            if parser.at_op(";"):
                parser.advance()
                continue
            _parse_statement(parser, names_seen, states, params, equations, slow, semantic)
            tok = parser.peek()
            if tok.kind == "EOL":
                break
            if parser.at_op(";"):
                continue
            raise ParseError(
                f"unexpected {tok.text!r} after statement",
                tok.loc, expected={";", "end of line"},
            )

    if len(names_seen) > 1:
        semantic.append("multiple 'model' lines")
    try:
        defn = ModelDefinition(
            name=names_seen[0] if names_seen else "unnamed",
            states=tuple(states),
            params=tuple(params),
            equations=equations,
            slow=tuple(slow),
        )
    except SemanticError as exc:
        semantic += exc.messages
    if semantic:
        raise SemanticError(sorted(set(semantic)))
    return defn


def _parse_statement(parser: _Parser, names_seen, states, params, equations, slow, semantic):
    tok = parser.peek()
    if tok.kind != "IDENT":
        raise ParseError(
            f"expected a directive, found {tok.text or 'end of line'!r}",
            tok.loc, expected={"model", "state", "param", "slow", "d<state>/dt"},
        )
    head = tok.text
    if head == "model":
        parser.advance()
        name_tok = parser.peek()
        if name_tok.kind != "IDENT" and not (name_tok.kind == "NUMBER"):
            raise ParseError("expected a model name", name_tok.loc, expected={"identifier"})
        # allow kebab-case names: ident ('-' ident)*
        parts = [parser.advance().text]
        while parser.at_op("-"):
            parser.advance()
            nxt = parser.peek()
            if nxt.kind not in ("IDENT", "NUMBER"):
                raise ParseError("expected a name fragment after '-'",
                                 nxt.loc, expected={"identifier"})
            parts.append(parser.advance().text)
        names_seen.append("-".join(parts))
        return
    if head == "state":
        parser.advance()
        name_tok = parser.peek()
        if name_tok.kind != "IDENT":
            raise ParseError("expected a state name", name_tok.loc, expected={"identifier"})
        parser.advance()
        parser.expect_op("=")
        value = _parse_signed_number(parser)
        states.append(StateDecl(name_tok.text, value))
        return
    if head == "param":
        parser.advance()
        name_tok = parser.peek()
        if name_tok.kind != "IDENT":
            raise ParseError("expected a parameter name", name_tok.loc,
                             expected={"identifier"})
        parser.advance()
        default = None
        if parser.at_op("="):
            parser.advance()
            default = _parse_signed_number(parser)
        minimum, exclusive = None, False
        nxt = parser.peek()
        if nxt.kind == "IDENT" and nxt.text == "nonneg":  # the spelling of ">= 0"
            parser.advance()
            minimum = 0.0
        elif parser.at_op(">", ">="):
            exclusive = parser.advance().text == ">"
            minimum = _parse_signed_number(parser)
        params.append(ParamSpec(name_tok.text, minimum, exclusive, default))
        return
    if head == "slow":
        parser.advance()
        while True:
            name_tok = parser.peek()
            if name_tok.kind != "IDENT":
                raise ParseError("expected a parameter name", name_tok.loc,
                                 expected={"identifier"})
            slow.append(parser.advance().text)
            if not parser.at_op(","):
                return
            parser.advance()
    if head.startswith("d") and len(head) > 1:
        parser.advance()
        parser.expect_op("/")
        dt_tok = parser.peek()
        if not (dt_tok.kind == "IDENT" and dt_tok.text == "dt"):
            raise ParseError("expected 'dt' after '/'", dt_tok.loc, expected={"dt"})
        parser.advance()
        parser.expect_op("=")
        state_name = head[1:]
        parser.what = f"equation for {state_name}"
        expr = parser.parse_expr()
        if state_name in equations:
            semantic.append(f"duplicate equation for {state_name}")
        else:
            equations[state_name] = expr
        return
    raise ParseError(
        f"unknown directive {head!r}", tok.loc,
        expected={"model", "state", "param", "slow", "d<state>/dt"},
    )


def _parse_signed_number(parser: _Parser) -> float:
    sign = 1.0
    if parser.at_op("-"):
        parser.advance()
        sign = -1.0
    tok = parser.peek()
    if tok.kind != "NUMBER":
        raise ParseError("expected a number", tok.loc, expected={"number"})
    parser.advance()
    return sign * float(tok.text)


def _issues(defn: ModelDefinition) -> list:
    """Every rule of the language that ``defn`` breaks, as the messages of
    its ``SemanticError``.  Among them is what no generated code can run: a
    model without a state, and an equation nested deeper than ``MAX_DEPTH``
    as a tree (the operations on its longest path from the root to a leaf),
    which the tree walkers after parsing would take past the recursion limit."""
    state_names = [s.name for s in defn.states]
    param_names = [p.name for p in defn.params]
    declared = {*state_names, *param_names, RESERVED_TIME}
    issues = [] if state_names else ["no state declared"]

    for kind, names in (("state", state_names), ("parameter", param_names)):
        issues += [f"{kind} name {name!r} is not an identifier" for name in names
                   if not (isinstance(name, str) and _IDENT_RE.fullmatch(name))]
    for name, count in Counter(state_names).items():
        if count > 1:
            issues.append(f"duplicate state declaration for {name}")
    for name, count in Counter(param_names).items():
        if count > 1:
            issues.append(f"duplicate parameter declaration for {name}")
    for name in set(state_names) & set(param_names):
        issues.append(f"{name} declared as both state and parameter")
    for name in (set(state_names) | set(param_names)) & {RESERVED_TIME}:
        issues.append(f"{RESERVED_TIME!r} is reserved for time and cannot be declared")
    for name, count in Counter(defn.slow).items():
        if count > 1:
            issues.append(f"duplicate slow rate {name}")
        if name not in param_names:
            issues.append(f"slow rate {name} is not a declared parameter")

    for name in state_names:
        if name not in defn.equations:
            issues.append(f"missing equation for {name}")
    for name, expr in defn.equations.items():
        if name not in state_names:
            issues.append(f"equation for undeclared state {name}")
        depth, level = -1, [expr]  # walked level by level, so a tree of any depth is checked
        while level:
            depth += 1
            for node in level:
                if not isinstance(node, (Num, Var, Neg, BinOp, Call)):
                    issues.append(f"equation for {name} holds {node!r}, not an expression")
                elif isinstance(node, Num) and type(node.value) not in (int, float):
                    issues.append(f"number {node.value!r} at {node.loc} is not an int or a float")
                elif isinstance(node, Var) and node.name not in declared:
                    issues.append(f"undeclared identifier {node.name} at {node.loc}")
                elif isinstance(node, BinOp) and node.op not in {"+", "-", "*", "/", "^"}:
                    issues.append(f"unknown operator {node.op} at {node.loc}")
                elif isinstance(node, Call) and node.func not in FUNCTIONS:
                    issues.append(f"unknown function {node.func} at {node.loc}")
                elif isinstance(node, Call) and len(node.args) != FUNCTIONS[node.func]:
                    issues.append(f"function {node.func} takes {FUNCTIONS[node.func]} "
                                  f"argument(s), got {len(node.args)} at {node.loc}")
            level = [child for node in level for child in _children(node)]
        if depth > MAX_DEPTH:
            issues.append(f"equation for {name} nests deeper than {MAX_DEPTH} levels")
    return issues


def expression_reads_time(expr: Expr) -> bool:
    if isinstance(expr, Var):
        return expr.name == RESERVED_TIME
    return any(expression_reads_time(e) for e in _children(expr))


# ---------------------------------------------------------------------------
# Pretty printer (round-trips through parse_expression)
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def format_expr(expr: Expr, parent_prec: int = 0) -> str:
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        inner = format_expr(expr.operand, _PREC["neg"])
        text = f"-{inner}"
        return f"({text})" if parent_prec > _PREC["neg"] else text
    if isinstance(expr, BinOp):
        prec = _PREC[expr.op]
        if expr.op == "^":
            left = format_expr(expr.left, prec + 1)   # parens on nested left
            right = format_expr(expr.right, _PREC["neg"])  # right-assoc, allow unary
        else:
            left = format_expr(expr.left, prec)
            right = format_expr(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}" if prec == 1 else f"{left}{expr.op}{right}"
        return f"({text})" if parent_prec > prec else text
    if isinstance(expr, Call):
        args = ", ".join(format_expr(a, 0) for a in expr.args)
        return f"{expr.func}({args})"
    raise TypeError(f"unknown node {expr!r}")


def format_model(defn: ModelDefinition) -> str:
    lines = [f"model {defn.name}"]
    for state in defn.states:
        lines.append(f"state {state.name} = {state.initial!r}")
    for param in defn.params:
        text = f"param {param.name}"
        if param.default is not None:
            text += f" = {param.default!r}"
        if param.nonneg:
            text += " nonneg"
        elif param.minimum is not None:
            text += f" {'>' if param.exclusive else '>='} {param.minimum!r}"
        lines.append(text)
    if defn.slow:
        lines.append(f"slow {', '.join(defn.slow)}")
    for state in defn.states:
        lines.append(f"d{state.name}/dt = {format_expr(defn.equations[state.name])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

# Globals of the generated sources; every other name in them is a local.
_RUNTIME = {
    "_array": np.array, "_floor": math.floor, "_exp": math.exp, "_log": math.log,
    "_sqrt": math.sqrt, "_tanh": math.tanh, "_EvaluationError": EvaluationError,
    "_Loc": SourceLocation,
}
_UNARY_CALLS = {"exp": "_exp", "ln": "_log", "sqrt": "_sqrt", "tanh": "_tanh"}
_PICKS = {"min": "<", "max": ">"}  # min(a, b) keeps a unless b < a


def _raise(message: str, loc: SourceLocation) -> str:
    """A statement raising the oracle's error for ``message`` at ``loc``."""
    return (f"raise _EvaluationError({f'{message} at {loc}'!r}, "
            f"_Loc({loc.line}, {loc.column})) from None")


def _literal(value: float) -> str:
    """``value`` as an operand in generated code."""
    text = repr(value)
    if not math.isfinite(value):
        return f"float({text!r})"
    return f"({text})" if text.startswith("-") else text


def _emit(expr: Expr, names: dict, lines: list, derive=None) -> str:
    """Append statements computing ``expr`` to ``lines``, node by node in
    the order and with the errors of the tests' oracle (``eval_expr`` in
    ``tests/evaluator.py``), operands first (``_children``); return the
    Python expression (a literal, a bound name or a local) that holds the
    value.  After each operation node, ``derive(expr, args, out)`` (if
    given) gets the node, its operands' expressions and its own, and may
    append lines too."""
    if isinstance(expr, Var):
        return names[expr.name]
    if isinstance(expr, Num):
        return _literal(expr.value)
    args = [_emit(e, names, lines, derive) for e in _children(expr)]
    out = f"n{len(lines)}"  # every node adds a line, so the names differ
    if isinstance(expr, Neg):
        lines.append(f"{out} = -{args[0]}")
    elif isinstance(expr, Call):
        if expr.func in _PICKS:
            a, b = args
            lines.append(f"{out} = {b} if {b} {_PICKS[expr.func]} {a} else {a}")
        else:
            lines += ["try:", f"    {out} = {_UNARY_CALLS[expr.func]}({args[0]})",
                      "except (ValueError, OverflowError) as exc:",
                      f"    raise _EvaluationError(str(exc) + "
                      f"{f' in {expr.func}() at {expr.loc}'!r}, "
                      f"_Loc({expr.loc.line}, {expr.loc.column})) from None"]
    else:
        op = expr.op
        left, right = args
        if op == "/":
            if not (isinstance(expr.right, Num) and expr.right.value != 0.0):
                lines += [f"if {right} == 0.0:", "    " + _raise("division by zero", expr.loc)]
            lines.append(f"{out} = {left} / {right}")
        elif op == "^":
            lines.append("try:")
            if not (isinstance(expr.right, Num) and float(expr.right.value).is_integer()):
                lines += [f"    if {left} < 0.0 and ({right} != {right} or {right} != _floor({right})):",
                          "        " + _raise("negative base with non-integer exponent", expr.loc)]
            lines += [f"    {out} = {left} ** {right}",
                      "except OverflowError:", "    " + _raise("overflow in '^'", expr.loc),
                      "except ZeroDivisionError:", "    " + _raise("division by zero", expr.loc)]
        else:  # + - * never raise on floats
            lines.append(f"{out} = {left} {op} {right}")
    if derive is not None:
        derive(expr, args, out)
    return out


def _param_reads(param_names) -> list:
    """Statements that read each parameter once from the mapping ``params``
    into its local."""
    return [f"v_{p} = float(params[{p!r}])" for p in param_names]


def _bound_source(param_names, name: str, lines) -> str:
    """``bind(params)``, which reads each parameter once and returns the
    function ``name(t, values)`` whose body is ``lines``."""
    return "".join((
        "def bind(params):\n",
        *(f"    {line}\n" for line in _param_reads(param_names)),
        f"    def {name}(t, values):\n",
        *(f"        {line}\n" for line in lines),
        f"    return {name}\n",
    ))


def _body(tree: tuple, time: str, values, lines: list, derive=None) -> list:
    """Append to ``lines`` the rhs body of ``tree`` (``compile_model``'s) on
    the parameters' locals (``_param_reads``): the time, if read, from
    ``time``; the states from the list named ``values`` or one expression
    each; then every node (``_emit``, with ``derive``).  Returns each rate's expression."""
    state_names, param_names, exprs, reads_time = tree
    names = {name: f"v_{name}" for name in (*state_names, *param_names, RESERVED_TIME)}
    if reads_time:
        lines.append(f"{names[RESERVED_TIME]} = {time}")
    if isinstance(values, str):
        lines.append(f"[{', '.join(names[s] for s in state_names)}] = {values}")
    else:
        lines += [f"{names[s]} = {value}" for s, value in zip(state_names, values)]
    return [_emit(e, names, lines, derive) for e in exprs]


def _rhs_source(tree: tuple) -> str:
    """The model's one generated rhs source: ``bind(params)`` returns the
    list form ``rhs(t, values)``, and the array form ``rhs(t, values,
    params)`` binds and calls it."""
    lines = []
    results = _body(tree, "float(t)", "values", lines)
    lines.append(f"return [{', '.join(results)}]")
    return _bound_source(tree[1], "rhs", lines) + (
        "def rhs(t, values, params):\n"
        "    return _array(bind(params)(t, values.tolist()))\n"
        "rhs.bind = bind\n")


def _compiled(source: str, filename: str, runtime: dict = _RUNTIME) -> dict:
    """The namespace that executing ``source`` leaves, on ``runtime``'s globals."""
    namespace = dict(runtime)
    exec(compile(source, filename, "exec"), namespace)
    return namespace


def _jacobian_binder(tree: tuple):
    """``jacobian(params)``, the bound Jacobian of the model generated from
    ``tree`` (``derivatives.jacobian_source``'s argument).  The generated
    ``bind`` is compiled on the first call and kept for every later one."""
    bind = None

    def jacobian(params) -> BoundJacobian:
        nonlocal bind
        if bind is None:
            from .derivatives import jacobian_function  # imports this module

            bind = jacobian_function(tree)
        return bind(params)
    return jacobian


def compile_model(defn: ModelDefinition) -> ModelSystem:
    """Turn a validated definition into an executable ``ModelSystem``.

    The right-hand side is generated Python.  ``bind(params)`` reads each
    parameter once (``ModelSystem.bind`` calls it) and returns a
    straight-line function of ``(t, values)`` on lists of floats that
    unpacks the state, then computes every node of every equation into a
    local in the order of the tests' oracle, the tree walker ``eval_expr``
    in ``tests/evaluator.py``, so that it returns bit for bit what the
    oracle returns and raises the same ``EvaluationError`` (message and
    ``SourceLocation``) where the oracle raises.  The array form
    ``rhs(t, values, params)`` binds and calls it, and carries the tree it
    was generated from as ``rhs.tree``, which the Dormand-Prince loop
    inlines (``integrate._dopri_source``).  Each call generates and
    compiles the source anew: a caller that runs a model more than once
    keeps the compiled model (``catalog._model`` per kind,
    ``cli._file_model`` per ``.qssm`` text).  It checks nothing: a
    ``ModelDefinition`` is valid by construction.

    The model's ``jacobian(params)`` binds the exact Jacobian, generated
    from the same tree (``derivatives``) and compiled on its first use,
    not here; the model keeps it for every later use.
    """
    state_names = tuple(s.name for s in defn.states)
    param_names = tuple(p.name for p in defn.params)
    exprs = tuple(defn.equations[name] for name in state_names)
    time_dependent = any(expression_reads_time(e) for e in exprs)
    tree = (state_names, param_names, exprs, time_dependent)
    rhs = _compiled(_rhs_source(tree), "<qssm rhs>")["rhs"]
    rhs.tree = tree

    equation = " ; ".join(
        f"d{name}/dt = {format_expr(defn.equations[name])}" for name in state_names
    )
    return ModelSystem(
        name=defn.name,
        state_names=state_names,
        param_schema=defn.params,
        rhs=rhs,
        time_dependent=time_dependent,
        equation=equation,
        kind=None,
        slow_rate_params=defn.slow,
        jacobian=_jacobian_binder(tree),
    )


def default_params(defn: ModelDefinition) -> ParameterSet:
    """The parameters that ``defn`` declares with a default, at it."""
    return ParameterSet({p.name: p.default for p in defn.params if p.default is not None})


def default_initial_state(defn: ModelDefinition) -> StateVector:
    """The initial values that ``defn`` declares for its states."""
    return StateVector(tuple(s.name for s in defn.states), [s.initial for s in defn.states])
