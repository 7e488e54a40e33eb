"""Exact Jacobians of ``.qssm`` models, generated from the syntax tree.

``jacobian_function`` turns a model's equations into ``bind(params)``,
which reads each parameter once and returns ``jac(t, values)``: the rows
df_i/dy_j at (t, values), as lists of floats.  The body is the generated
rhs's straight-line code (``dsl._body``), each node followed by its
derivatives with respect to the states (forward mode), with constants
folded while the source is generated.  It computes the same node values
with the same checks, so it raises the rhs's ``EvaluationError`` (message
and location) wherever the rhs raises, and nowhere else.

Where the rhs does not raise, the rules are the usual ones, with these
choices at points where a derivative does not exist:

- min and max differentiate to the branch their value took; at a tie that
  is the first argument, as in the tests' oracle ``eval_expr``
  (``tests/evaluator.py``; ``min(a, b)`` keeps a unless b < a), even where
  the other branch's derivative differs;
- sqrt at 0, x^y by x at x = 0 with y < 1, and x^y by y at 0^0 have an
  infinite partial derivative, and a path through an operand whose own
  derivative is 0 contributes 0 there (an operand that does not move);
- d(x^y)/dy = x^y ln x is 0 where x^y is 0, its limit as x -> 0 for y > 0,
  and nan where x < 0 (an integer y, the only one the rhs allows there).

``ModelSystem.jacobian`` of a compiled model imports this module, compiles
its Jacobian on first use and keeps it (``dsl.compile_model``).  It is
part of ``dsl``, kept in a file of its own for memory: where Python
compiles the package from source (no cached bytecode), the compiler's
transient memory grows with the module, and one dsl module holding both
raised the peak RSS of a ``qssm-pipeline`` benchmark run by about 0.4 MB
against the two files (Python 3.11).
"""
from __future__ import annotations

import math
import re

from .dsl import (
    _PICKS,
    _RUNTIME,
    BinOp,
    Call,
    Neg,
    Num,
    _bound_source,
    _children,
    _compiled,
    _body,
    _literal,
)


def _power(base: float, exponent: float) -> float:
    """``base ** exponent`` with the IEEE result where Python raises on 0 to
    a negative power or an overflow: an infinity, negative for a negative
    base (or -0.0) to an odd power."""
    try:
        return base ** exponent
    except (ZeroDivisionError, OverflowError):
        return math.copysign(math.inf, base) if exponent % 2 == 1 else math.inf


def _log0(x: float) -> float:
    """ln x, and -inf at 0 and nan below it where ``math.log`` raises."""
    return math.log(x) if x > 0.0 else -math.inf if x == 0.0 else math.nan


# Globals of the generated Jacobian, beside the rhs's
_JACOBIAN_RUNTIME = {**_RUNTIME, "_power": _power, "_log0": _log0, "_inf": math.inf}


# Forward-mode terms: a float is a constant, folded while the source is
# generated (0.0 is a structural zero); a string is Python code.
def _operand(term) -> str:
    if isinstance(term, float):
        return _literal(term)
    return f"({term})" if " " in term else term


def _sum(x, y):
    if isinstance(x, float) and isinstance(y, float):
        return x + y
    if y == 0.0:
        return x
    if x == 0.0:
        return y
    return f"{_operand(x)} + {_operand(y)}"


def _product(x, y):
    if isinstance(x, float) and isinstance(y, float):
        return x * y
    if x == 0.0 or y == 0.0:
        return 0.0
    if x == 1.0 or y == 1.0:
        return y if x == 1.0 else x
    if x == -1.0 or y == -1.0:
        return f"-{_operand(y if x == -1.0 else x)}"
    return f"{_operand(x)} * {_operand(y)}"


def _chain(u, partial, unbounded: bool):
    """The path through one operand: its derivative ``u`` times the node's
    partial derivative by it.  An ``unbounded`` partial may be infinite
    (sqrt at 0); the path is 0 wherever ``u`` is, as an operand that does
    not move contributes nothing."""
    if unbounded and not (isinstance(u, float) or isinstance(partial, float)):
        return f"{u} * {partial} if {u} else 0.0"
    return _product(u, partial)


class _Forward:
    """The ``derive`` of ``dsl._body`` that appends, after each node, its
    derivatives with respect to the states: ``d[j]`` in the local
    ``<node>_<j>`` (forward mode over the straight-line rhs).  ``grads``
    maps a value's expression to its derivatives by state index; an
    expression absent from it (a parameter, time, a literal) is constant."""

    def __init__(self, state_names, lines: list):
        # each state's local in the body (``dsl._body``)
        self.grads = {f"v_{s}": {j: 1.0} for j, s in enumerate(state_names)}
        self.lines = lines

    def _local(self, name: str, term):
        """``term`` as a constant or a name, bound to the local ``name`` if it is code."""
        if isinstance(term, str) and not term.isidentifier():
            self.lines.append(f"{name} = {term}")
            return name
        return term

    def _partials(self, expr, values, grads, out):
        """The node's partial derivative by each operand that has derivatives."""
        if isinstance(expr, Neg):
            return [-1.0]
        x = values[0]
        if isinstance(expr, Call):  # ln: x > 0 wherever the rhs does not raise
            return [{"exp": out, "ln": f"1.0 / {x}", "tanh": f"1.0 - {out} * {out}",
                     "sqrt": f"0.5 / {out} if {out} else _inf"}[expr.func]]
        y = values[1]
        if expr.op in "+-":
            return [1.0, 1.0 if expr.op == "+" else -1.0]
        if expr.op == "*":
            return [y, x]
        if expr.op == "/":  # y != 0 wherever the rhs does not raise
            by_x = 1.0 / y if isinstance(y, float) and y else f"1.0 / {_operand(y)}"
            return [by_x, f"-{out} / {_operand(y)}"]
        by_x = by_y = 0.0  # x^y: y x^(y-1) and x^y ln(x), which -> 0 as x -> 0 with y > 0
        if grads[0] and isinstance(y, float):
            by_x = {0.0: 0.0, 1.0: 1.0, 2.0: _product(2.0, x)}.get(
                y, f"{_literal(y)} * _power({x}, {_literal(y - 1.0)})")
        elif grads[0]:
            by_x = f"{y} * _power({x}, {y} - 1.0)"
        if grads[1]:
            by_y = f"{out} * _log0({_operand(x)}) if {out} else 0.0"
        return [by_x, by_y]

    def __call__(self, expr, args, out):
        grads = [self.grads.get(a, {}) for a in args]
        d = {}
        if isinstance(expr, Call) and expr.func in _PICKS:
            pick = f"{args[1]} {_PICKS[expr.func]} {args[0]}"
            for j in sorted(grads[0].keys() | grads[1].keys()):
                u, v = (g.get(j, 0.0) for g in grads)
                d[j] = u if u == v else f"{_operand(v)} if {pick} else {_operand(u)}"
        elif any(grads):
            # a literal operand takes part in folding as its value
            values = [e.value if isinstance(e, Num) else a
                      for e, a in zip(_children(expr), args)]
            partials = self._partials(expr, values, grads, out)
            for k, (g, partial) in enumerate(zip(grads, partials)):
                if not g:
                    continue
                partial = self._local(f"{out}_{'xy'[k]}", partial)
                # infinite at 0: the partials of sqrt and of x^y (by x for
                # y < 1, by y at 0^0)
                unbounded = (expr.func == "sqrt" if isinstance(expr, Call)
                             else isinstance(expr, BinOp) and expr.op == "^")
                for j, u in g.items():
                    d[j] = _sum(d.get(j, 0.0), _chain(u, partial, unbounded))
        self.grads[out] = {j: self._local(f"{out}_{j}", term)
                           for j, term in sorted(d.items()) if term != 0.0}


def jacobian_source(tree: tuple) -> str:
    """The generated Jacobian of ``tree`` (``dsl.compile_model``'s):
    ``bind(params)`` returns ``jac(t, values)``, the rows df_i/dy_j as lists
    of floats.  Its body is the rhs's (``dsl._body``), each node followed by
    its derivatives (``_Forward``), less the values no derivative reads."""
    lines = []
    forward = _Forward(tree[0], lines)
    rows = []
    for result in _body(tree, "float(t)", "values", lines, forward):
        grad = forward.grads.get(result, {})
        rows.append(f"[{', '.join(_operand(grad.get(j, 0.0)) for j in range(len(tree[0])))}]")
    lines.append(f"return [{', '.join(rows)}]")
    return _bound_source(tree[1], "jac", _live(lines))


def _live(lines) -> list:
    """``lines`` without the unindented assignments whose name no later
    line reads.  Those never raise: every statement that can is inside an
    ``if`` or ``try`` block, and so is kept."""
    live, kept = set(), []
    for line in reversed(lines):
        assigned = re.match(r"(\w+) = ", line)
        if assigned and assigned.group(1) not in live:
            continue
        live.update(re.findall(r"[A-Za-z_]\w*", line))
        kept.append(line)
    return kept[::-1]


def jacobian_function(tree: tuple):
    """The Jacobian ``bind`` of ``tree`` (``jacobian_source``'s argument),
    generated and compiled on each call: a compiled model calls it once
    and keeps what it returns (``dsl._jacobian_binder``)."""
    return _compiled(jacobian_source(tree), "<qssm jacobian>", _JACOBIAN_RUNTIME)["bind"]
