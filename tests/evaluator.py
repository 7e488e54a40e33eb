"""The tree-walking evaluator of ``.qssm`` expressions: the tests' oracle
for the generated code.

``qsslab.dsl`` generates each model's rhs and ``qsslab.derivatives`` its
Jacobian as straight-line Python, node by node in ``eval_expr``'s order.
The generated rhs must return, bit for bit, what ``eval_expr`` returns,
and raise the same ``EvaluationError`` (message and location) where it
raises.  No runtime path walks the tree: ``eval_expr`` lives here, beside
``closedform.py``, and ``BindingError`` with it, its only raiser.
"""
from __future__ import annotations

import math

from qsslab.dsl import BinOp, Call, Expr, Neg, Num, Var
from qsslab.errors import EvaluationError, QsslabError


class BindingError(QsslabError):
    """Expression evaluation referenced an identifier with no bound value."""


def eval_expr(expr: Expr, bindings) -> float:
    """Evaluate an expression under IEEE double semantics.

    Unbound identifiers raise ``BindingError``; division by zero and domain
    violations (negative base with fractional exponent, ln/sqrt of a
    negative) raise ``EvaluationError`` carrying the source location.
    """
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return float(bindings[expr.name])
        except KeyError:
            raise BindingError(f"unbound identifier {expr.name!r} at {expr.loc}") from None
    if isinstance(expr, Neg):
        return -eval_expr(expr.operand, bindings)
    if isinstance(expr, BinOp):
        left = eval_expr(expr.left, bindings)
        right = eval_expr(expr.right, bindings)
        op = expr.op
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0.0:
                    raise EvaluationError(f"division by zero at {expr.loc}", expr.loc)
                return left / right
            if op == "^":
                # right != right: a nan exponent is not an integer either
                if left < 0.0 and (right != right or right != math.floor(right)):
                    raise EvaluationError(
                        f"negative base with non-integer exponent at {expr.loc}", expr.loc
                    )
                return left**right
        except OverflowError:
            raise EvaluationError(f"overflow in {op!r} at {expr.loc}", expr.loc) from None
        except ZeroDivisionError:
            raise EvaluationError(f"division by zero at {expr.loc}", expr.loc) from None
        raise EvaluationError(f"unknown operator {op!r} at {expr.loc}", expr.loc)
    if isinstance(expr, Call):
        args = [eval_expr(a, bindings) for a in expr.args]
        try:
            if expr.func == "exp":
                return math.exp(args[0])
            if expr.func == "ln":
                return math.log(args[0])
            if expr.func == "sqrt":
                return math.sqrt(args[0])
            if expr.func == "tanh":
                return math.tanh(args[0])
            if expr.func == "min":
                return min(args)
            if expr.func == "max":
                return max(args)
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(f"{exc} in {expr.func}() at {expr.loc}", expr.loc) from None
        raise EvaluationError(f"unknown function {expr.func!r} at {expr.loc}", expr.loc)
    raise EvaluationError(f"unknown node {expr!r}", None)
