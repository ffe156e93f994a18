"""Tiny arithmetic expression compiler for config-defined problems.

Coefficient, forcing, data and boundary functions can be written as plain
text like "0.5*sigma**2*S**2" or "max(S - 10, 0)". The grammar is a strict
whitelist over Python expression syntax: numbers, the declared variable
names, +, -, *, /, **, unary minus, and a handful of math calls. Anything
else (attributes, subscripts, comprehensions, names outside the whitelist)
is rejected at compile time, so config files cannot smuggle code.

Compilation walks the tree once: each node is checked and turned into an
evaluator closure, and numeric literals become float64 there, so an integer
literal past the float range is a compile error.

Compiled callables broadcast over numpy arrays. Scalars are evaluated as
numpy float64 too, so a division by zero or an overflow gives inf or nan
(with numpy's warning) rather than a Python exception.
"""

from __future__ import annotations

import ast
import math
from typing import Callable, Sequence

import numpy as np


class ExpressionError(ValueError):
    """Raised when an expression fails to parse or uses unknown syntax."""


_FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "abs": np.abs,
    "max": np.maximum,
    "min": np.minimum,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a ** b,
}


# an evaluator calls one level deeper per tree level, from deep inside the
# solver's call stack, so the depth stays far below the interpreter's
# recursion limit; 200 is also CPython's limit on nested parentheses
_MAX_DEPTH = 200


def _compile(node: ast.AST, variables: Sequence[str], depth: int) -> Callable[[dict], object]:
    """Check node against the grammar and return its evaluator, env -> value."""
    if depth > _MAX_DEPTH:
        raise ExpressionError(f"expression nests deeper than {_MAX_DEPTH} levels")
    depth += 1
    if isinstance(node, ast.Expression):
        return _compile(node.body, variables, depth)
    if isinstance(node, ast.BinOp):
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise ExpressionError(f"operator {type(node.op).__name__} is not allowed")
        left = _compile(node.left, variables, depth)
        right = _compile(node.right, variables, depth)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.UAdd, ast.USub)):
            raise ExpressionError(f"operator {type(node.op).__name__} is not allowed")
        operand = _compile(node.operand, variables, depth)
        if isinstance(node.op, ast.USub):
            return lambda env: -operand(env)
        return lambda env: +operand(env)
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ExpressionError(f"constant {node.value!r} is not a number")
        try:
            value = np.float64(node.value)
        except OverflowError:
            raise ExpressionError("integer constant is too large for a float") from None
        return lambda env: value
    if isinstance(node, ast.Name):
        name = node.id
        if name in variables:
            return lambda env: env[name]
        if name not in _CONSTANTS:
            raise ExpressionError(f"unknown name {name!r}; variables here are {tuple(variables)}")
        value = _CONSTANTS[name]
        return lambda env: value
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError("only calls to " + ", ".join(sorted(_FUNCTIONS)) + " are allowed")
        if node.keywords:
            raise ExpressionError("keyword arguments are not allowed")
        arity = 2 if node.func.id in ("max", "min") else 1
        if len(node.args) != arity:
            raise ExpressionError(f"{node.func.id} takes exactly {arity} argument(s)")
        fn = _FUNCTIONS[node.func.id]
        args = [_compile(arg, variables, depth) for arg in node.args]
        return lambda env: fn(*[arg(env) for arg in args])
    raise ExpressionError(f"syntax {type(node).__name__} is not allowed")


def compile_expression(text: str, variables: Sequence[str]) -> Callable:
    """Compile text into f(*variable_values); broadcasts over arrays.

    Raises ExpressionError with the offending token named when the text
    does not fit the grammar.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc.msg}") from exc
    except ValueError as exc:  # e.g. lone surrogates that cannot be encoded
        raise ExpressionError(f"cannot parse {text!r}: {exc}") from None
    except (RecursionError, MemoryError):
        # the parser gives up on deep nesting with either error
        raise ExpressionError(f"expression nests deeper than {_MAX_DEPTH} levels") from None
    evaluate = _compile(tree, variables, 0)

    def fn(*args):
        if len(args) != len(variables):
            raise TypeError(f"expected {len(variables)} argument(s), got {len(args)}")
        env = {name: np.asarray(val, dtype=float) if np.ndim(val) else np.float64(val)
               for name, val in zip(variables, args)}
        return evaluate(env)

    fn.__doc__ = f"compiled expression: {text!r} over {tuple(variables)}"
    return fn
