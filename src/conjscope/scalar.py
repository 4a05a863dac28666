"""Expression language and hyper-dual forward-mode automatic differentiation.

Hyper-dual numbers carry two first-order perturbation directions and their
mixed second-order term, so a single evaluation of an expression yields the
value, two directional derivatives and one mixed second partial.  The
components are floats (the algebra does not nest), and the value slot is
bitwise equal to plain evaluation.  ``second_partials`` is the one seeding
entry point: every other module obtains the derivatives of user-supplied
fields through it, one expression or a whole vector field per call, along
coordinate or arbitrary directions.  The one finite difference in the
package is X(H1) for generic pairs (``pair.flow_derivative_H1``), which needs
a third derivative of the fields along X.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnboundVariable, UnknownFunction

__all__ = [
    "HyperDual",
    "ExprProgram",
    "parse",
    "evaluate",
    "second_partials",
    "const_expr",
    "var_expr",
    "linear_combination",
]


class HyperDual:
    """Truncated algebra over eps1, eps2 with eps1^2 = eps2^2 = 0, eps1*eps2
    kept; all four components are floats."""

    __slots__ = ("re", "e1", "e2", "e12")

    def __init__(self, re, e1=0.0, e2=0.0, e12=0.0):
        self.re = re
        self.e1 = e1
        self.e2 = e2
        self.e12 = e12

    def __repr__(self):
        return f"HyperDual({self.re!r}, {self.e1!r}, {self.e2!r}, {self.e12!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, b):
        if isinstance(b, HyperDual):
            return HyperDual(self.re + b.re, self.e1 + b.e1, self.e2 + b.e2, self.e12 + b.e12)
        return HyperDual(self.re + b, self.e1, self.e2, self.e12)

    __radd__ = __add__

    def __sub__(self, b):
        if isinstance(b, HyperDual):
            return HyperDual(self.re - b.re, self.e1 - b.e1, self.e2 - b.e2, self.e12 - b.e12)
        return HyperDual(self.re - b, self.e1, self.e2, self.e12)

    def __rsub__(self, b):
        return HyperDual(b - self.re, -self.e1, -self.e2, -self.e12)

    def __neg__(self):
        return HyperDual(-self.re, -self.e1, -self.e2, -self.e12)

    def __mul__(self, b):
        if isinstance(b, HyperDual):
            return HyperDual(
                self.re * b.re,
                self.re * b.e1 + self.e1 * b.re,
                self.re * b.e2 + self.e2 * b.re,
                self.re * b.e12 + self.e1 * b.e2 + self.e2 * b.e1 + self.e12 * b.re,
            )
        return HyperDual(self.re * b, self.e1 * b, self.e2 * b, self.e12 * b)

    __rmul__ = __mul__

    # value slots below are computed exactly as plain evaluation computes
    # them, so zero-seed evaluation is bitwise identical to it

    def __truediv__(self, b):
        if isinstance(b, HyperDual):
            r = b.re
            if r == 0.0:
                raise ZeroDivisionError("hyper-dual division by zero")
            q = self.re / r
            inv = 1.0 / r
            inv2 = inv * inv
            return HyperDual(
                q,
                self.e1 * inv - self.re * b.e1 * inv2,
                self.e2 * inv - self.re * b.e2 * inv2,
                self.e12 * inv - (self.e1 * b.e2 + self.e2 * b.e1) * inv2
                - self.re * b.e12 * inv2 + 2.0 * self.re * b.e1 * b.e2 * inv2 * inv,
            )
        return HyperDual(self.re / b, self.e1 / b, self.e2 / b, self.e12 / b)

    def __rtruediv__(self, b):
        r = self.re
        if r == 0.0:
            raise ZeroDivisionError("hyper-dual division by zero")
        q = b / r
        inv = 1.0 / r
        return self._lift(q, -q * inv, 2.0 * q * inv * inv)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("hyper-dual pow requires an integer exponent")
        r = self.re
        f1 = n * r ** (n - 1) if n != 0 else 0.0
        f2 = n * (n - 1) * r ** (n - 2) if n not in (0, 1) else 0.0
        return self._lift(r ** n, f1, f2)

    # -- chain rule for elementary functions --------------------------------

    def _lift(self, f0, f1, f2):
        # f0, f1, f2: value, first and second derivative at self.re
        return HyperDual(
            f0,
            f1 * self.e1,
            f1 * self.e2,
            f1 * self.e12 + f2 * (self.e1 * self.e2),
        )

    def sin(self):
        s, c = math.sin(self.re), math.cos(self.re)
        return self._lift(s, c, -s)

    def cos(self):
        s, c = math.sin(self.re), math.cos(self.re)
        return self._lift(c, -s, -c)

    def tan(self):
        t = math.tan(self.re)
        d = 1.0 + t * t
        return self._lift(t, d, 2.0 * t * d)

    def exp(self):
        v = math.exp(self.re)
        return self._lift(v, v, v)

    def log(self):
        if self.re <= 0.0:
            raise DomainError("log of non-positive value")
        inv = 1.0 / self.re
        return self._lift(math.log(self.re), inv, -inv * inv)

    def sqrt(self):
        if self.re <= 0.0:
            raise DomainError("sqrt of non-positive value (not differentiable at 0)")
        s = math.sqrt(self.re)
        d = 0.5 / s
        return self._lift(s, d, -0.5 * d / self.re)

    def __abs__(self):
        sgn = 1.0 if self.re >= 0.0 else -1.0
        return self._lift(abs(self.re), sgn, 0.0)


def _sin(x):
    return x.sin() if isinstance(x, HyperDual) else math.sin(x)


def _cos(x):
    return x.cos() if isinstance(x, HyperDual) else math.cos(x)


def _tan(x):
    return x.tan() if isinstance(x, HyperDual) else math.tan(x)


def _exp(x):
    return x.exp() if isinstance(x, HyperDual) else math.exp(x)


def _log(x):
    if isinstance(x, HyperDual):
        return x.log()
    if x <= 0.0:
        raise DomainError("log of non-positive value")
    return math.log(x)


def _sqrt(x):
    if isinstance(x, HyperDual):
        return x.sqrt()
    if x < 0.0:
        raise DomainError("sqrt of negative value")
    return math.sqrt(x)


def _abs(x):
    return abs(x)


_FUNCTIONS = {
    "sin": _sin,
    "cos": _cos,
    "tan": _tan,
    "exp": _exp,
    "log": _log,
    "sqrt": _sqrt,
    "abs": _abs,
}


# -- abstract syntax tree ----------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    a: object


@dataclass(frozen=True)
class Add:
    a: object
    b: object


@dataclass(frozen=True)
class Sub:
    a: object
    b: object


@dataclass(frozen=True)
class Mul:
    a: object
    b: object


@dataclass(frozen=True)
class Div:
    a: object
    b: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip leading blanks before reporting
            stripped = pos
            while stripped < len(text) and text[stripped].isspace():
                stripped += 1
            if stripped == len(text):
                break
            raise ExprSyntaxError(stripped, "a number, name or operator")
        kind = m.lastgroup
        value = m.group(kind)
        offset = m.start(kind)
        tokens.append((kind, value, offset))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token stream.

    Precedence (tightest first): pow, unary minus, mul/div, add/sub.  The pow
    exponent must be an integer literal so that differentiation stays within
    the hyper-dual algebra.
    """

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(offset, repr(op))
        return self.take()

    def parse(self):
        node = self.expr()
        kind, _, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(offset, "end of input")
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                rhs = self.factor()
                node = Mul(node, rhs) if value == "*" else Div(node, rhs)
            else:
                return node

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.take()
            return Neg(self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value in ("^", "**"):
            self.take()
            node = Pow(node, self.int_literal())
        return node

    def int_literal(self):
        sign = 1
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.take()
            sign = -1
            kind, value, offset = self.peek()
        if kind != "num" or any(c in value for c in ".eE"):
            raise ExprSyntaxError(offset, "an integer exponent")
        self.take()
        return sign * int(value)

    def atom(self):
        kind, value, offset = self.take()
        if kind == "num":
            return Const(float(value))
        if kind == "name":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in _FUNCTIONS:
                    raise UnknownFunction(value, offset)
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            return Var(value)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(offset, "a number, variable or '('")


def _free_vars(node, seen, order):
    if isinstance(node, Var):
        if node.name not in seen:
            seen.add(node.name)
            order.append(node.name)
    elif isinstance(node, (Neg, Call)):
        _free_vars(node.arg if isinstance(node, Call) else node.a, seen, order)
    elif isinstance(node, (Add, Sub, Mul, Div)):
        _free_vars(node.a, seen, order)
        _free_vars(node.b, seen, order)
    elif isinstance(node, Pow):
        _free_vars(node.base, seen, order)


@dataclass(frozen=True)
class ExprProgram:
    """A parsed expression: the tree plus its variable names in order of
    first appearance.  Immutable; safe to evaluate concurrently."""

    ast: object
    free_vars: tuple

    def __call__(self, bindings):
        return evaluate(self, bindings)

    def pretty(self):
        return _pretty(self.ast, 0)


def parse(text: str) -> ExprProgram:
    """Parse expression text into an ExprProgram.

    Raises ExprSyntaxError (with character offset) or UnknownFunction.
    """
    tokens = _tokenize(text)
    ast = _Parser(tokens).parse()
    order = []
    _free_vars(ast, set(), order)
    return ExprProgram(ast, tuple(order))


# precedence levels for the printer: add=1, mul=2, unary=3, pow=4
def _pretty(node, parent_level):
    if isinstance(node, Const):
        v = node.value
        s = repr(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
        return s if v >= 0 else f"({s})"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Add):
        s = f"{_pretty(node.a, 1)} + {_pretty(node.b, 2)}"
        level = 1
    elif isinstance(node, Sub):
        s = f"{_pretty(node.a, 1)} - {_pretty(node.b, 2)}"
        level = 1
    elif isinstance(node, Mul):
        s = f"{_pretty(node.a, 2)}*{_pretty(node.b, 3)}"
        level = 2
    elif isinstance(node, Div):
        s = f"{_pretty(node.a, 2)}/{_pretty(node.b, 3)}"
        level = 2
    elif isinstance(node, Neg):
        s = f"-{_pretty(node.a, 3)}"
        level = 3
    elif isinstance(node, Pow):
        s = f"{_pretty(node.base, 5)}^{node.exponent}"
        level = 4
    elif isinstance(node, Call):
        return f"{node.fn}({_pretty(node.arg, 0)})"
    else:
        raise TypeError(f"unknown node {node!r}")
    return f"({s})" if level < parent_level else s


def evaluate(prog: ExprProgram, bindings):
    """Evaluate over floats or HyperDual scalars.

    ``bindings`` must cover every free variable; DomainError is raised for
    log/sqrt/division domain failures and carries the offending subexpression.
    """
    for name in prog.free_vars:
        if name not in bindings:
            raise UnboundVariable(name)
    return _eval(prog.ast, bindings)


def _eval(node, env):
    tp = type(node)
    if tp is Const:
        return node.value
    if tp is Var:
        return env[node.name]
    if tp is Add:
        return _eval(node.a, env) + _eval(node.b, env)
    if tp is Sub:
        return _eval(node.a, env) - _eval(node.b, env)
    if tp is Mul:
        return _eval(node.a, env) * _eval(node.b, env)
    if tp is Div:
        den = _eval(node.b, env)
        if (den.re if type(den) is HyperDual else den) == 0.0:
            raise DomainError("division by zero", _pretty(node, 0))
        return _eval(node.a, env) / den
    if tp is Neg:
        return -_eval(node.a, env)
    if tp is Pow:
        base = _eval(node.base, env)
        if node.exponent < 0 and (base.re if type(base) is HyperDual else base) == 0.0:
            raise DomainError("zero base with negative exponent", _pretty(node, 0))
        if isinstance(base, HyperDual):
            return base ** node.exponent
        return float(base) ** node.exponent
    if tp is Call:
        arg = _eval(node.arg, env)
        try:
            return _FUNCTIONS[node.fn](arg)
        except DomainError as err:
            raise DomainError(str(err), _pretty(node, 0)) from None
        except ValueError as err:
            raise DomainError(str(err), _pretty(node, 0)) from None
    raise TypeError(f"unknown node {node!r}")


def _parts(out):
    if isinstance(out, HyperDual):
        return out.re, out.e1, out.e2, out.e12
    return float(out), 0.0, 0.0, 0.0


def second_partials(progs, point, i, j):
    """Value, d/di, d/dj and d2/didj at a real point.

    ``progs`` is one ExprProgram, giving a tuple of four floats, or a
    sequence of them, giving four arrays with one entry per program (the rows
    of a 4 x len(progs) array).  ``point`` maps every free variable to a real.  ``i`` and ``j`` are
    variable names (equal names give the pure second derivative) or mappings
    from name to direction component, which give directional derivatives;
    only the names they mention are seeded, every other binding stays a float.
    """
    di = {i: 1.0} if isinstance(i, str) else i
    dj = {j: 1.0} if isinstance(j, str) else j
    env = dict(point)
    for name in {**di, **dj}:
        env[name] = HyperDual(float(point[name]), float(di.get(name, 0.0)),
                              float(dj.get(name, 0.0)), 0.0)
    if isinstance(progs, ExprProgram):
        return _parts(evaluate(progs, env))
    return np.array([_parts(evaluate(p, env)) for p in progs], dtype=float).reshape(-1, 4).T


# -- small AST builders used by model constructors ---------------------------

def const_expr(value) -> ExprProgram:
    return ExprProgram(Const(float(value)), ())


def var_expr(name) -> ExprProgram:
    return ExprProgram(Var(name), (name,))


def linear_combination(progs, coeffs) -> ExprProgram:
    """Expression for sum(coeffs[k] * progs[k]) with constant coefficients."""
    node = None
    for prog, c in zip(progs, coeffs):
        c = float(c)
        if c == 0.0:
            continue
        term = prog.ast if c == 1.0 else Mul(Const(c), prog.ast)
        node = term if node is None else Add(node, term)
    if node is None:
        return const_expr(0.0)
    order = []
    _free_vars(node, set(), order)
    return ExprProgram(node, tuple(order))
