"""Expression language and forward-mode automatic differentiation by
compiled jet kernels.

Expressions are parsed into immutable trees (``ExprProgram``).  Evaluation and
differentiation run generated straight-line code, one kernel per program or
per sequence of programs (such as the components of a vector field) and per
seeding pattern.  A kernel holds the value statements of its trees, as plain
evaluation computes them, and their tangents (forward mode, Griewank &
Walther, *Evaluating Derivatives*, 2008, ch. 3), derived from the statements
by one set of chain rules (``_Tangent``).  A request is one direction i and a
sequence of directions j (a single j is a sequence of one), served by two
sweeps that visit each statement once for all their directions: one along
every j over the value statements gives d/dj, and one along i over the value
and d/dj statements gives d/di and d2/didj, as d/di of d/dj.  So one call
yields the value, the Jacobian and the Hessian contracted with i of a whole
field.  The value slot is bitwise equal to plain evaluation, d/di does not
depend on the directions j requested with it, and each direction j is
independent of the others.  Derivatives that are statically zero are left
out of the generated code.  A sqrt at 0 has a value and no derivative, so it
raises once it is differentiated.

The generated statements are written out twice.  The scalar kernel runs them
over float locals at one point.  The array kernel runs them over numpy
arrays, one entry per point, so a whole block of a grid costs one call; each
of its columns is bitwise equal to the scalar kernel at that point, and a
failure at any point raises the error of the lowest failing point.  A binding
of arrays selects it.

A field kernel (``field_kernel``) adds a request and an algebra to this.  The
request jets a sequence of programs along a field that the kernel computes
itself (``Along``), such as a vector field X along X(x), whose components are
values of the programs.  The algebra is emitted after the jet, as more
straight-line statements (sums of products in index order), and reads the
state it is called with by position, so one call gives, say, the whole
right-hand side of an ODE (source transformation, Griewank & Walther,
ch. 6).  The ODE right-hand sides and the bracket readers
of ``pair`` and ``jacobi`` run field kernels.  Statements that no output
reads are left out of every kernel, except those that can raise.

Kernels are compiled on first use, once per structure per process: one
process-wide table keyed by the exact trees and seeding (``_TABLE``, bounded,
oldest out first) is the only cache, and every request of the same trees,
such as a rebuilt model's, finds the kernel there; a structure pushed out
compiles again on its next request.  Nothing compiles at parse or build
time, no scalar kernel compiles before its first call at a point and no
array kernel before its first call over points, and the table holds kernels
and the keys derived from trees, never a program.  ``second_partials`` and
``field_kernel`` are the two seeding entry points: every other module
obtains the derivatives of user-supplied fields through them.  A field
kernel may also be requested with its tangent: the same statements followed
by a third sweep, along a direction u of the coordinates, over all of them
(a separate kernel).  That is how ``pair.flow_derivative_H1`` gets the third
derivatives of the fields along X that X(H1) needs, so the package takes no
finite difference.  Statements that need no derivative, such as a linear
solve whose tangent is written out by hand, come after that sweep, as a
second algebra over the outputs and their tangents.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
import re
import threading
import types
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnboundVariable, UnknownFunction

__all__ = [
    "ExprProgram",
    "Along",
    "FieldJet",
    "parse",
    "evaluate",
    "second_partials",
    "field_kernel",
    "run_field",
    "const_expr",
    "var_expr",
]


_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")


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
    exponent must be an integer literal, so a power and each of its
    derivatives are integer powers, defined at every nonzero base.
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
    first appearance.  Immutable; safe to evaluate concurrently.  Its typed
    text (``_text``) is kept on it once rendered."""

    ast: object
    free_vars: tuple
    _typed: str = field(default=None, init=False, repr=False, compare=False)

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



# -- compiled jet kernels -----------------------------------------------------
#
# A kernel is generated from the trees of a sequence of programs and a seeding
# pattern: the names seeded along i, and per direction j the names seeded
# along it.  A seed given as a name has the unit component, written into the
# code; a seed given as a mapping has its components read at call time.
#
# The trees give the value statements alone, with their domain checks, as
# plain evaluation computes them.  Every derivative is a tangent of
# statements (``_Tangent``), taken by sweeps that visit each statement once
# for all their directions: a sweep along every j over the value statements
# gives d/dj, and a sweep along i over the value and d/dj statements gives
# d/di and d2/didj.  d2/didj is d/di of d/dj, so the components of the i
# seed, such as an ``Along`` field's values, are never differentiated.  So
# the value slot is plain evaluation, d/di does not depend on the directions
# j requested with it, and each direction j is independent of the others.
# Identical expressions are computed once.
#
# The same generated statements make two kernels.  The scalar kernel binds
# floats and runs on float locals.  The array kernel binds, per name, a float
# or an array over N points, and every local is then a float or an array.
# Arithmetic is elementwise IEEE in both, so each column of an array call is
# bitwise the scalar call at that point.  numpy's transcendental and power
# loops need not round as libm and Python's float power do (exp, log, tan and
# integer powers differ in the last bit on x86-64 with numpy 2.4), so the
# array kernel applies those functions point by point; sqrt and abs are
# exact and stay ufuncs.  A domain check fires in the array kernel when it holds at any
# point, and any failure of an array call re-runs the scalar kernel point by
# point, which raises the error of the lowest failing point.

@dataclass(frozen=True, eq=False)
class Along:
    """The i seed of a request along a field that the kernel computes
    itself, such as a vector field X jetted along X(x): per seeded name, the
    source of its component, an int (the value of that program of the
    jetted sequence), a str (the value bound to that name) or a float (a
    constant).  Equality is exact: a component 1 (a program) differs from
    1.0 (a constant), and 0.0 from -0.0."""

    components: tuple

    def __eq__(self, other):
        return type(other) is Along and _exact(self) == _exact(other)

    def __hash__(self):
        return hash(_exact(self))


class FieldJet(NamedTuple):
    """The locals of a jet that a field kernel's algebra reads, None where
    statically zero: the seed components of ``along`` in coordinate order,
    and per program its value, and per direction j its d/dj and d2/didj."""

    along: tuple
    val: tuple
    dj: tuple
    dij: tuple


def _array_op(on_array, on_float):
    """One operation of the array kernel: ``on_array`` for an array local,
    ``on_float`` for a float one (a local that no array name reaches)."""
    return lambda a, *args: (on_array(a, *args) if isinstance(a, np.ndarray)
                             else on_float(a, *args))


def _pointwise(fn):
    return lambda a, *args: np.array([fn(v, *args) for v in a.ravel().tolist()]).reshape(a.shape)


def _sign(a):
    return 1.0 if a >= 0.0 else -1.0


_SCALAR_GLOBALS = {
    "_sin": math.sin, "_cos": math.cos, "_tan": math.tan, "_exp": math.exp,
    "_log": math.log, "_sqrt": math.sqrt, "_abs": abs, "_max": max, "_DomainError": DomainError,
    "_INF": math.inf, "_NAN": math.nan,
}

_ARRAY_GLOBALS = {
    **{f"_{fn}": _array_op(_pointwise(getattr(math, fn)), getattr(math, fn))
       for fn in ("sin", "cos", "tan", "exp", "log")},
    "_sqrt": _array_op(np.sqrt, math.sqrt),
    "_abs": _array_op(np.abs, abs),
    "_max": lambda *args: functools.reduce(np.maximum, args),
    "_pow": _array_op(_pointwise(operator.pow), operator.pow),
    "_sign": _array_op(lambda a: np.where(a >= 0.0, 1.0, -1.0), _sign),
    "_where": np.where,
    "_load": _array_op(lambda a: np.asarray(a, dtype=float) if a.ndim else float(a), float),
    "_any": np.any, "_DomainError": DomainError, "_INF": math.inf, "_NAN": math.nan,
}

_SQRT_NEGATIVE = "sqrt of negative value"
_SQRT_AT_ZERO = "sqrt of non-positive value (not differentiable at 0)"


def _literal(value):
    if math.isnan(value):
        return "_NAN"
    if math.isinf(value):
        return "_INF" if value > 0 else "(-_INF)"
    return repr(value) if math.copysign(1.0, value) > 0 else f"({value!r})"


def _number(expr):
    """Value of a literal written by ``_literal`` with a finite value, None
    for any other atom."""
    try:
        return float(expr.strip("()"))
    except ValueError:
        return None


def _is_atom(expr):
    # a local name or a literal; compound expressions all hold a space or a call
    return " " not in expr and (expr.isidentifier() or expr[0].isdigit() or expr.startswith("(-"))


def _chain(*factors):
    """Left-to-right product of atoms; None when a factor is statically zero.
    Unit factors are dropped, which is exact."""
    if None in factors:
        return None
    kept = [f for f in factors if f != "1.0"]
    return " * ".join(kept) if kept else "1.0"


def _sum(*terms):
    """Left-to-right sum of (sign, term) with statically zero terms left out."""
    out = None
    for sign, term in terms:
        if term is None:
            continue
        if out is None:
            out = term if sign == "+" else f"-{term}"
        else:
            out = f"{out} {sign} {term}"
    return out


class _Codegen:
    """Generates the statements of one kernel ``_kernel(env, d1, d2)``:
    ``env`` binds the names, ``d1`` and ``d2[c]`` hold the components of
    mapping seeds.  ``head`` holds the loads as (local, source) and ``body``
    the statements as ("let", local, expr, array expr or None, where) and
    ("check", condition, message, where); ``_source`` writes them out
    as the scalar or the array kernel.  ``gen`` emits the value statements
    of a tree; their derivatives are emitted by ``_Tangent``."""

    def __init__(self):
        self.head = []
        self.body = []
        self.memo = {}
        self.names = {}
        self.checks = set()
        self.trees = {}
        self.negations = {}             # a local holding -u: u

    def emit(self, expr, where=None, array=None):
        """Local holding ``expr`` (``array`` in the array kernel, when they
        differ); with ``where``, a ValueError of the expression (a math call
        on an infinite argument) is a DomainError."""
        if expr is None or _is_atom(expr):
            return expr
        if expr[0] == "-" and (value := _number(expr[1:])) is not None:
            return _literal(-value)         # a negated literal is a literal
        name = self.memo.get(expr)
        if name is None:
            name = self.memo[expr] = f"t{len(self.memo)}"
            self.body.append(("let", name, expr, array, where))
            if expr[0] == "-" and _is_atom(expr[1:]):
                self.negations[name] = expr[1:]
        return name

    def negate(self, v):
        """Local or literal of -v, None for a statically zero v: u when v
        holds -u (IEEE negation is exact)."""
        return None if v is None else self.negations.get(v) or self.emit(f"-{v}")

    def tree(self, expr):
        """The syntax tree of the expression of a statement, parsed once."""
        node = self.trees.get(expr)
        if node is None:
            node = self.trees[expr] = ast.parse(expr, mode="eval").body
        return node

    def check(self, cond, message, where):
        """A DomainError(message, where) when ``cond`` holds; ``where`` is
        the failing expression, as text or as its node."""
        # a repeated check cannot fire: the first one would have
        if (cond, message) not in self.checks:
            self.checks.add((cond, message))
            self.body.append(("check", cond, message,
                              where if isinstance(where, str) else _pretty(where, 0)))

    def load(self, name, source=None):
        """Local of ``name``, bound by ``env`` or, with ``source``, read
        from the state (``w[k]``); a state entry is keyed by its position."""
        if name not in self.names:
            self.names[name] = f"x{len(self.names)}"
            self.head.append((self.names[name], source or f"env[{name!r}]"))
        return self.names[name]

    def state(self, k):
        """Local of entry k of the state ``w`` of a field kernel."""
        return self.load(k, f"w[{k}]")

    def seed(self, key, source):
        """The tangents of the loaded names along the seed ``key``: the unit
        component of a name, or each component of a mapping, read from
        ``source`` at call time."""
        if isinstance(key, str):
            return {self.names[key]: "1.0"} if key in self.names else {}
        tangents = {}
        for name, local in self.names.items():
            if name in key:
                tangents[local] = f"s{len(self.head)}"
                self.head.append((tangents[local], f"{source}[{name!r}]"))
        return tangents

    def dot(self, pairs):
        """Local of the sum of the products a * b of ``pairs``, left to right,
        with statically zero products left out; None when all are."""
        return self.emit(_sum(*(("+", _chain(a, b)) for a, b in pairs)))

    def combine(self, *terms):
        """Local of the left-to-right sum of (sign, local) terms."""
        return self.emit(_sum(*terms))

    def gen(self, node):
        """Local or literal of the value of ``node``, with its checks."""
        tp = type(node)
        if tp is Const:
            return _literal(node.value)
        if tp is Var:
            return self.names[node.name]
        if tp is Neg:
            return self.emit(f"-{self.gen(node.a)}")
        if tp is Add or tp is Sub or tp is Mul:
            a, b = self.gen(node.a), self.gen(node.b)
            return self.emit(f"{a} {'+' if tp is Add else '-' if tp is Sub else '*'} {b}")
        if tp is Div:
            # the denominator is evaluated and checked before the numerator
            b = self.gen(node.b)
            if _number(b) in (None, 0.0):
                self.check(f"{b} == 0.0", "division by zero", node)
            return self.emit(f"{self.gen(node.a)} / {b}")
        if tp is Pow:
            r, k = self.gen(node.base), node.exponent
            if k < 0:
                self.check(f"{r} == 0.0", "zero base with negative exponent", node)
            if k in (0, 1):
                return "1.0" if k == 0 else r
            return self.emit(f"{r} ** {k}", array=f"_pow({r}, {k})")
        if tp is Call:
            r, fn = self.gen(node.arg), node.fn
            if fn == "log":
                self.check(f"{r} <= 0.0", "log of non-positive value", node)
            elif fn == "sqrt":
                self.check(f"{r} < 0.0", _SQRT_NEGATIVE, node)
            where = _pretty(node, 0) if fn in ("sin", "cos", "tan") else None
            return self.emit(f"_{fn}({r})", where)
        raise TypeError(f"unknown node {node!r}")


_LOCAL_RE = re.compile(r"\b[a-z]\d+\b")


def _live(body, outputs):
    """The statements of ``body`` that ``outputs`` read, with every check and
    every statement that can raise (a math call with ``where``, a power)."""
    need = set(_LOCAL_RE.findall(" ".join(outputs)))
    kept = []
    for stmt in reversed(body):
        if stmt[0] == "check":
            text = stmt[1]
        else:
            _, name, expr, array_expr, where = stmt
            if name not in need and where is None and " ** " not in expr:
                continue
            text = f"{expr} {array_expr or ''}"
        need.update(_LOCAL_RE.findall(text))
        kept.append(stmt)
    return kept[::-1]


def _source(head, body, outputs, array, args):
    """Text of the scalar or the array kernel of the statements of a
    ``_Codegen``, returning ``outputs``; statements they do not read are left
    out (``_live``).  ``args`` is ``"env, d1, d2"``, or ``"w, env"`` for a
    field kernel, whose scalar kernel reads the floats of ``w`` as they are."""
    lines = [f"def _kernel({args}):"]
    for local, src in head:
        load = "_load" if array else "" if src.startswith("w[") else "float"
        lines.append(f"    {local} = {load}({src})" if load else f"    {local} = {src}")
    for kind, *rest in _live(body, outputs):
        if kind == "check":
            cond, message, where = rest
            lines.append(f"    if {f'_any({cond})' if array else cond}: "
                         f"raise _DomainError({message!r}, {where!r})")
            continue
        name, expr, array_expr, where = rest
        if array:
            lines.append(f"    {name} = {array_expr or expr}")
        elif where is None:
            lines.append(f"    {name} = {expr}")
        else:
            lines += ["    try:", f"        {name} = {expr}",
                      "    except ValueError as err:",
                      f"        raise _DomainError(str(err), {where!r}) from None"]
    lines.append(f"    return ({''.join(o + ', ' for o in outputs)})")
    return "\n".join(lines)


# -- tangent sweeps -----------------------------------------------------------
#
# A sweep derives the tangents of statements from the statements themselves,
# each parsed once (forward mode, Griewank & Walther, *Evaluating
# Derivatives*, 2008, ch. 3): sums and differences term by term, products by
# the product rule, a quotient v = a / b as (da - v db) / b, an integer power
# and sin, cos, tan, exp, log and sqrt by their derivatives, abs by its sign,
# taken as +1 at 0, and that sign, a step, with tangent zero.  It visits every
# statement of the kernel so far once for all its directions, and its
# statements follow them and reuse their locals.  None of them fails where
# the statements it differentiates do not, except at a sqrt at 0, whose
# check becomes the check at 0 in place once its argument has a tangent, and
# at a power whose derivative overflows, which raises OverflowError as
# evaluation does.  The jet of a request is two sweeps; a tangent kernel
# sweeps once more, along u, over the whole field kernel, so the jet's seed
# values, such as an ``Along`` field, carry their own tangents there.

class _Tangent:
    """One sweep of the statements of ``gen`` along the directions of
    ``seeds``, each a mapping from locals to their tangents."""

    def __init__(self, gen, seeds):
        self.gen = gen
        self.tans = list(seeds)
        self.text = ""         # the expression of the statement being differentiated

    def run(self):
        """The tangents of the locals per direction, a local or a literal,
        absent where statically zero; the statements of ``gen`` gain them at
        their end."""
        gen, live = self.gen, [tan for tan in self.tans if tan]
        if not live:
            return self.tans
        body, gen.body = gen.body, []
        for k, stmt in enumerate(body):
            if stmt[0] == "check":
                _, cond, message, where = stmt
                arg = cond.split(" ")[0]
                if message == _SQRT_NEGATIVE and any(arg in tan for tan in live):
                    body[k] = ("check", f"{arg} <= 0.0", _SQRT_AT_ZERO, where)
                continue
            node, own, self.text = gen.tree(stmt[2]), stmt[1], stmt[2]
            for tan in live:
                d = self.d(node, tan, own)
                if d is not None:
                    tan[own] = d
        gen.body = body + gen.body
        return self.tans

    def value(self, node, own=None):
        """Local or literal of the value of ``node``, a part of the statement
        being differentiated: ``own`` when given."""
        if own is not None:
            return own
        text = self.text[node.col_offset:node.end_col_offset]
        if type(node) is ast.UnaryOp and type(node.operand) is ast.Constant:
            return f"({text})"
        return self.gen.emit(text)

    def d(self, node, tan, own=None):
        """Tangent of the value of ``node`` (held by ``own``, if a local)
        along the direction of ``tan``; None where statically zero."""
        emit, tp = self.gen.emit, type(node)
        if tp is ast.Name:
            return tan.get(node.id)
        if tp is ast.Constant or tp is ast.IfExp:
            return None
        if tp is ast.UnaryOp:
            da = self.d(node.operand, tan)
            return None if da is None else emit(f"-{da}")
        if tp is ast.Call:
            return self.call(node, tan, own)
        op = type(node.op)
        da, db = self.d(node.left, tan), self.d(node.right, tan)
        if da is None and db is None:
            return None
        if op is ast.Add or op is ast.Sub:
            return emit(_sum(("+", da), ("+" if op is ast.Add else "-", db)))
        if op is ast.Pow:
            a, k = self.value(node.left), ast.literal_eval(node.right)
            p = a if k == 2 else emit(f"{a} ** {k - 1}", array=f"_pow({a}, {k - 1})")
            return emit(_chain(_literal(float(k)), p, da))
        b = self.value(node.right)
        if op is ast.Mult:
            return emit(_sum(("+", _chain(da, b)), ("+", _chain(self.value(node.left), db))))
        # a quotient, (da - v db) / b in one statement
        top = _sum(("+", da), ("-", _chain(self.value(node, own), db)))
        return emit(f"({top}) / {b}" if " + " in top or " - " in top else f"{top} / {b}")

    def call(self, node, tan, own):
        arg = node.args[0]
        da = self.d(arg, tan)
        if da is None:
            return None
        emit, fn = self.gen.emit, node.func.id
        a, v = self.value(arg), self.value(node, own)
        if fn == "_sin":
            f1 = emit(f"_cos({a})")
        elif fn == "_cos":
            f1 = emit(f"-{emit(f'_sin({a})')}")
        elif fn == "_tan":
            f1 = emit(f"1.0 + {v} * {v}")
        elif fn == "_exp":
            f1 = v
        elif fn == "_log":
            return emit(f"{da} / {a}")
        elif fn == "_sqrt":
            f1 = emit(f"0.5 / {v}")
        elif fn == "_abs":
            f1 = emit(f"1.0 if {a} >= 0.0 else -1.0", array=f"_sign({a})")
        else:               # such as _max, which no sweep differentiates
            raise TypeError(f"no tangent rule for {fn}")
        return emit(_chain(f1, da))


def _jets(progs, key, coords=()):
    """The ``_Codegen`` of the jets of ``progs`` for ``key``, None (plain
    values) or (i seed, j seeds), with the names in ``coords`` read from the
    state by position; their ``FieldJet``, and per program its d/di."""
    gen = _Codegen()
    for k, name in enumerate(coords):
        gen.load(name, f"w[{k}]")
    for prog in progs:
        for name in prog.free_vars:
            gen.load(name)
    val = [gen.gen(prog.ast) for prog in progs]
    ikey, jkeys = (None, ()) if key is None else key
    tj = _Tangent(gen, [gen.seed(jk, f"d2[{c}]") for c, jk in enumerate(jkeys)]).run()
    dj = [tuple(tan.get(v) for tan in tj) for v in val]
    along = {}
    if isinstance(ikey, Along):
        along = {name: (val[src] if type(src) is int else
                        gen.load(src) if isinstance(src, str) else _literal(float(src)))
                 for name, src in ikey.components}
        iseed = {gen.names[name]: c for name, c in along.items() if name in gen.names}
    else:
        iseed = {} if ikey is None else gen.seed(ikey, "d1")
    ti, = _Tangent(gen, [iseed]).run()
    jet = FieldJet(along=tuple(along.get(name) for name in coords), val=tuple(val), dj=tuple(dj),
                   dij=tuple(tuple(ti.get(d) for d in row) for row in dj))
    return gen, jet, [ti.get(v) for v in val]


def _compile(progs, key):
    """Kernels of the sequence ``progs`` for ``key``: None (plain values),
    (i seed, j seeds), or (coords, i seed, j names, algebra, extra, tangent)
    for a field kernel (``field_kernel``)."""
    if key is not None and len(key) == 6:
        coords, ikey, jkeys, algebra, extra, tangent = key
        gen, jet, _ = _jets(progs, (ikey, jkeys), coords)
        out = list(algebra(gen, jet, *extra))
        if tangent:
            n, useed = len(coords), {}
            for local, src in list(gen.head):
                if src.startswith("w["):
                    k = int(src[2:-1])
                    if k >= n:
                        raise ValueError("a tangent kernel reads no state beyond its coordinates")
                    useed[local] = gen.state(n + k)
            tu, = _Tangent(gen, [useed]).run()
            d_out = [tu.get(o) for o in out]
            out = out + d_out if tangent is True else tangent(gen, jet, out, d_out)
        return _Kernel(gen, ["0.0" if o is None else o for o in out], "w, env")
    gen, jet, di = _jets(progs, key)
    out = list(jet.val)
    if key is not None:
        out += di + [d for row in jet.dj for d in row] + [d for row in jet.dij for d in row]
    return _Kernel(gen, out, "env, d1, d2")


class _Kernel:
    """The two kernels of one sequence and key.  Both return the flat
    outputs that are not statically zero; ``live`` holds their positions in
    the flat output (``index`` as an array, None when every output is
    returned) and ``size`` its length.  Both sources are written from the
    same statements with the object, and each kernel is compiled on its
    first call: the scalar kernel over one point, the array kernel over
    points."""

    def __init__(self, gen, out, args):
        live = [k for k, o in enumerate(out) if o is not None]
        outputs = [out[k] for k in live]
        self.live = live
        self.index = None if len(live) == len(out) else np.array(live, dtype=np.intp)
        self.size = len(out)
        self._sources = {"_scalar": _source(gen.head, gen.body, outputs, False, args),
                         "_array": _source(gen.head, gen.body, outputs, True, args)}
        self._scalar = self._array = None

    @property
    def scalar(self):
        if self._scalar is None:
            self._publish("_scalar", _SCALAR_GLOBALS)
        return self._scalar

    @property
    def array(self):
        if self._array is None:
            self._publish("_array", _ARRAY_GLOBALS)
        return self._array

    def _publish(self, name, namespace_globals):
        # the source is dropped only once the kernel is set, so a thread
        # that finds no source finds the kernel; one thread builds it
        with _LOCK:
            source = self._sources.get(name)
            if source is not None:
                setattr(self, name, _build(source, namespace_globals))
                self._sources.pop(name)


def _build(source, namespace_globals):
    namespace = {}
    exec(compile(source, "<jet kernel>", "exec"), namespace_globals, namespace)
    return namespace["_kernel"]


# -- the process-wide kernel table --------------------------------------------
#
# A kernel depends on the trees and free variables of its sequence and on its
# key alone, so every request looks it up here by those, and a model rebuilt
# from the same trees compiles nothing.  Dataclass equality is not exact
# enough for that: Const(0.0) == Const(-0.0), and an Along component 1 (a
# program) == 1.0 (a constant).  So the table's keys are built from types and
# float bits: a program by its typed text (``_text``), which is compact, and
# the seeding key by typed tuples (``_exact``), in which an algebra stands for
# itself.  The table holds those keys and the kernels, never a program, and
# keeps the _TABLE_SIZE newest.

_TABLE_SIZE = 256
_TABLE = {}
_LOCK = threading.Lock()        # the table, and each kernel's first build
_NODES = frozenset((Const, Var, Neg, Add, Sub, Mul, Div, Pow, Call))
_ATOMS = frozenset((bool, int, str, type(None)))


def _text(obj):
    """Typed text of a program or a tree: each node's type and fields, a
    float by its bits (``float.hex``), any other leaf by its repr.  A
    program's is rendered once and kept on it."""
    tp = type(obj)
    if tp in _NODES:
        return f"{tp.__name__}({','.join(map(_text, obj.__dict__.values()))})"
    if tp is float:
        return obj.hex()
    if tp is ExprProgram:
        if obj._typed is None:      # a race renders it twice, to the same text
            object.__setattr__(obj, "_typed", f"{_text(obj.ast)}:{obj.free_vars!r}")
        return obj._typed
    return repr(obj)


def _exact(obj):
    """Hashable key of a seeding key or a part of one, equal only for the
    same types and the same float bits."""
    tp = type(obj)
    if tp is float:
        return tp, obj.hex()
    if tp in _ATOMS:
        return tp, obj
    if tp is tuple:
        return (tp, *map(_exact, obj))
    if tp is Along:
        return tp, _exact(obj.components)
    if tp is types.FunctionType:
        return obj
    raise TypeError(f"no exact kernel key for {tp.__name__}")


def _kernel(progs, key):
    """The kernel of one program or a sequence of them for ``key`` from the
    table, compiled (and the oldest dropped past the bound) when the table
    has none."""
    seq = (progs,) if isinstance(progs, ExprProgram) else tuple(progs)
    exact = (tuple(map(_text, seq)), _exact(key))
    with _LOCK:
        kernel = _TABLE.get(exact)
        if kernel is None:
            kernel = _TABLE[exact] = _compile(seq, key)
            if len(_TABLE) > _TABLE_SIZE:
                del _TABLE[next(iter(_TABLE))]
    return kernel


def _count(point):
    """Number of points of a point of arrays; None for a point of reals."""
    for v in point.values():
        if isinstance(v, np.ndarray) and v.ndim:
            return len(v)
    return None


def _select(binding, k):
    """Point k of a binding or a mapping seed of arrays; names pass through."""
    if binding is None or isinstance(binding, str):
        return binding
    return {name: v[k] if isinstance(v, np.ndarray) and v.ndim else v
            for name, v in binding.items()}


_EVAL_ERRORS = (DomainError, ValueError, OverflowError, ZeroDivisionError)


def _run(progs, key, point, i, cols):
    """The kernel of ``progs`` for ``key``, its outputs that are not
    statically zero at ``point`` and the number of points: floats and None
    at a point of reals; at a point of arrays over N points, arrays over
    them (or floats, which hold at every point) and N.  One point runs the
    scalar kernel."""
    kernel = _kernel(progs, key)
    count = _count(point)
    try:
        if count is None:
            return kernel, kernel.scalar(point, i, cols), None
        at = lambda k: (_select(point, k), _select(i, k),
                        None if cols is None else tuple(_select(c, k) for c in cols))
        return kernel, _run_points(kernel, (point, i, cols), at, count), count
    except KeyError as err:
        raise UnboundVariable(err.args[0]) from None


def _run_points(kernel, args, at, count):
    """Outputs of ``kernel`` at ``args`` over ``count`` points, whose
    point k has the scalar arguments ``at(k)``."""
    if count == 1:
        return kernel.scalar(*at(0))
    try:
        with np.errstate(all="ignore"):
            return kernel.array(*args)
    except _EVAL_ERRORS:
        for k in range(count):        # the lowest failing point raises its own error
            kernel.scalar(*at(k))
        raise


def _rows(kernel, live, count):
    """The flat outputs of an array call over ``count`` points as a
    (size, count) array, written one output (one row) at a time; the rows
    of outputs that are statically zero stay zero."""
    rows = np.zeros((kernel.size, count))
    for r, value in zip(kernel.live, live):
        rows[r] = value
    return rows


def _points(rows, *shape):
    """``rows`` of ``_rows`` with the point axis first and ``shape`` after
    it, C-contiguous."""
    return rows.T.copy().reshape(-1, *shape)


def evaluate(progs, bindings):
    """Value of one program (a float) or of a sequence of them (an array).

    ``bindings`` must cover every free variable with a real, or with arrays
    over N points (names that are reals hold at every point), which gives
    N values (an N x k array for a sequence).  Derivatives come from
    ``second_partials``.  DomainError is raised for log/sqrt/division domain
    failures and carries the offending subexpression."""
    kernel, live, count = _run(progs, None, bindings, None, None)
    if count is None:
        return live[0] if isinstance(progs, ExprProgram) else np.array(live, dtype=float)
    rows = _rows(kernel, live, count)
    return rows[0] if isinstance(progs, ExprProgram) else _points(rows, kernel.size)


def _seed_key(d):
    return d if isinstance(d, str) else tuple(d)


def second_partials(progs, point, i, j):
    """Value, d/di, d/dj and d2/didj at a real point, or at N points.

    ``progs`` is one ExprProgram or a sequence of them.
    ``point`` maps every free variable to a real.  ``i`` and ``j`` are
    variable names (equal names give the pure second derivative) or mappings
    from name to direction component, which give directional derivatives;
    only the names they mention are seeded.  ``j`` may also be a sequence of
    names or mappings.

    A sequence of ncols directions j gives the value and d/di (floats, or
    arrays of k for a sequence of k programs), then d/dj and d2/didj with one
    entry per direction (ncols, or k x ncols arrays).  A single j is the
    request of one direction and gives its column: four floats for one
    program, four arrays (the rows of a 4 x k array) for k.  d/di is the
    tangent of the values along i alone, d/dj the tangent along its j alone
    and d2/didj the tangent of d/dj along i, so no output depends on the
    other directions requested with it.

    A point of arrays over N points (and direction components that are
    reals or such arrays) runs the array kernel once and gives every output
    above with a leading axis of length N, each row bitwise equal to the
    call at that point."""
    one = isinstance(j, (str, Mapping))
    cols = (j,) if one else tuple(j)
    kernel, live, N = _run(progs, (_seed_key(i), tuple(_seed_key(c) for c in cols)),
                           point, i, cols)
    single = isinstance(progs, ExprProgram)
    nc = len(cols)
    k = kernel.size // (2 + 2 * nc)
    if N is None:
        if kernel.index is None:
            flat = np.array(live, dtype=float)
        else:
            flat = np.zeros(kernel.size)
            flat[kernel.index] = live
        if one:
            return tuple(flat.tolist()) if single else flat.reshape(4, -1)
        if single:
            return (*flat[:2].tolist(), flat[2:2 + nc], flat[2 + nc:])
        e2 = flat[2 * k:].reshape(2, k, nc)
        return flat[:k], flat[k:2 * k], e2[0], e2[1]
    # a point of arrays: the same outputs with a leading point axis
    rows, head = _rows(kernel, live, N), () if single else (k,)
    if one:
        parts = [_points(part, *head) for part in np.split(rows, 4)]
        return tuple(parts) if single else np.array(parts)
    first, second = np.split(rows, [2 * k])
    return (*(_points(part, *head) for part in np.split(first, 2)),
            *(_points(part, *head, nc) for part in np.split(second, 2)))


def field_kernel(progs, coords, i, j, algebra, *extra, tangent=False):
    """The field kernel of ``algebra`` over the jet of the sequence of
    programs ``progs`` seeded along ``i`` (an ``Along``, or None for no i) and each name of
    ``j``.  Its state ``w`` binds the names of ``coords`` by position, and
    ``env`` every other name.  ``algebra(gen, jet, *extra)`` emits the
    statements that combine the jet (a ``FieldJet``) through ``gen.emit``,
    ``gen.dot``, ``gen.combine``, ``gen.negate`` and ``gen.check``, reads
    further entries of the state through ``gen.state``, and returns the
    output locals; one kernel call gives them all (``run_field``), or raises
    the DomainError of a check that holds.  With ``tangent`` the state
    holds, after the coordinates, a direction u (one component per
    coordinate; the algebra then reads no further state), and the outputs
    are followed by their derivatives along u, exact to rounding (a
    separate kernel).
    ``tangent`` may also be an algebra, ``tangent(gen, jet, out, d_out)``,
    emitted after the sweep and so never differentiated, which combines
    the outputs ``out`` and their derivatives ``d_out`` (locals, None where
    statically zero) and returns the kernel's outputs in their place.
    Compiled on first use, once per structure per process, and kept in
    the kernel table, not on ``progs``."""
    return _kernel(progs, (tuple(coords), i, tuple(j), algebra, extra, tangent))


def run_field(kernel, w, env, count=None):
    """Outputs of a field kernel as an array: (size,) at a state ``w`` of
    floats (a list, as ``ndarray.tolist`` gives), (count, size) at a state
    whose entries are floats or arrays over ``count`` points.  Raises as
    ``evaluate`` does."""
    try:
        if count is None:
            return np.fromiter(kernel.scalar(w, env), float)
        at = lambda k: ([float(v[k]) if isinstance(v, np.ndarray) and v.ndim else float(v)
                         for v in w], env)
        live = _run_points(kernel, (w, env), at, count)
    except KeyError as err:
        raise UnboundVariable(err.args[0]) from None
    return _points(_rows(kernel, live, count), kernel.size)


# -- small AST builders used by model constructors ---------------------------

def _const_node(value):
    """A negative constant is built as the negation of its magnitude, the
    tree the parser gives for its printed form (IEEE negation is exact)."""
    value = float(value)
    return Neg(Const(-value)) if math.copysign(1.0, value) < 0 else Const(value)


def const_expr(value) -> ExprProgram:
    return ExprProgram(_const_node(value), ())


def var_expr(name) -> ExprProgram:
    return ExprProgram(Var(name), (name,))

