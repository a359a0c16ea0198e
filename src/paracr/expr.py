"""Parser and evaluator for closed-form scalar component functions.

Grammar (whitespace insignificant)::

    expression := term (('+'|'-') term)*          left associative
    term       := factor (('*'|'/') factor)*      left associative
    factor     := '-' factor | power
    power      := atom ('^' exponent)?            exponent is an integer
    exponent   := ['-'] INT ('^' exponent)?       right associative, folded
    atom       := NUMBER | IDENT | IDENT '(' expression ')' | '(' expression ')'

Precedence: ``^`` > unary ``-`` > ``*``/``/`` > ``+``/``-``.  Function
application requires parentheses.  The function table is fixed (sinh, cosh,
tanh, exp, ln, sqrt); any other identifier must be a chart coordinate, and
unknown identifiers are rejected rather than treated as implicit variables.
An expression nests at most ``_MAX_DEPTH`` levels, as a tree and as the
parser descends into parentheses, calls, unary minuses and exponents;
deeper text is a ParseError.

ASTs are immutable (frozen dataclasses) and compare structurally; evaluation
is structural recursion over plain floats or batched Taylor jets (one
walk of the tree serves a whole batch of points).  Each operator node's
``apply`` performs its own operation on already evaluated operands.
:class:`SharedTrees` evaluates the component expressions of one
structure together: equal subtrees are evaluated once per batch, and
sinh(u) and cosh(u) share one evaluation, but nothing is rewritten
algebraically, so every value has the bits of evaluating its own tree
as written.  :func:`diff` builds the AST of a partial derivative,
folding zeros and constants as it goes.
"""

import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from typing import Union

from . import jets
from .errors import ParseError, UnknownVariable, ValidationError

__all__ = [
    "Const",
    "Var",
    "Neg",
    "Call",
    "Bin",
    "Pow",
    "Expr",
    "FUNCTIONS",
    "parse",
    "EntryParser",
    "read_block",
    "SharedTrees",
    "variables",
    "diff",
    "tree_depth",
]

FUNCTIONS = {
    "sinh": jets.sinh,
    "cosh": jets.cosh,
    "tanh": jets.tanh,
    "exp": jets.exp,
    "ln": jets.ln,
    "sqrt": jets.sqrt,
}

_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": jets.div,
}

_MAX_EXPONENT = 1000

# Levels an expression may nest: the depth of its tree (a leaf is one
# level), and the parser's nesting of parentheses, calls, unary minuses
# and exponents.  Preset and bench-spec trees are at most 12 deep; the
# bound keeps every recursion over a tree (parsing, interning,
# evaluation, diff) far below Python's recursion limit.
_MAX_DEPTH = 100


@dataclass(frozen=True)
class Const:
    value: float
    operands = ()


@dataclass(frozen=True)
class Var:
    name: str
    index: int
    operands = ()


@dataclass(frozen=True)
class Neg:
    arg: "Expr"

    @property
    def operands(self):
        return (self.arg,)

    def apply(self, a):
        return -a


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"

    @property
    def operands(self):
        return (self.arg,)

    def apply(self, a):
        return FUNCTIONS[self.fn](a)


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"

    @property
    def operands(self):
        return (self.left, self.right)

    def apply(self, a, b):
        return _BINARY[self.op](a, b)


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int

    @property
    def operands(self):
        return (self.base,)

    def apply(self, a):
        return jets.powi(a, self.exponent)


Expr = Union[Const, Var, Neg, Call, Bin, Pow]


# -- shared evaluation of a structure's trees -----------------------------

_LEAVES = (Const, Var)
_NODES = (Const, Var, Neg, Call, Bin, Pow)
_TWINS = ("sinh", "cosh")


def _nested(fn, entries):
    """``fn`` applied to every node of a nested list, nested alike."""
    if isinstance(entries, (list, tuple)):
        return [_nested(fn, e) for e in entries]
    return fn(entries)


def _key(value):
    """A key that tells apart fields of different bits (0.0 and -0.0,
    1 and 1.0; a NaN matches only itself): an operator node by its
    identity, a leaf or a plain value by its exact value."""
    if isinstance(value, Const):
        value = value.value
    elif isinstance(value, Var):
        return Var, value.index
    elif isinstance(value, _NODES):
        return id(value)
    if isinstance(value, float):
        return float, value, math.copysign(1.0, value)
    return type(value), value


def _intern(node, table):
    """``node`` with its operator subtrees replaced by the equal ones
    already in ``table``; leaves are left as they are, and a node object
    met before is looked up by its identity."""
    if isinstance(node, _LEAVES):
        return node
    if id(node) in table:
        return table[id(node)]
    fields = vars(node).values()
    parts = [_intern(v, table) if isinstance(v, _NODES) else v
             for v in fields]
    key = (type(node), *map(_key, parts))
    if key not in table:
        same = all(p is v for p, v in zip(parts, fields))
        table[key] = node if same else type(node)(*parts)
    table[id(node)] = table[key]
    return table[key]


class SharedTrees:
    """The component expressions of one structure, evaluated together.

    ``entries`` is a nested list of ASTs.  At construction equal
    operator subtrees become one object, and those referenced from
    more than one place (by several parents or entries) are marked, as
    are the arguments u of a pair sinh(u), cosh(u) (a leaf u by its
    value).  One :meth:`evaluate` call walks every entry once: a marked
    node is evaluated at its first visit and its value reused for the
    rest of that call, and a marked pair comes from one
    :func:`jets.sinh_cosh`.  Each value is the one a walk of its entry's
    tree alone gives, bit for bit; nothing outlives the call.
    """

    def __init__(self, entries):
        table = {}
        self.entries = _nested(lambda e: _intern(e, table), entries)
        roots = []
        _nested(roots.append, self.entries)
        nodes = [node for key, node in table.items() if type(key) is tuple]
        uses = Counter(id(operand) for node in nodes
                       for operand in node.operands)
        uses.update(map(id, roots))
        twins = Counter(_key(node.arg) for node in nodes
                        if isinstance(node, Call) and node.fn in _TWINS)
        self._shared = {key for key, n in uses.items() if n > 1}
        self._paired = {key for key, n in twins.items() if n == 2}

    def evaluate(self, xs):
        """Every entry at a tuple of scalars (floats or jets), nested as
        the entries are."""
        memo = {}
        return _nested(lambda e: self._walk(e, xs, memo), self.entries)

    def _walk(self, node, xs, memo):
        """``node`` at ``xs``; ``memo`` holds the values of this call's
        marked nodes by id, and its marked pairs by (fn names, key of
        the argument)."""
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            return xs[node.index]
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, Call) and node.fn in _TWINS \
                and _key(node.arg) in self._paired:
            pair = (_TWINS, _key(node.arg))
            if pair not in memo:
                memo[pair] = jets.sinh_cosh(self._walk(node.arg, xs, memo))
            value = memo[pair][_TWINS.index(node.fn)]
        else:
            value = node.apply(*[self._walk(operand, xs, memo)
                                 for operand in node.operands])
        if key in self._shared:
            memo[key] = value
        return value


def tree_depth(e, memo):
    """Levels of the tree ``e`` (a leaf is one); ``memo`` keeps the depth
    of each operator node by its id, so a shared subtree is walked once."""
    if not e.operands:
        return 1
    if id(e) not in memo:
        memo[id(e)] = 1 + max(tree_depth(o, memo) for o in e.operands)
    return memo[id(e)]


def variables(e):
    """The set of coordinate names appearing in an AST."""
    if isinstance(e, Var):
        return {e.name}
    return set().union(*map(variables, e.operands))


# -- symbolic differentiation --------------------------------------------

_ZERO = Const(0.0)
_ONE = Const(1.0)


def _is(e, value):
    return isinstance(e, Const) and e.value == value


def _add(a, b):
    if _is(a, 0.0):
        return b
    if _is(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Bin("+", a, b)


def _neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    return a.arg if isinstance(a, Neg) else Neg(a)


def _sub(a, b):
    return _add(a, _neg(b))


def _mul(a, b):
    if _is(a, 0.0) or _is(b, 0.0):
        return _ZERO
    if _is(a, 1.0):
        return b
    if _is(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Bin("*", a, b)


def _div(a, b):
    if _is(a, 0.0):
        return _ZERO
    return a if _is(b, 1.0) else Bin("/", a, b)


# d f(u) / du for each function of the grammar, as an AST in e = f(u)
_OUTER = {
    "sinh": lambda e: Call("cosh", e.arg),
    "cosh": lambda e: Call("sinh", e.arg),
    "tanh": lambda e: _sub(_ONE, Pow(e, 2)),
    "exp": lambda e: e,
    "ln": lambda e: _div(_ONE, e.arg),
    "sqrt": lambda e: _div(Const(0.5), e),
}


def diff(e, index):
    """AST of the partial derivative of ``e`` along coordinate ``index``."""
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.index == index else _ZERO
    if isinstance(e, Neg):
        return _neg(diff(e.arg, index))
    if isinstance(e, Call):
        return _mul(_OUTER[e.fn](e), diff(e.arg, index))
    if isinstance(e, Pow):
        k = e.exponent
        power = {0: _ZERO, 1: _ONE, 2: e.base}.get(k) or Pow(e.base, k - 1)
        return _mul(_mul(Const(float(k)), power), diff(e.base, index))
    du, dv = diff(e.left, index), diff(e.right, index)
    if e.op == "+":
        return _add(du, dv)
    if e.op == "-":
        return _sub(du, dv)
    if e.op == "*":
        return _add(_mul(du, e.right), _mul(e.left, dv))
    # du/v - dv*(e/v) keeps dv two levels below the root, so repeated
    # derivatives of nested quotients grow shallower than (du - e*dv)/v
    return _sub(_div(du, e.right), _mul(dv, _div(e, e.right)))


# -- tokenizer ------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[+\-*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(pos, f"unexpected character {text[pos]!r}")
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, coordinates):
        self.tokens = _tokenize(text)
        self.coordinates = list(coordinates)
        self.i = 0
        self.level = 0  # open parentheses, unary minuses and exponents
        self.depths = {}  # tree_depth's memo of the nodes built

    def within(self, off, depth):
        if depth > _MAX_DEPTH:
            raise ParseError(off, f"expression nests deeper than "
                                  f"{_MAX_DEPTH} levels")

    def deeper(self, off, parse):
        """``parse()`` one nesting level down."""
        self.level += 1
        self.within(off, self.level)
        value = parse()
        self.level -= 1
        return value

    def node(self, off, cls, *fields):
        """An operator node, its tree at most ``_MAX_DEPTH`` deep."""
        node = cls(*fields)
        self.within(off, tree_depth(node, self.depths))
        return node

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(off, f"got {text or 'end of input'!r}", expected=repr(op))
        return self.advance()

    def at_op(self, *ops):
        kind, text, _ = self.peek()
        return kind == "op" and text in ops

    # expression := term (('+'|'-') term)*
    def expression(self):
        node = self.term()
        while self.at_op("+", "-"):
            _, op, off = self.advance()
            node = self.node(off, Bin, op, node, self.term())
        return node

    # term := factor (('*'|'/') factor)*
    def term(self):
        node = self.factor()
        while self.at_op("*", "/"):
            _, op, off = self.advance()
            node = self.node(off, Bin, op, node, self.factor())
        return node

    # factor := '-' factor | power
    def factor(self):
        if self.at_op("-"):
            off = self.advance()[2]
            return self.node(off, Neg, self.deeper(off, self.factor))
        return self.power()

    # power := atom ('^' exponent)?
    def power(self):
        node = self.atom()
        if self.at_op("^"):
            off = self.advance()[2]
            return self.node(off, Pow, node, self.exponent())
        return node

    # exponent := ['-'] INT ('^' exponent)?   (folded right-associatively)
    def exponent(self):
        sign = 1
        if self.at_op("-"):
            self.advance()
            sign = -1
        kind, text, off = self.peek()
        if kind != "number":
            raise ParseError(off, f"got {text or 'end of input'!r}",
                             expected="integer exponent")
        if not text.isdigit():
            raise ParseError(off, f"exponent {text!r} is not an integer",
                             expected="integer exponent")
        self.advance()
        base = int(text)
        if self.at_op("^"):
            rest = self.deeper(self.advance()[2], self.exponent)
            if rest < 0:
                raise ParseError(off, "negative exponent inside an exponent chain")
            base = base ** rest
        value = sign * base
        if abs(value) > _MAX_EXPONENT:
            raise ParseError(off, f"exponent magnitude {abs(value)} exceeds "
                                  f"{_MAX_EXPONENT}")
        return value

    # atom := NUMBER | IDENT | IDENT '(' expression ')' | '(' expression ')'
    def atom(self):
        kind, text, off = self.peek()
        if kind == "number":
            self.advance()
            return Const(float(text))
        if kind == "ident":
            self.advance()
            if self.at_op("("):
                if text not in FUNCTIONS:
                    raise ParseError(
                        off, f"unknown function {text!r}",
                        expected="one of " + ", ".join(sorted(FUNCTIONS)))
                arg = self.deeper(self.advance()[2], self.expression)
                self.expect_op(")")
                return self.node(off, Call, text, arg)
            if text not in self.coordinates:
                raise UnknownVariable(off, text, self.coordinates)
            return Var(text, self.coordinates.index(text))
        if kind == "op" and text == "(":
            node = self.deeper(self.advance()[2], self.expression)
            self.expect_op(")")
            return node
        raise ParseError(off, f"got {text or 'end of input'!r}",
                         expected="number, name, or '('")


def parse(text, coordinates):
    """Parse expression text over the given coordinate names into an AST."""
    parser = _Parser(text, coordinates)
    node = parser.expression()
    kind, tail, off = parser.peek()
    if kind != "end":
        raise ParseError(off, f"trailing input {tail!r}")
    return node


def read_block(block, m, where, read, matrix=False):
    """``read(entry, location)`` of each entry of a block of m entries
    or, with ``matrix``, of m rows of m entries, in row-major order and
    located as ``where[j]`` or ``where[i][j]``; a block of another shape
    is a ValidationError located as ``where``, before any entry is
    read."""
    rows = block if matrix else [block]
    if (not isinstance(block, list) or len(block) != m
            or not all(isinstance(r, list) and len(r) == m for r in rows)):
        shape = f"{m} x {m} matrix" if matrix else f"list of {m} entries"
        raise ValidationError(f"{where}: must be a {shape}")
    if matrix:
        return [read_block(row, m, f"{where}[{i}]", read)
                for i, row in enumerate(block)]
    return [read(value, f"{where}[{j}]") for j, value in enumerate(block)]


class EntryParser:
    """Parses the expression texts of one structure's entries.

    Each distinct text is parsed once, so equal texts give one AST
    object.  A block of the wrong shape (:func:`read_block`), or an
    entry that is not a string or does not parse, raises a
    ValidationError or a ParseError located as ``where``, ``where[j]``
    or ``where[i][j]``; entries are read in row-major order, so the
    first bad one is reported.
    """

    def __init__(self, coordinates):
        self.coordinates = coordinates
        self._parsed = {}

    def matrix(self, rows, where):
        return read_block(rows, len(self.coordinates), where, self._entry,
                          matrix=True)

    def vector(self, entries, where):
        return read_block(entries, len(self.coordinates), where,
                          self._entry)

    def _entry(self, text, where):
        if not isinstance(text, str):
            raise ValidationError(
                f"{where}: expression entries must be strings")
        if text not in self._parsed:
            try:
                self._parsed[text] = parse(text, self.coordinates)
            except ParseError as exc:
                raise ParseError(exc.offset, f"{where}: {exc.message}",
                                 exc.expected) from exc
        return self._parsed[text]
