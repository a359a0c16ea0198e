"""The random-expression corpus: a deterministic set of random expression
ASTs over two to four variables, each with a probe point and a
coordinate direction at which its jets are tame, built one candidate at
a time.

The engine tests hold the jets of arbitrary expressions against central
differences, the symbolic derivatives of ``paracr.expr.diff`` and the
scalar dual reference on it.  Also the order-1 jet-versus-difference gap
of a corpus, and :func:`render`, which writes an AST back as text in
the parser grammar.
"""

from functools import lru_cache, partial

import numpy as np

from accessors import partials
from paracr.errors import DomainError
from paracr.expr import Bin, Call, Const, Neg, Pow, Var
from paracr.jets import Jet, coordinate_jets

# what evaluating an expression alone may raise
EVAL_ERRORS = (DomainError, ArithmeticError, ValueError)
FD_STEP = 1e-5
# Acceptance bound for corpus expressions: with |f|, |f'|, |f''|, |f'''|
# all below this at the probe points, the central-difference truncation
# error (h^2/6 * f''') and the subtraction roundoff (eps * |f| / 2h) both
# stay below ~2e-7, two orders under the 1e-5 comparison tolerance.
CORPUS_MAGNITUDE_CAP = 1e4


def eval_expr(e, xs):
    """Evaluate an AST alone at a tuple of scalars (floats or jets): the
    reference walk that ``paracr.expr.SharedTrees`` is held to."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return xs[e.index]
    return e.apply(*[eval_expr(operand, xs) for operand in e.operands])


def random_expression(rng, names, max_depth):
    """One random expression AST over the coordinates ``names``."""
    def leaf():
        if rng.random() < 0.7:
            index = int(rng.integers(len(names)))
            return Var(names[index], index)
        # a constant is rounded to three decimals; a negative one is the
        # negation of its magnitude, as the parser reads "-0.125"
        text = format(float(rng.uniform(-2.0, 2.0)), ".3f")
        if text.startswith("-"):
            return Neg(Const(float(text[1:])))
        return Const(float(text))

    # operands are drawn left to right, a power's base before its exponent
    def node(depth):
        if depth >= max_depth or rng.random() < 0.25:
            return leaf()
        roll = rng.random()
        if roll < 0.15:
            fn = ("sinh", "cosh", "tanh", "exp", "sqrt",
                  "ln")[int(rng.integers(6))]
            return Call(fn, node(depth + 1))
        if roll < 0.22:
            return Neg(node(depth + 1))
        if roll < 0.30:
            return Pow(node(depth + 1), int(rng.integers(2, 4)))
        op = ("+", "-", "*", "/")[int(rng.integers(4))]
        return Bin(op, node(depth + 1), node(depth + 1))

    return node(0)


def stencil_jet(tree, point, direction, order):
    """``tree`` at the central-difference stencil around ``point``
    (shifted by -h, 0, +h along ``direction``) as one univariate jet
    batch; a float for a constant tree."""
    stencil = np.tile(point, (3, 1))
    for row, shift in enumerate((-FD_STEP, 0.0, FD_STEP)):
        stencil[row, direction] += shift
    xs = coordinate_jets(stencil, order, np.eye(len(point))[:, [direction]])
    with np.errstate(all="ignore"):
        return eval_expr(tree, xs)


def tame(y):
    """All derivatives through order three finite (a domain violation
    leaves a NaN) and moderately sized, at every stencil point."""
    if not isinstance(y, Jet):
        return abs(y) <= CORPUS_MAGNITUDE_CAP
    return bool(np.all(np.abs(y.c) <= CORPUS_MAGNITUDE_CAP))


def fd_gap(y):
    """Relative gap between the jet's first derivative at the stencil
    centre and the central difference of its stencil values."""
    if not isinstance(y, Jet):
        return 0.0  # constant: jet and difference are both zero
    jet = float(partials(y)[1, 0])
    fd = float(y.v[2] - y.v[0]) / (2.0 * FD_STEP)
    return abs(jet - fd) / max(1.0, abs(jet), abs(fd))


@lru_cache(maxsize=4)
def random_expression_corpus(seed, count, max_depth):
    """Deterministic corpus of ``(expr_fn, point, direction)`` triples.

    Each expression is a random AST over two to four variables;
    ``expr_fn`` (a ``functools.partial`` of ``eval_expr`` whose
    first argument is the AST) accepts a tuple of floats or of jets.
    Sampling rejects expressions whose value or first three directional
    derivatives are non-finite or large at the probe point and at the
    two finite-difference stencil points, so a central difference with
    step 1e-5 is trustworthy there; agreement with the jet itself is
    never part of the filter.
    """
    rng = np.random.default_rng(seed)
    corpus = []
    attempts = 0
    budget = 200 * count
    while len(corpus) < count:
        if attempts >= budget:
            raise RuntimeError(
                f"expression corpus: accepted {len(corpus)}/{count} "
                f"after {attempts} attempts")
        attempts += 1
        nvars = int(rng.integers(2, 5))
        names = tuple(f"x{i}" for i in range(1, nvars + 1))
        tree = random_expression(rng, names, max_depth)
        point = tuple(float(v) for v in rng.uniform(0.3, 1.7, nvars))
        direction = int(rng.integers(nvars))
        try:
            y = stencil_jet(tree, point, direction, 3)
        except EVAL_ERRORS:
            continue
        if tame(y):
            corpus.append((partial(eval_expr, tree), point, direction))
    return corpus


def jet_fd_worst(corpus):
    """Worst relative gap between an order-1 jet and a central difference
    over ``(expr_fn, point, direction)`` corpus entries."""
    return max((fd_gap(stencil_jet(fn.args[0], point, direction, 1))
                for fn, point, direction in corpus), default=0.0)


# -- rendering ------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 10, 20, 30, 40, 100


def _prec(e):
    if isinstance(e, Bin):
        return _PREC_ADD if e.op in "+-" else _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _wrap(e, minimum):
    s = render(e)
    return f"({s})" if _prec(e) < minimum else s


def render(e):
    """Render an AST so that parsing the result yields an equal AST."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({render(e.arg)})"
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _PREC_NEG)
    if isinstance(e, Pow):
        exp_text = str(e.exponent)
        return f"{_wrap(e.base, _PREC_ATOM)}^{exp_text}"
    if isinstance(e, Bin):
        left = _wrap(e.left, _prec(e))
        right = _wrap(e.right, _prec(e) + 1)
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an expression node: {e!r}")
