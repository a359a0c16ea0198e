"""One-candidate-at-a-time reference for the expression corpus.

This is the definition ``expression_corpus.random_expression_corpus``
reproduces with one jet forest per wave: each candidate is drawn as
text in the parser grammar and parsed (the product draws the same ASTs
directly), evaluated alone as an order-3 jet over its three
central-difference stencil points, and accepted when that jet is tame.
Also the order-1 jet-versus-difference gap of a corpus, recomputed from
scratch.
"""

from functools import partial

import numpy as np

from expression_corpus import CORPUS_MAGNITUDE_CAP, FD_STEP
from paracr.errors import DomainError, ParseError
from paracr.expr import eval_expr, parse
from paracr.jets import Jet, coordinate_jets

EVAL_ERRORS = (ParseError, DomainError, ArithmeticError, ValueError)


def random_expression_text(rng, names, max_depth):
    """One random expression string over ``names`` in the parser grammar,
    with the draws of ``expression_corpus.random_expression``."""
    def leaf():
        if rng.random() < 0.7:
            return names[int(rng.integers(len(names)))]
        return format(float(rng.uniform(-2.0, 2.0)), ".3f")

    def node(depth):
        if depth >= max_depth or rng.random() < 0.25:
            return leaf()
        roll = rng.random()
        if roll < 0.15:
            fn = ("sinh", "cosh", "tanh", "exp", "sqrt",
                  "ln")[int(rng.integers(6))]
            return f"{fn}({node(depth + 1)})"
        if roll < 0.22:
            return f"-({node(depth + 1)})"
        if roll < 0.30:
            return f"({node(depth + 1)})^{int(rng.integers(2, 4))}"
        op = ("+", "-", "*", "/")[int(rng.integers(4))]
        return f"({node(depth + 1)} {op} {node(depth + 1)})"

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
    jet = float(y.d[1, 0])
    fd = float(y.v[2] - y.v[0]) / (2.0 * FD_STEP)
    return abs(jet - fd) / max(1.0, abs(jet), abs(fd))


def reference_corpus(seed, count, max_depth):
    """(entries, gap): the corpus built one candidate at a time, each
    entry ``(tree, point, direction)``."""
    rng = np.random.default_rng(seed)
    entries, gap = [], 0.0
    attempts = 0
    budget = 200 * count
    while len(entries) < count:
        if attempts >= budget:
            raise RuntimeError(
                f"expression corpus: accepted {len(entries)}/{count} "
                f"after {attempts} attempts")
        attempts += 1
        nvars = int(rng.integers(2, 5))
        names = tuple(f"x{i}" for i in range(1, nvars + 1))
        text = random_expression_text(rng, names, max_depth)
        point = tuple(float(v) for v in rng.uniform(0.3, 1.7, nvars))
        direction = int(rng.integers(nvars))
        try:
            tree = parse(text, names)
            y = stencil_jet(tree, point, direction, 3)
        except EVAL_ERRORS:
            continue
        if tame(y):
            entries.append((tree, point, direction))
            gap = max(gap, fd_gap(y))
    return entries, gap


def jet_fd_worst(corpus):
    """Worst relative gap between an order-1 jet and a central difference
    over ``(expr_fn, point, direction)`` corpus entries."""
    return max((fd_gap(stencil_jet(fn.args[0], point, direction, 1))
                for fn, point, direction in corpus), default=0.0)
