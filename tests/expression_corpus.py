"""The random-expression corpus: a deterministic set of random expression
ASTs over two to four variables, each with a probe point and a
coordinate direction at which its jets are tame, built as one jet forest
per wave of candidates.

The engine tests hold the jets of arbitrary expressions against central
differences, the symbolic derivatives of ``paracr.expr.diff`` and the
scalar dual reference on it; ``corpus_reference`` builds the same corpus
one candidate at a time.
"""

from functools import lru_cache, partial

import numpy as np

from paracr.errors import DomainError
from paracr.expr import Bin, Call, Const, Neg, Pow, Var, eval_expr
from paracr.jets import _DIV_GUARD, Jet, coordinate_jets

FD_STEP = 1e-5
STENCIL = np.array([-FD_STEP, 0.0, FD_STEP])
# Acceptance bound for corpus expressions: with |f|, |f'|, |f''|, |f'''|
# all below this at the probe points, the central-difference truncation
# error (h^2/6 * f''') and the subtraction roundoff (eps * |f| / 2h) both
# stay below ~2e-7, two orders under the 1e-5 comparison tolerance.
CORPUS_MAGNITUDE_CAP = 1e4


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


class _Forest:
    """The jet-valued nodes of a set of ASTs: numbered, with their
    heights, the Var leaves, and the groups of nodes that share a
    height and a kind (operator and operand kinds)."""

    def __init__(self):
        self.height = []   # per node id
        self.leaves = []   # (node id, tree, coordinate index)
        self.groups = {}   # (height, kind...) -> (node, ids, operand columns)

    def add(self, t, e):
        """Node id of a jet-valued ``e`` of tree ``t`` (an int), or its
        folded value.  A tree that raises leaves nodes behind that
        nothing reads."""
        height = self.height
        if isinstance(e, Var):
            self.leaves.append((len(height), t, e.index))
            height.append(0)
            return len(height) - 1
        if isinstance(e, Const):
            return e.value
        children = (e.left, e.right) if isinstance(e, Bin) else \
            (e.base if isinstance(e, Pow) else e.arg,)
        args = [self.add(t, child) for child in children]
        jet = tuple(isinstance(a, int) for a in args)
        if not any(jet):
            return e.apply(*args)
        if isinstance(e, Bin) and e.op == "/" and not jet[1] \
                and abs(args[1]) <= _DIV_GUARD:
            raise DomainError("constant divisor inside the guard band")
        height.append(1 + max(height[a] for a, j in zip(args, jet) if j))
        key = (height[-1], type(e), getattr(e, "op", None),
               getattr(e, "fn", None), getattr(e, "exponent", None), jet)
        if key not in self.groups:
            self.groups[key] = (e, [], tuple([] for _ in args))
        _, ids, operands = self.groups[key]
        ids.append(len(height) - 1)
        for column, a in zip(operands, args):
            column.append(a)
        return ids[-1]


def stencil_forest(trees, points, directions):
    """Order-3 jets of the ASTs ``trees`` at their central-difference
    stencils, evaluated as one forest.

    Tree t is a univariate jet along coordinate ``directions[t]`` at
    ``points[t]`` shifted by -h, 0 and +h along it.  Constant subtrees
    fold to floats with the nodes' own ``apply``; every other node joins
    the nodes of its height and kind (operator and operand kinds) across
    the forest, and each such group is one call of its ``apply`` on the
    concatenated stencil rows of its members, a constant operand as one
    value per row.  Jet operations act row by row, so every coefficient
    is the float operation sequence of evaluating the tree alone.

    Returns ``(c, bad, failed)``: ``c[t, row, slot]`` the root's
    coefficients (a constant root holds its value in slot 0), ``bad[t,
    row]`` true where a coefficient of the row is not finite, and
    ``failed[t]`` true where evaluating the tree alone raises: an
    arithmetic or domain error in a constant subtree, or a constant
    divisor inside the guard band.
    """
    count = len(trees)
    failed = np.zeros(count, dtype=bool)
    roots = [None] * count
    forest = _Forest()
    for t, tree in enumerate(trees):
        try:
            roots[t] = forest.add(t, tree)
        except (DomainError, ArithmeticError, ValueError):
            failed[t] = True

    nodes = len(forest.height)
    store = np.zeros((nodes, 3, 4))
    layout = None
    if forest.leaves:
        ids, tree_of, var = np.array(forest.leaves).T
        on = var == np.asarray(directions)[tree_of]
        centre = np.array([points[t][i] for t, i in zip(tree_of, var)])
        rows = centre[:, None] + np.where(on[:, None], STENCIL, 0.0)
        xs = coordinate_jets(rows.reshape(-1, 1), 3,
                             np.repeat(on, 3).astype(float)[:, None, None])
        store[ids] = xs[0].c.reshape(len(ids), 3, 4)
        layout = xs[0].layout
    with np.errstate(all="ignore"):
        for key in sorted(forest.groups, key=lambda key: key[0]):
            node, ids, columns = forest.groups[key]
            operands = []
            for pos, (is_jet, column) in enumerate(zip(key[-1], columns)):
                if is_jet:
                    operands.append(Jet(store[column].reshape(-1, 4), layout))
                else:
                    const = np.repeat(column, 3)
                    # const / jet runs Jet.__rtruediv__, which divides the
                    # constant by the order-0 coefficients [rows, 1]
                    operands.append(const[:, None] if pos == 0 and
                                    key[2] == "/" else const)
            out = node.apply(*operands)
            store[ids] = out.c.reshape(len(ids), 3, 4)

    c = np.zeros((count, 3, 4))
    for t, root in enumerate(roots):
        if isinstance(root, int):
            c[t] = store[root]
        elif root is not None:
            c[t, :, 0] = root
    return c, ~np.isfinite(c).all(axis=2), failed


def _fd_gap(c):
    """Relative gap between the jet's first derivative at the stencil
    centre and the central difference of its stencil values."""
    jet = float(c[1, 1])
    fd = float(c[2, 0] - c[0, 0]) / (2.0 * FD_STEP)
    return abs(jet - fd) / max(1.0, abs(jet), abs(fd))


class _Corpus(list):
    """Corpus entries, plus ``gap``: the worst relative gap between the
    first-order jet and the central difference over the entries, read
    off the jets that selected them."""

    gap = 0.0


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

    Candidates come in waves, each as large as the number of entries
    still missing (within the budget), and a wave is evaluated as one
    jet forest (:func:`stencil_forest`).  No draw depends on whether an
    earlier candidate was accepted, so the entries, their order and
    ``gap`` are those of trying one candidate at a time.
    """
    rng = np.random.default_rng(seed)
    corpus = _Corpus()
    attempts = 0
    budget = 200 * count
    while len(corpus) < count:
        if attempts >= budget:
            raise RuntimeError(
                f"expression corpus: accepted {len(corpus)}/{count} "
                f"after {attempts} attempts")
        wave = min(count - len(corpus), budget - attempts)
        attempts += wave
        trees, points, directions = [], [], []
        for _ in range(wave):
            nvars = int(rng.integers(2, 5))
            names = tuple(f"x{i}" for i in range(1, nvars + 1))
            trees.append(random_expression(rng, names, max_depth))
            points.append(tuple(float(v)
                                for v in rng.uniform(0.3, 1.7, nvars)))
            directions.append(int(rng.integers(nvars)))
        c, _, failed = stencil_forest(trees, points, directions)
        # a NaN fails the magnitude test
        tame = ~failed & np.all(np.abs(c) <= CORPUS_MAGNITUDE_CAP, axis=(1, 2))
        for t in np.flatnonzero(tame):
            corpus.append((partial(eval_expr, trees[t]), points[t],
                           directions[t]))
            corpus.gap = max(corpus.gap, _fd_gap(c[t]))
    return corpus

