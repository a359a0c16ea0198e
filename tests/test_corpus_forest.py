"""The jet forest that builds the random-expression corpus, against
evaluating each expression alone.

Oracle provenance markers:
- [REFERENCE]: ``corpus_reference`` evaluates every candidate alone, as
  one order-3 jet over its three stencil points, and builds the corpus
  one candidate at a time; jet operations act row by row, so the forest
  must agree bit for bit (the sign of a NaN aside).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from corpus_reference import (
    EVAL_ERRORS,
    random_expression_text,
    reference_corpus,
    stencil_jet,
)
from expression_corpus import (
    random_expression,
    random_expression_corpus,
    stencil_forest,
)
from paracr.expr import parse, render
from paracr.jets import Jet

NAMES = ("x1", "x2", "x3")

# constant subtrees, constant divisors in the guard band, ln and sqrt
# domain hits, x^0 of a NaN, constant float errors, and constant roots
EDGE_TEXTS = [
    "x1 * (2.0 + 3.5)", "(1.5 - 0.25)^2 / x2", "sinh(0.5) - x1",
    "2.0 - x1", "x3 - 0.75", "3.0 * x2", "x2 * -1.25", "-(x1 * x2)",
    "1.0 / x1", "2.0 / (x1 - x1)", "x1^-2", "(x1 - x1)^-1", "x2^0",
    "x1 / (1e-301 * 1.0)", "x2 / 0", "x1 / (2.0 - 2.0)", "x1 / 1e-300",
    "x1 / 2e-300",
    "ln(x1 - 5)", "sqrt(x1 - 5)", "sqrt(x1 - x1)", "ln(x2 - x2) + 1",
    "(ln(x1 - 5))^0", "(sqrt(-x2))^0", "x3 * (ln(x1 - 5))^0",
    "x1 + exp(800)", "x1 + ln(0 - 1)", "x1 * (0.0)^-1", "sqrt(-1) * x2",
    "x1 * exp(710 + 0 * 1)", "exp(x1 + 708)", "cosh(x1 * 1000)",
    "2.5 * 3", "exp(1000)", "ln(0)", "tanh(0.5)^3",
]


def candidate(seed, nvars, depth):
    """One random candidate as the corpus draws it."""
    rng = np.random.default_rng(seed)
    names = tuple(f"x{i}" for i in range(1, nvars + 1))
    tree = random_expression(rng, names, depth)
    point = tuple(float(v) for v in rng.uniform(0.3, 1.7, nvars))
    return tree, point, int(rng.integers(nvars))


def bits(a):
    """The bytes of ``a`` with every NaN made the same NaN: the sign of a
    NaN can depend on whether NumPy ran a SIMD or a scalar loop, which
    depends on the array length."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


def assert_forest_matches_each_tree(trees, points, directions):
    c, bad, failed = stencil_forest(trees, points, directions)
    assert c.shape == (len(trees), 3, 4) and bad.shape == (len(trees), 3)
    for t, tree in enumerate(trees):
        try:
            y = stencil_jet(tree, points[t], directions[t], 3)
        except EVAL_ERRORS:
            assert failed[t], render(tree)
            continue
        assert not failed[t], render(tree)
        if isinstance(y, Jet):
            want = y.c
        else:  # a constant tree: its value, and no derivatives
            want = np.zeros((3, 4))
            want[:, 0] = y
        # NaN-aware equality of every coefficient, so also of ``bad``
        assert bits(c[t]) == bits(want), render(tree)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(2, 4),
                          st.integers(0, 8)), min_size=1, max_size=8))
@example(draws=[(1, 2, 6), (186, 2, 5)])  # NaNs whose sign differs
def test_forest_equals_each_tree_alone(draws):
    # [REFERENCE] random candidates of depth up to 8 over 2-4 variables,
    # evaluated together as one forest
    trees, points, directions = zip(*(candidate(*d) for d in draws))
    assert_forest_matches_each_tree(trees, points, directions)


@pytest.mark.parametrize("direction", [0, 1, 2])
def test_forest_edge_cases(direction):
    # [REFERENCE] every edge case in one forest, next to random trees
    trees = [parse(text, NAMES) for text in EDGE_TEXTS]
    points = [(0.4, 1.1, 1.6)] * len(trees)
    directions = [direction] * len(trees)
    for seed in range(6):
        tree, point, d = candidate(seed, 3, 6)
        trees.append(tree)
        points.append(point)
        directions.append(d)
    assert_forest_matches_each_tree(trees, points, directions)
    c, bad, failed = stencil_forest(trees, points, directions)
    outcome = dict(zip(EDGE_TEXTS, zip(failed, bad.any(axis=1))))
    assert outcome["x1 / (1e-301 * 1.0)"][0] and outcome["x2 / 0"][0]
    assert outcome["x1 + exp(800)"][0] and outcome["x1 * (0.0)^-1"][0]
    assert not outcome["x1 / 2e-300"][0]
    assert outcome["(ln(x1 - 5))^0"] == (False, True)
    assert outcome["sqrt(x1 - 5)"] == (False, True)


def test_empty_forest():
    c, bad, failed = stencil_forest((), (), ())
    assert c.shape == (0, 3, 4) and bad.shape == (0, 3) and not len(failed)


@pytest.mark.parametrize("seed,count,depth",
                         [(1234, 200, 6), (11, 25, 5), (77, 30, 6)]
                         + [(seed, 50, 8) for seed in range(10)])
def test_corpus_equals_the_one_at_a_time_loop(seed, count, depth):
    # [REFERENCE] same entries in the same order, same gap
    corpus = random_expression_corpus(seed, count, depth)
    entries, gap = reference_corpus(seed, count, depth)
    assert [(fn.args[0], point, d) for fn, point, d in corpus] == entries
    assert corpus.gap == gap


def test_default_corpus_gap_is_pinned():
    # the gap of the default corpus (seed 1234, 200 entries, depth 6)
    assert random_expression_corpus(1234, 200, 6).gap == \
        6.074975717954007e-09


@pytest.mark.parametrize("seed", range(20))
def test_ast_draws_equal_the_parsed_text_draws(seed):
    # [REFERENCE] the AST generator makes the text generator's draws and
    # builds what the parser builds from its text, at depths 0-8
    names = ("x1", "x2", "x3", "x4")[:2 + seed % 3]
    ast_rng = np.random.default_rng(seed)
    text_rng = np.random.default_rng(seed)
    for k in range(60):
        depth = k % 9
        tree = random_expression(ast_rng, names, depth)
        text = random_expression_text(text_rng, names, depth)
        assert tree == parse(text, names), text
        assert ast_rng.bit_generator.state == text_rng.bit_generator.state
