"""The random-expression corpus and its generators.

Oracle provenance markers:
- [REFERENCE]: ``random_expression_text`` draws the same random choices
  as ``expression_corpus.random_expression`` but writes the expression
  in the parser grammar; ``parse`` of that text must be the AST.
- [TRIVIAL]: forced by the documented corpus contract (size, shape,
  determinism, the acceptance filter).
"""

import numpy as np
import pytest

from expression_corpus import (
    EVAL_ERRORS,
    jet_fd_worst,
    random_expression,
    random_expression_corpus,
    stencil_jet,
    tame,
)
from paracr.expr import parse
from paracr.jets import Jet
from scalar_reference import eval_dual, nth_tangent, seed_multi

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


@pytest.mark.parametrize("direction", [0, 1, 2])
def test_edge_cases(direction):
    # each edge case evaluated alone: whether it raises, and whether a
    # coefficient of its stencil jet is not finite
    outcome = {}
    for text in EDGE_TEXTS:
        tree = parse(text, NAMES)
        try:
            y = stencil_jet(tree, (0.4, 1.1, 1.6), direction, 3)
        except EVAL_ERRORS:
            outcome[text] = (True, False)
            continue
        c = y.c if isinstance(y, Jet) else y
        outcome[text] = (False, not np.isfinite(c).all())
    assert outcome["x1 / (1e-301 * 1.0)"][0] and outcome["x2 / 0"][0]
    assert outcome["x1 + exp(800)"][0] and outcome["x1 * (0.0)^-1"][0]
    assert not outcome["x1 / 2e-300"][0]
    assert outcome["(ln(x1 - 5))^0"] == (False, True)
    assert outcome["sqrt(x1 - 5)"] == (False, True)


@pytest.mark.parametrize("seed,count,depth",
                         [(1234, 200, 6), (11, 25, 5), (77, 30, 6)]
                         + [(seed, 50, 8) for seed in range(10)])
def test_corpus_is_the_prefix_of_a_longer_one(seed, count, depth):
    # [TRIVIAL] candidates are drawn and kept one at a time and evaluation
    # draws nothing, so a corpus is the start of every longer one with
    # its seed and depth; each entry is tame when evaluated again alone
    corpus = random_expression_corpus(seed, count, depth)
    longer = random_expression_corpus(seed, count + 7, depth)
    assert len(corpus) == count and len(longer) == count + 7
    assert [(fn.args[0], point, d) for fn, point, d in corpus] == \
        [(fn.args[0], point, d) for fn, point, d in longer[:count]]
    for fn, point, d in corpus:
        assert tame(stencil_jet(fn.args[0], point, d, 3))


def test_empty_corpus():
    assert random_expression_corpus(3, 0, 6) == []
    assert jet_fd_worst([]) == 0.0


class TestExpressionCorpus:
    def test_count_and_shape(self):
        corpus = random_expression_corpus(seed=11, count=25, max_depth=5)
        assert len(corpus) == 25
        for fn, point, direction in corpus:
            assert 2 <= len(point) <= 4
            assert 0 <= direction < len(point)
            value = fn(point)
            assert np.isfinite(value)

    def test_deterministic_across_regeneration(self):
        # [TRIVIAL] same seed, same corpus — even after a cache flush.
        a = random_expression_corpus(seed=77, count=30, max_depth=6)
        random_expression_corpus.cache_clear()
        b = random_expression_corpus(seed=77, count=30, max_depth=6)
        for (fa, pa, da), (fb, pb, db) in zip(a, b):
            assert pa == pb and da == db
            assert fa(pa) == fb(pb)

    def test_derivatives_are_tame_at_the_stencil(self):
        # the acceptance filter promises moderate jets through order 3
        corpus = random_expression_corpus(seed=5, count=20, max_depth=6)
        for fn, point, direction in corpus:
            xs = seed_multi(point, [direction] * 3)
            y = eval_dual(fn.args[0], xs)
            for k in range(4):
                assert abs(nth_tangent(y, k)) <= 1e4

    def test_agrees_with_finite_differences(self):
        corpus = random_expression_corpus(seed=21, count=40, max_depth=6)
        assert jet_fd_worst(corpus) <= 1e-5


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
