"""One walk of a structure's component expressions, against each entry's
own tree walk.

Oracle provenance markers:
- [REFERENCE]: ``eval_expr`` walks each entry's tree alone; the shared
  walk performs the same floating-point operations on the same operands
  and must agree bit for bit (the sign of a NaN aside), in the masks and
  in the error a raising entry gives.
- [TRIVIAL]: forced by the documented evaluation contract (equal
  subtrees once per call, nothing kept between calls).
"""

import gc
import json
import pathlib

import numpy as np
import pytest

from corpus_reference import EVAL_ERRORS
from expression_corpus import random_expression
from paracr import geometry
from paracr.expr import Bin, Call, Const, SharedTrees, eval_expr, parse, \
    render
from paracr.jets import Jet, coordinate_jets
from paracr.presets import build_example
from paracr.spec_io import spec_from_dict

NAMES = ("x1", "x2", "x3")
SQRT_SPEC = (pathlib.Path(__file__).parents[1] / "bench" / "specs"
             / "flat3d_sqrt.json")


def bits(a):
    """The bytes of ``a`` with every NaN made the same NaN."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


def outcome(fn):
    """``fn()``, or the type and message of the error it raises."""
    try:
        return fn()
    except EVAL_ERRORS as exc:
        return type(exc), str(exc)


def subtrees(e):
    yield e
    for operand in e.operands:
        yield from subtrees(operand)


def entries_with_repeats(seed):
    """Random trees, then entries built from their subtrees: copies
    parsed anew (equal, but other objects), sums of two of them, and
    sinh and cosh of one subtree; sometimes a constant entry that
    raises, or one that raises only for floats (sqrt of a negative)."""
    rng = np.random.default_rng(seed)
    trees = [random_expression(rng, NAMES, 4) for _ in range(4)]
    parts = [s for t in trees for s in subtrees(t)]

    def pick():
        return parts[int(rng.integers(len(parts)))]

    def copy(e):
        return parse(render(e), NAMES)

    entries = list(trees)
    for _ in range(6):
        roll = rng.random()
        if roll < 0.3:
            entries.append(copy(pick()))
        elif roll < 0.6:
            entries.append(Bin("+", pick(), copy(pick())))
        else:
            u = pick()
            entries.append(Call("sinh", u))
            entries.append(Bin("*", Call("cosh", copy(u)), pick()))
    raising = ["1/(2 - 2)", "ln(0)", "exp(1000)", "sqrt(x1 - 5)"]
    if rng.random() < 0.3:
        entries.insert(int(rng.integers(len(entries) + 1)),
                       parse(raising[int(rng.integers(4))], NAMES))
    order = rng.permutation(len(entries))
    return [entries[i] for i in order[:len(order) // 2]], \
        [entries[i] for i in order[len(order) // 2:]]


def assert_same(got, want):
    if isinstance(want, tuple):  # an error: type and message
        assert got == want
    elif isinstance(want, Jet):
        assert isinstance(got, Jet)
        assert bits(got.c) == bits(want.c)  # NaN marks a domain violation
    else:
        assert bits(np.float64(got)) == bits(np.float64(want))


@pytest.mark.parametrize("seed", range(40))
def test_shared_walk_equals_each_tree_alone(seed):
    # [REFERENCE] orders 0-3 at five points (some outside the domain of
    # a sqrt or ln, some overflowing), and at plain floats
    nested = entries_with_repeats(seed)
    flat = nested[0] + nested[1]
    trees = SharedTrees(nested)
    points = np.random.default_rng(seed).uniform(-2.0, 2.0, (5, 3))
    for xs in [coordinate_jets(points, order) for order in range(4)] + [
            tuple(float(v) for v in points[0])]:
        with np.errstate(all="ignore"):
            want = [outcome(lambda e=e: eval_expr(e, xs)) for e in flat]
            got = outcome(lambda: trees.evaluate(xs))
        first_error = next((w for w in want if isinstance(w, tuple)), None)
        if first_error is not None:
            assert got == first_error
            continue
        assert [len(part) for part in got] == [len(part) for part in nested]
        for g, w in zip(got[0] + got[1], want):
            assert_same(g, w)


def test_equal_subtrees_become_one_object():
    # [TRIVIAL] equal operator subtrees of different entries are one
    # node, and subtrees that differ only in 0.0 and -0.0 stay apart
    a, b = parse("sinh(2*z) + x", ("x", "y", "z")), \
        parse("cosh(2*z) * sinh(2*z)", ("x", "y", "z"))
    trees = SharedTrees([a, b, Bin("*", Const(-0.0), a.right),
                         Bin("*", Const(0.0), a.right)])
    first, second, neg, pos = trees.entries
    assert first.left is second.right
    assert first.left.arg is second.left.arg
    assert neg == pos and neg is not pos
    xs = coordinate_jets([(0.3, 0.1, 0.2)], 1)
    values = trees.evaluate(xs)
    assert bits(values[2].c) != bits(values[3].c)


def sqrt_structure():
    return spec_from_dict(json.loads(SQRT_SPEC.read_text(
        encoding="utf-8"))).structure


def top_level_calls(monkeypatch, order, names):
    """Counts of the calls of the named Jet methods on order-``order``
    jets (their recursion runs on lower orders)."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(Jet, name)

        def counted(self, original=original, name=name):
            calls[name] += self.layout.order == order
            return original(self)

        monkeypatch.setattr(Jet, name, counted)
    return calls


def test_repeated_subexpressions_are_evaluated_once(monkeypatch):
    # [TRIVIAL] flat3d_sqrt writes sqrt(z+0.5) in eight entries, and
    # sinh(2*sqrt(z+0.5)) and cosh(2*sqrt(z+0.5)) in four each: one
    # structure_jets call takes one top-level sqrt and one _sinh_cosh
    calls = top_level_calls(monkeypatch, 2, ("sqrt", "_sinh_cosh"))
    points = np.random.default_rng(0).uniform(-0.4, 0.4, (6, 3))
    geometry.structure_jets(sqrt_structure(), points, 2)
    assert calls == {"sqrt": 1, "_sinh_cosh": 1}


def test_sinh_and_cosh_of_a_coordinate_are_one_pair(monkeypatch):
    # [TRIVIAL] a leaf argument pairs by its value, not its object
    calls = top_level_calls(monkeypatch, 1, ("_sinh_cosh",))
    trees = SharedTrees([parse(text, NAMES) for text in (
        "sinh(x2)", "cosh(x2) + 1", "sinh(x1)", "cosh(-x2)")])
    xs = coordinate_jets([(0.1, 0.2, 0.3)], 1)
    got = trees.evaluate(xs)
    assert calls == {"_sinh_cosh": 3}
    for g, e in zip(got, trees.entries):
        assert_same(g, eval_expr(e, xs))


@pytest.mark.parametrize("make", [
    sqrt_structure,
    lambda: build_example("flat3d").structure,
    lambda: build_example("p1", n=2).structure,
    lambda: build_example("cosymplectic", n=2).structure])
def test_calls_do_not_share_values(make):
    # [REFERENCE] two batches of different points, at different orders,
    # through one structure give the values of fresh structures
    st = make()
    rng = np.random.default_rng(3)
    lo, hi = np.array(st.chart.box).T
    batches = [lo + (hi - lo) * rng.random((count, st.dim))
               for count in (4, 7)]
    for points, order in zip(batches, (2, 3)):
        got, got_rejected = geometry.structure_jets(st, points, order)
        want, want_rejected = geometry.structure_jets(make(), points, order)
        for g, w in zip(got, want):
            assert bits(g.c) == bits(w.c)
        assert [repr(r) for r in got_rejected] == \
            [repr(r) for r in want_rejected]


def test_a_walk_leaves_nothing_for_the_collector():
    # [TRIVIAL] the values of one call are freed when it returns, not
    # kept in a reference cycle until the next garbage collection
    st = sqrt_structure()
    xs = coordinate_jets(np.full((4, 3), 0.25), 2)
    gc.collect()
    gc.disable()
    try:
        st._trees.evaluate(xs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_preset_parses_each_distinct_entry_once():
    # [TRIVIAL] p1 writes -(f) in n frame entries: one AST object, so
    # the shared walk evaluates it once
    frame = build_example("p1", n=3).structure._frame
    assert frame[0][3] is frame[1][4] is frame[2][5]
    assert render(frame[0][3]) == "-((1.0 + x1^2 + x2^2 + x3^2) / z)"
