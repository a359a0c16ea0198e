"""Tests for the expression parser/evaluator.

Oracles: hand differentiation cross-checked by finite differences, library
transcendentals, and structural round-trip equality.
"""

import math

import pytest

from accessors import partials, second_partials
from expression_corpus import eval_expr, random_expression_corpus, render
from paracr.errors import DomainError, ParseError, UnknownVariable
from paracr.expr import (
    Bin,
    Call,
    Const,
    Neg,
    Pow,
    Var,
    diff,
    parse,
    variables,
)
from paracr.jets import Jet, coordinate_jets
from paracr.presets import build_example

XYZ = ("x", "y", "z")


class TestParsing:
    def test_sinh_ast_shape(self):
        e = parse("sinh(2*z)", XYZ)
        assert e == Call("sinh", Bin("*", Const(2.0), Var("z", 2)))

    def test_example_family_expression(self):
        # constant c pre-substituted by a literal, as spec files do
        e = parse("(1 + x1^2 + x2^2)/z", ("x1", "x2", "y1", "y2", "z"))
        assert isinstance(e, Bin) and e.op == "/"
        assert variables(e) == {"x1", "x2", "z"}

    def test_truncated_input(self):
        with pytest.raises(ParseError) as err:
            parse("x +", XYZ)
        assert err.value.offset == 3

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable) as err:
            parse("x + w", XYZ)
        assert err.value.name == "w"
        assert err.value.coordinates == XYZ
        assert err.value.offset == 4

    def test_unknown_function(self):
        with pytest.raises(ParseError) as err:
            parse("sin(x)", XYZ)
        assert "sin" in str(err.value)
        assert err.value.offset == 0

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse("x + $y", XYZ)
        assert err.value.offset == 4

    def test_trailing_input(self):
        with pytest.raises(ParseError) as err:
            parse("x y", XYZ)
        assert err.value.offset == 2

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("sinh(2*z", XYZ)

    def test_offset_within_input(self):
        # and nesting deeper than 100 levels: parentheses, unary minuses,
        # calls and exponent chains as the parser recurses, long operator
        # chains as the tree grows
        deep = ("(" * 250 + "x" + ")" * 250, "-" * 1200 + "x",
                "exp(" * 101 + "x" + ")" * 101, "x^" + "^".join(["1"] * 2000),
                "0*(" + "+".join(["x"] * 900) + ")", "x" + "*x" * 10000,
                "(" * 10000 + "x" + ")" * 10000,
                "x*z/(1+" * 99 + "x*z" + ")" * 99)
        for bad in ("", "()", "2*", "^2", "x^z", "x^2.5", "x^(2)",
                    "x^2^-1") + deep:
            with pytest.raises(ParseError) as err:
                parse(bad, XYZ)
            assert 0 <= err.value.offset <= len(bad)

    def test_exponent_magnitude_cap(self):
        with pytest.raises(ParseError):
            parse("x^2000", XYZ)


class TestPrecedence:
    def test_power_binds_tighter_than_unary_minus(self):
        assert parse("-x^2", XYZ) == Neg(Pow(Var("x", 0), 2))

    def test_left_associative_subtraction(self):
        e = parse("x - y - z", XYZ)
        assert e == Bin("-", Bin("-", Var("x", 0), Var("y", 1)), Var("z", 2))

    def test_right_associative_exponent_chain_folds(self):
        assert parse("x^2^3", XYZ) == Pow(Var("x", 0), 8)

    def test_signed_exponent(self):
        assert parse("x^-2", XYZ) == Pow(Var("x", 0), -2)

    def test_zero_exponent_evaluates_to_one(self):
        e = parse("x^0", XYZ)
        assert eval_expr(e, (3.7, 0.0, 0.0)) == 1.0

    def test_mul_div_same_level(self):
        e = parse("x / y * z", XYZ)
        assert e == Bin("*", Bin("/", Var("x", 0), Var("y", 1)), Var("z", 2))


ROUND_TRIP_CORPUS = [
    "1.5",
    "x",
    "-x",
    "--x",
    "x + y",
    "x - y - z",
    "x * y * z",
    "x / y / z",
    "x / (y * z)",
    "x - (y - z)",
    "x + y * z",
    "(x + y) * z",
    "x^2",
    "x^0",
    "x^-3",
    "x^2^2",
    "(x + y)^3",
    "(-x)^2",
    "-x^2",
    "sinh(x)",
    "cosh(2*z)",
    "tanh(x*y)",
    "exp(-z)",
    "ln(1 + x^2)",
    "sqrt(1 + x^2 + y^2)",
    "sinh(cosh(x))",
    "sinh(x)^2",
    "sinh(x) * cosh(y) - tanh(z)",
    "1/(1 + exp(-x))",
    "2.5e-1 * x",
    ".5 + x",
    "x*y + y*z + z*x",
    "-(x + y)",
    "-x * y",
    "x + -y",
    "(x)",
    "x^2 + y^2 - 1",
    "sqrt(x^2 + 1)/z",
    "(1 + x^2 + y^2)/z",
    "cosh(2*z) * x - sinh(2*z) * y",
    "x^2 * y^-1",
    "exp(x + y + z)",
    "ln(exp(x))",
    "tanh(-x)",
    "1 - 1/(x^2 + 2)",
    "0",
    "x * 0.0001",
    "1e3 * x",
    "sqrt(sqrt(x + 5))",
    "sinh(2*z) * cosh(2*z)",
]


class TestRoundTrip:
    def test_corpus_covers_every_node_kind(self):
        kinds = set()
        for text in ROUND_TRIP_CORPUS:
            e = parse(text, XYZ)
            stack = [e]
            while stack:
                node = stack.pop()
                kinds.add(type(node).__name__)
                if isinstance(node, (Neg, Call)):
                    stack.append(node.arg)
                elif isinstance(node, Bin):
                    stack.extend((node.left, node.right))
                elif isinstance(node, Pow):
                    stack.append(node.base)
        assert kinds == {"Const", "Var", "Neg", "Call", "Bin", "Pow"}

    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_render_parse_round_trip(self, text):
        e = parse(text, XYZ)
        assert parse(render(e), XYZ) == e


class TestEvaluation:
    def test_cosh_at_zero(self):
        e = parse("cosh(2*z)", XYZ)
        assert eval_expr(e, (0.0, 0.0, 0.0)) == 1.0

    def test_hand_differentiated_quotient(self):
        # f = (1 + x^2)/z at (x=2, z=1): value 5, d/dz = -(1+x^2)/z^2 = -5
        e = parse("(1 + x^2)/z", ("x", "z"))
        r = eval_expr(e, coordinate_jets([(2.0, 1.0)], 1))
        assert r.v[0] == pytest.approx(5.0, abs=1e-15)
        assert partials(r)[0, 1] == pytest.approx(-5.0, abs=1e-12)

    def test_library_transcendental(self):
        e = parse("sinh(2*z)", XYZ)
        assert eval_expr(e, (0.0, 0.0, 0.5)) == pytest.approx(
            math.sinh(1.0), abs=1e-12)

    def test_double_eval_bitwise_equals_order0_jets(self):
        texts = ["cosh(2*z) * x - sinh(2*z) * y", "sqrt(x^2 + 1)/z",
                 "ln(2 + x) + tanh(y)^3"]
        point = (0.37, -0.81, 0.93)
        for text in texts:
            e = parse(text, XYZ)
            plain = eval_expr(e, point)
            lifted = eval_expr(e, coordinate_jets([point], 0))
            assert plain == lifted.v[0]  # bitwise

    def test_domain_error_propagates(self):
        e = parse("1/z", XYZ)
        with pytest.raises(DomainError):
            eval_expr(e, (0.0, 0.0, 0.0))
        e = parse("ln(z)", XYZ)
        with pytest.raises(DomainError):
            eval_expr(e, (0.0, 0.0, -2.0))


class TestDiff:
    def test_folds_zeros_and_constants(self):
        assert diff(parse("3*x + 2", XYZ), 0) == Const(3.0)
        assert diff(parse("y^2 + sinh(z)", XYZ), 0) == Const(0.0)
        assert diff(parse("x^1", XYZ), 0) == Const(1.0)
        assert diff(parse("-(x)", XYZ), 0) == Const(-1.0)
        assert render(diff(parse("x^3", XYZ), 0)) == "3.0 * x^2"
        assert render(diff(parse("z*(x^2 + y^2)", XYZ), 0)) == "z * (2.0 * x)"

    def test_every_function_against_hand_derivatives(self):
        # [DERIVED] d/dx of f(2x) at x = 0.3 is 2 f'(0.6).
        x = 0.3
        cases = {
            "sinh(2*x)": 2 * math.cosh(0.6),
            "cosh(2*x)": 2 * math.sinh(0.6),
            "tanh(2*x)": 2 * (1 - math.tanh(0.6) ** 2),
            "exp(2*x)": 2 * math.exp(0.6),
            "ln(2*x)": 2 / 0.6,
            "sqrt(2*x)": 1 / math.sqrt(0.6),
            "1/(2*x)": -2 / 0.36,
            "(2*x)^-2": -4 / 0.216,
        }
        for text, want in cases.items():
            got = eval_expr(diff(parse(text, XYZ), 0), (x, 0.0, 0.0))
            assert got == pytest.approx(want, rel=1e-13), text

    def test_matches_jets_on_the_corpus(self):
        # first, second and mixed second partials of every corpus
        # expression against the jet engine at its probe point
        for fn, point, direction in random_expression_corpus(1234, 200, 6):
            node = fn.args[0]
            other = (direction + 1) % len(point)
            first = diff(node, direction)
            symbolic = [eval_expr(first, point),
                        eval_expr(diff(first, direction), point),
                        eval_expr(diff(first, other), point)]
            y = eval_expr(node, coordinate_jets([point], 2))
            if not isinstance(y, Jet):
                assert symbolic == [0.0, 0.0, 0.0]
                continue
            jet = [partials(y)[0, direction],
                   second_partials(y)[0, direction, direction],
                   second_partials(y)[0, direction, other]]
            for got, want in zip(symbolic, jet):
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_cosymplectic_frame_is_the_symbolic_hessian(self):
        # [DERIVED] H = z (x1^2 + x2^2): the frame couples d/dx_a to
        # d/dy_w through -d^2H/dx_w dx_a = -2z delta_wa, as expressions.
        st = build_example("cosymplectic", n=2).structure
        point = (0.3, -0.2, 0.4, 0.1, -0.5)
        E = st.frame_matrix(point)
        for w in range(2):
            for a in range(2):
                assert isinstance(st._frame[2 + w][a], (Neg, Bin, Const))
                assert E[2 + w][a] == (-2.0 * point[4] if w == a else 0.0)
