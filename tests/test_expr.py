import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benenti import jets, verify
from benenti.errors import EvaluationDomainError, ExpressionSyntaxError
from benenti.expr import (
    FUNCTIONS,
    BinOp,
    Call,
    Const,
    Neg,
    Var,
    evaluate,
    parse,
    to_text,
    variables,
)

XY = ("x", "y")


def ev(text, **values):
    return evaluate(parse(text, tuple(values)), values)


class TestParsing:
    def test_precedence_and_associativity(self):
        e = parse("1 + 2 * 3", XY)
        assert e == BinOp("+", Const(1.0), BinOp("*", Const(2.0), Const(3.0)))
        e = parse("1 - 2 - 3", XY)
        assert e == BinOp("-", BinOp("-", Const(1.0), Const(2.0)), Const(3.0))
        assert ev("2 ^ 3 ^ 2") == 512.0  # right-associative
        assert ev("-3 ^ 2") == -9.0  # unary minus below ^
        assert ev("-2 * 3") == -6.0

    def test_parentheses(self):
        assert ev("(1 + 2) * 3") == 9.0
        assert ev("2 ^ (1 + 1)") == 4.0

    def test_functions(self):
        assert ev("sin(0)") == 0.0
        assert ev("ln(exp(2))") == pytest.approx(2.0)
        assert ev("sqrt(abs(0 - 9))") == 3.0

    def test_number_formats(self):
        assert ev("1.5e2") == 150.0
        assert ev(".25") == 0.25
        assert ev("3.") == 3.0
        assert ev("2e-1") == 0.2

    def test_variables_collected(self):
        e = parse("x * sin(y) + x", XY)
        assert variables(e) == {"x", "y"}

    def test_exponent_folding(self):
        e = parse("x ^ (1 + 1)", XY)
        assert e == BinOp("^", Var("x"), Const(2.0))
        e = parse("x ^ (1/3)", XY)
        assert e.right.value == pytest.approx(1 / 3)

    def test_unary_plus(self):
        assert parse("+x", XY) == Var("x")


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "text,pos",
        [
            ("x + ", 4),
            ("* x", 0),
            ("(x + y", 6),
            ("x + y)", 5),
            ("2x", 1),
            ("x $ y", 2),
        ],
    )
    def test_position_reported(self, text, pos):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse(text, XY)
        assert info.value.position == pos

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionSyntaxError, match="unknown identifier 'z'"):
            parse("x + z", XY)

    def test_function_name_needs_call(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("sin + 1", XY)

    def test_arity_mismatch(self):
        with pytest.raises(ExpressionSyntaxError, match="takes 1 argument"):
            parse("sin(x, y)", XY)

    def test_variable_exponent_rejected(self):
        with pytest.raises(ExpressionSyntaxError, match="constant subexpression"):
            parse("x ^ y", XY)
        with pytest.raises(ExpressionSyntaxError, match="constant subexpression"):
            parse("2 ^ (x + 1)", XY)

    def test_empty_input(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("   ", XY)

    def test_bad_constant_exponent(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("x ^ (1/0)", XY)


class TestEvaluation:
    def test_real_values(self):
        assert ev("x^2 + y", x=3.0, y=1.0) == 10.0
        assert ev("x / y", x=1.0, y=4.0) == 0.25

    def test_jet_values(self):
        x, y = jets.seed_coordinates((2.0, 1.0), order=3)
        f = evaluate(parse("x^2 * y + sin(y)", XY), {"x": x, "y": y})
        assert f.value == pytest.approx(4.0 + math.sin(1.0))
        assert jets.partial(f, (1, 0)) == pytest.approx(4.0)
        assert jets.partial(f, (0, 1)) == pytest.approx(4.0 + math.cos(1.0))
        assert jets.partial(f, (2, 1)) == pytest.approx(2.0)

    def test_jet_and_real_agree(self):
        text = "exp(x - y) + x^3 / (1 + y^2) - cos(x * y)"
        e = parse(text, XY)
        pt = (0.7, -0.3)
        x, y = jets.seed_coordinates(pt, order=4)
        real = evaluate(e, {"x": pt[0], "y": pt[1]})
        jet = evaluate(e, {"x": x, "y": y})
        assert jet.value == pytest.approx(real, rel=1e-14)

    def test_division_by_zero_positions(self):
        e = parse("1 + 1/x", XY)
        with pytest.raises(EvaluationDomainError) as info:
            evaluate(e, {"x": 0.0, "y": 1.0})
        assert info.value.position == 5
        x, y = jets.seed_coordinates((0.0, 1.0), order=2)
        with pytest.raises(EvaluationDomainError) as info:
            evaluate(e, {"x": x, "y": y})
        assert info.value.position == 5

    def test_domain_errors(self):
        with pytest.raises(EvaluationDomainError):
            ev("ln(x)", x=-1.0)
        with pytest.raises(EvaluationDomainError):
            ev("sqrt(x)", x=-4.0)
        with pytest.raises(EvaluationDomainError):
            ev("x ^ 0.5", x=-1.0)
        with pytest.raises(EvaluationDomainError):
            ev("exp(x)", x=1e6)

    def test_abs_at_kink_rejected_for_jets(self):
        x, y = jets.seed_coordinates((0.0, 1.0), order=2)
        with pytest.raises(EvaluationDomainError):
            evaluate(parse("abs(x)", XY), {"x": x, "y": y})

    def test_unassigned_variable(self):
        with pytest.raises(EvaluationDomainError, match="unassigned"):
            evaluate(parse("x + y", XY), {"x": 1.0})


# random tree strategy for the round-trip property
_leaf = st.one_of(
    st.builds(Var, st.sampled_from(XY)),
    st.builds(
        Const, st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
    ),
)


def _tree(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Call, st.sampled_from(("sin", "cos", "exp")), children),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(
            BinOp,
            st.just("^"),
            children,
            st.builds(Const, st.floats(min_value=-3.0, max_value=3.0, width=16)),
        ),
    )


_expr_trees = st.recursive(_leaf, _tree, max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_expr_trees)
def test_to_text_round_trip(tree):
    text = to_text(tree)
    assert parse(text, XY) == tree


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.3, max_value=2.5),
    st.floats(min_value=0.3, max_value=2.5),
)
def test_jet_value_matches_real_evaluation(xv, yv):
    text = "x^2 * y - sqrt(x + y) + exp(x - y) / (2 + sin(x))"
    e = parse(text, XY)
    real = evaluate(e, {"x": xv, "y": yv})
    x, y = jets.seed_coordinates((xv, yv), order=3)
    jet = evaluate(e, {"x": x, "y": y})
    assert np.isclose(jet.value, real, rtol=1e-13, atol=1e-13)


def test_readme_lists_the_expression_functions():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.search(r"the functions `([a-z ]+)`", readme).group(1).split()
    assert tuple(listed) == FUNCTIONS
    for name in ("tan", "log"):
        with pytest.raises(ExpressionSyntaxError, match="unknown identifier"):
            parse(f"{name}(x)", XY)


def test_readme_lists_the_check_ids_and_thresholds():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("### Check ids and default thresholds\n\n")[1].split("\n\n")[0]
    rows = re.findall(r"^\| `([a-z-]+)` \|.*\| (\S+) \|$", table, re.MULTILINE)
    assert len(rows) == len(table.splitlines()) - 2  # below the header
    assert tuple(check for check, _ in rows) == verify.CHECK_IDS
    assert {check: float(t) for check, t in rows} == verify.DEFAULT_THRESHOLDS
