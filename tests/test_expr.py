"""Expression parsing and elaboration into classes, polynomials, and series."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackzeta import (
    DenomForm,
    ElaborationError,
    IntLaurent,
    MotivicClass,
    MultiPoly,
    ParseError,
    ResourceLimitError,
    TruncatedSeries,
    bgl_class,
    gl_class,
    grassmannian_class,
    motivic_ring,
    parse_class,
    parse_poly,
    parse_series,
)
from stackzeta.expr import BinOp, Call, Neg, Num, Pow, Sym, evaluate_class, parse_ast, parse_class_or_poly

from _strategies import motivic_classes, multipolys

MOT = motivic_ring()


# -- classes -----------------------------------------------------------------


def test_parse_class_basics():
    assert parse_class("1/(L-1)") == bgl_class(1)
    assert parse_class("q^2/(1-q^3)") == MotivicClass(IntLaurent.term(1), DenomForm(0, (3,)))
    assert parse_class("L^2 - 2*L + 1") == MotivicClass(IntLaurent({2: 1, 1: -2, 0: 1}))
    assert parse_class("q") == MotivicClass.l_power(-1)
    assert parse_class("L^-2") == MotivicClass.l_power(-2)
    assert parse_class("-L") == -MotivicClass.l_power(1)
    assert parse_class("0") == MotivicClass.zero()


def test_parse_class_named_calls():
    assert parse_class("GL(2)") == gl_class(2)
    assert parse_class("BGL(3)") == bgl_class(3)
    assert parse_class("Gr(2, 4)") == grassmannian_class(2, 4)
    with pytest.raises(ParseError):
        parse_class("GL(2, 3)")
    with pytest.raises(ParseError):
        parse_class("Gr(2)")
    with pytest.raises(ParseError):
        parse_class("Sp(2)")


@pytest.mark.parametrize(
    "text, col", [("1 + GL(L)", 5), ("Gr(2, L)", 1), ("BGL(2*1)", 1), ("GL(-1)", 1), ("GL(1,2)", 1)]
)
def test_constructor_errors_carry_the_constructor_position(text, col):
    with pytest.raises(ElaborationError) as exc:
        parse_class(text)
    assert (exc.value.line, exc.value.col) == (1, col)


def test_parse_class_precedence():
    assert parse_class("1 + 2*3") == MotivicClass(7)
    assert parse_class("2*L^3") == MotivicClass(IntLaurent({3: 2}))
    assert parse_class("(2*L)^3") == MotivicClass(IntLaurent({3: 8}))
    assert parse_class("-L^2") == -MotivicClass.l_power(2)
    assert parse_class("1 - 2 - 3") == MotivicClass(-4)
    assert parse_class("L^2/L") == MotivicClass.l_power(1)


def test_parse_class_division_needs_units():
    with pytest.raises(ElaborationError):
        parse_class("1/(L-2)")
    with pytest.raises(ElaborationError):
        parse_class("1/0")
    with pytest.raises(ElaborationError):
        parse_class("1/2")


def test_parse_errors_carry_positions():
    with pytest.raises(ElaborationError) as exc:
        parse_class("x + 1")
    assert exc.value.line == 1
    assert exc.value.col == 1
    with pytest.raises(ParseError):
        parse_class("1 + ")
    with pytest.raises(ParseError) as exc:
        parse_class("L +\n)")
    assert (exc.value.line, exc.value.col) == (2, 1)
    with pytest.raises(ParseError):
        parse_class("(1")
    with pytest.raises(ParseError):
        parse_class("1 $ 2")
    with pytest.raises(ParseError):
        parse_class("L^x")
    with pytest.raises(ParseError):
        parse_class("")


@pytest.mark.parametrize("text, col", [("L^²", 3), ("²", 1), ("①", 1), ("2 + 3²", 6)])
def test_non_decimal_digits_are_parse_errors(text, col):
    # str.isdigit() accepts these, int() does not
    with pytest.raises(ParseError) as exc:
        parse_class(text)
    assert (exc.value.line, exc.value.col) == (1, col)


def test_decimal_digits_of_any_script_are_integers():
    assert parse_class("L^٣") == MotivicClass.l_power(3)
    assert parse_class("١٢") == MotivicClass(12)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int-to-string digit limit")
@pytest.mark.parametrize("prefix", ["", "GL(2) *\n ", "L^"])
def test_literals_above_the_digit_limit_are_resource_errors(prefix):
    limit = sys.get_int_max_str_digits()
    line, col = (2, 2) if "\n" in prefix else (1, len(prefix) + 1)
    with pytest.raises(ResourceLimitError) as exc:
        parse_class(prefix + "7" * (limit + 1))
    assert str(exc.value) == (
        f"integer literal of {limit + 1} digits is above the limit of {limit} digits"
        f" for integer conversion (line {line}, col {col})"
    )


#: Texts whose trees are deeper than any Python stack allows.  The sum has
#: 5,000 terms with every partial sum in parentheses, which nest.
TOO_DEEP = {
    "parentheses": "(" * 5000 + "1" + ")" * 5000,
    "minuses": "-" * 5000 + "1",
    "sum": "(" * 4999 + "1" + " + 1)" * 4999,
}
ENTRY_POINTS = {
    "class": parse_class,
    "poly": parse_poly,
    "series": lambda text: parse_series(text, 2),
    "class_or_poly": parse_class_or_poly,
    "eval": lambda text: evaluate_class(text, Fraction(2)),
    "eval_at_pole": lambda text: evaluate_class(text, Fraction(1)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
@pytest.mark.parametrize("text", TOO_DEEP.values(), ids=TOO_DEEP)
def test_too_deep_expressions_are_resource_errors(text, entry):
    message = f"expression nested too deeply (Python recursion limit {sys.getrecursionlimit()})"
    with pytest.raises(ResourceLimitError) as exc:
        entry(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_a_long_flat_chain_elaborates(entry):
    # the left spine of a chain is folded in a loop, not recursed into
    assert entry(" + ".join(["1"] * 5000)) == entry("5000")


def test_a_long_rendering_parses_back():
    a = parse_class("(L+1)^1000")
    assert parse_class(str(a)) == a


def test_moderately_nested_expressions_still_elaborate():
    assert parse_class("(" * 150 + "L" + ")" * 150) == MotivicClass.l_power(1)
    assert parse_class("-" * 150 + "L") == MotivicClass.l_power(1)


@given(motivic_classes())
def test_class_rendering_round_trips(a):
    assert parse_class(str(a)) == a


# Syntax trees with the tokens left out.
_leaves = st.one_of(
    st.builds(Num, st.integers(0, 10 ** 6), st.none()),
    st.builds(Sym, st.sampled_from(["L", "q", "T", "u", "x_1", "GLx"]), st.none()),
)
syntax_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(Call, st.sampled_from(["GL", "Gr"]), st.lists(children, min_size=1, max_size=3).map(tuple),
                  st.none()),
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children, st.none()),
        st.builds(Pow, children, st.integers(-3, 3), st.none()),
    ),
    max_leaves=12,
)


def render(node, level=0):
    """node as text, parenthesized only where a context of precedence level
    needs it: 0 expr, 1 term, 2 factor, 3 power, 4 atom."""
    if isinstance(node, (Num, Sym)):
        text, own = str(node[0]), 4
    elif isinstance(node, Call):
        text, own = f"{node.name}({', '.join(render(a) for a in node.args)})", 4
    elif isinstance(node, Neg):
        text, own = "-" + render(node.operand, 2), 2
    elif isinstance(node, Pow):
        text, own = f"{render(node.base, 4)}^{node.exponent}", 3
    else:  # left-associative: only the right operand needs the tighter level
        own = 0 if node.op in "+-" else 1
        text = f"{render(node.left, own)} {node.op} {render(node.right, own + 1)}"
    return text if own >= level else f"({text})"


def strip(node):
    """node with every token replaced by None."""
    if isinstance(node, Neg):
        return Neg(strip(node.operand))
    if isinstance(node, Call):
        return node._replace(args=tuple(map(strip, node.args)), tok=None)
    if isinstance(node, BinOp):
        return node._replace(left=strip(node.left), right=strip(node.right), tok=None)
    if isinstance(node, Pow):
        return node._replace(base=strip(node.base), tok=None)
    return node._replace(tok=None)


@given(syntax_trees)
@settings(max_examples=300)
def test_minimally_parenthesized_trees_parse_back(tree):
    # repr names each node's type, which tuple equality would not compare
    assert repr(strip(parse_ast(render(tree)))) == repr(tree)


# -- polynomials ---------------------------------------------------------------


def test_parse_poly_basics():
    u = MultiPoly.variable(2, 0)
    v = MultiPoly.variable(2, 1)
    assert parse_poly("1 - u - v + u*v") == 1 - u - v + u * v
    assert parse_poly("u^2*v") == u ** 2 * v
    assert parse_poly("3") == MultiPoly.constant(2, 3)


def test_parse_poly_rejects_class_symbols():
    with pytest.raises(ParseError):
        parse_poly("L + u")
    with pytest.raises(ParseError):
        parse_poly("u/v")
    with pytest.raises(ParseError):
        parse_poly("u^-1")


@given(multipolys())
def test_poly_rendering_round_trips(p):
    assert parse_poly(str(p)) == p


# -- series --------------------------------------------------------------------


def test_parse_series_basics():
    s = parse_series("1 + T", 3)
    assert s.order == 3
    assert s.coefficient(0) == MotivicClass.one()
    assert s.coefficient(1) == MotivicClass.one()
    assert s.coefficient(2).is_zero
    assert parse_series("(1 - T)^2", 2) == parse_series("1 - 2*T + T^2", 2)
    assert parse_series("T^2", 4).coefficient(2) == MotivicClass.one()
    assert parse_series("L*T", 2).coefficient(1) == MotivicClass.l_power(1)


def test_parse_series_division_rules():
    s = parse_series("(1 + T)/(L-1)", 2)
    assert s.coefficient(1) == bgl_class(1)
    with pytest.raises(ElaborationError):
        parse_series("1/(1+T)", 2)
    with pytest.raises(ElaborationError):
        parse_series("(1+T)^-1", 2)
    with pytest.raises(ElaborationError):
        parse_series("T", 0)


@given(motivic_classes(), motivic_classes(), motivic_classes())
@settings(max_examples=20)
def test_series_rendering_round_trips(a, b, c):
    s = TruncatedSeries(MOT, (a, b, c))
    assert parse_series(str(s), 2) == s


# -- dispatch helpers -------------------------------------------------------------


def test_parse_class_or_poly_picks_the_context_from_u_and_v():
    assert parse_class_or_poly("u*v + 1") == parse_poly("u*v + 1")
    assert parse_class_or_poly("L^2 - q") == parse_class("L^2 - q")
    assert parse_class_or_poly("1 + 2") == MotivicClass(3)
    # naming u or v makes the whole text a polynomial expression
    with pytest.raises(ElaborationError, match="unknown identifier 'L' in a polynomial expression"):
        parse_class_or_poly("L + u")
