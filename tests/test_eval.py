"""`eval` on exact fractions against the class route it replaces.

Away from L in {0, 1, -1}, `stackzeta eval` walks the expression on
Fractions; the reference here elaborates the whole class first and then
evaluates it, which is what `eval` did before and still does at those three
points.  Both routes must agree byte for byte, errors included.
"""

import contextlib
import io
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stackzeta import IntLaurent, MotivicClass, cli, parse_class
from stackzeta.expr import evaluate_class

VALID = ["L", "q", "0", "1", "2", "3", "L-1", "L^2-1", "L+1", "1-q",
         "GL(2)", "GL(0)", "BGL(1)", "BGL(2)", "Gr(1,3)", "Gr(2,4)"]
INVALID = ["GL(-1)", "BGL(-2)", "Gr(3,2)", "Gr(2)", "GL(1,2)", "GL(L)", "T", "x", "u(1)"]
# an invalid leaf fails the whole expression, so each is drawn half as often
ATOMS = st.sampled_from(VALID * 2 + INVALID)


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda t: f"({t[0]}) / ({t[1]})"),
        st.tuples(children, st.integers(-2, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(children, st.sampled_from("+-*"), children).map(lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        children.map(lambda c: f"-({c})"),
    )


EXPRESSIONS = st.recursive(ATOMS, _combine, max_leaves=8)
# the routes differ only away from 0, 1 and -1, so those points are drawn more
POINTS = st.sampled_from(("2", "-7/3", "5/2") * 2 + ("0", "1", "-1"))


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def class_route(text, t):
    return parse_class(text).eval_rational(t)


@settings(max_examples=400)
@given(EXPRESSIONS, POINTS, st.sampled_from([(), ("--json",)]))
@example("(L) / ((L) + (L))", "2", ())
@example("(L+1)^-2", "5/2", ())
@example("(x) / (GL(-1))", "2", ())
@example("(Gr(2,4)) / ((1-q)^3) - (BGL(2))^-1", "-7/3", ("--json",))
def test_eval_matches_the_class_route(text, at, extra):
    # "--" keeps a leading minus sign from reading as an option
    argv = ("eval", "--at", at, *extra, "--", text)
    got = run(*argv)
    with mock.patch.object(cli, "evaluate_class", class_route):
        assert got == run(*argv)


def test_eval_off_the_poles_builds_no_class(monkeypatch):
    text = "(L+1)^6*GL(3) - q*Gr(2,4) + BGL(2)*L^3 - 7"
    want = parse_class(text).eval_rational(2)

    def built(*args, **kwargs):
        raise AssertionError("a MotivicClass was built")

    monkeypatch.setattr(MotivicClass, "__init__", built)
    monkeypatch.setattr(MotivicClass, "_raw", classmethod(built))
    assert run("eval", text, "--at", "2") == (0, f"{want}\n", "")


#: Divisions and negative powers by units, nested and with large binomials.
UNIT_DIVISORS = [
    "1/(L^2-1) + GL(3)/BGL(2)",
    "L/(L^6-1)^2",
    "(L+1)/(L^2+1)",
    "(L^2+L+1)^-3 * q",
    "BGL(4)/(L^5-1)",
    "1/(1/(L-1))",
    "(L^3+L+1)/((L^30-1)*(L^2-1))",
]


def test_eval_takes_the_value_of_a_divisor_on_fractions(monkeypatch):
    # the divisor's class serves the unit check only: its inverse is never
    # evaluated term by term at the point
    t = Fraction(5, 2)
    want = [class_route(text, t) for text in UNIT_DIVISORS]

    def evaluated(*args):
        raise AssertionError("a class was evaluated at the point")

    monkeypatch.setattr(MotivicClass, "eval_rational", evaluated)
    monkeypatch.setattr(IntLaurent, "eval_rational", evaluated)
    assert [evaluate_class(text, t) for text in UNIT_DIVISORS] == want


def test_nested_divisors_are_built_as_classes_once(monkeypatch):
    # the outer divisor's class checks every divisor inside it, so the inner
    # ones are not built again: one inverse per division, not one per pair
    calls = []
    inverse = MotivicClass.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(MotivicClass, "inverse", counting)
    for depth in (1, 10, 40):
        calls.clear()
        assert evaluate_class("1/(" * depth + "L-1" + ")" * depth, Fraction(5, 2)) == Fraction(3, 2) ** (-1) ** depth
        assert len(calls) == depth
        calls.clear()
        assert evaluate_class("(" * depth + "L+1" + ")^-1" * depth, Fraction(5, 2)) == Fraction(7, 2) ** (-1) ** depth
        assert len(calls) == depth
