"""Expression parsing for the CLI and the JSON round-trip surfaces.

One small grammar covers classes, E-polynomials, and series:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' ['-'] INT)?
    atom   := INT | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Exponents are integer literals only.  The same syntax elaborates in three
contexts, which differ in the symbols they admit: class expressions know
L, q = L^{-1} and the constructors GL(n), BGL(n), Gr(k, n); polynomial
expressions know u and v (no division); series expressions additionally
know T, with division restricted to T-free invertible divisors.  The
canonical renderings produced by this package parse back to equal values.
"""

from __future__ import annotations

import operator
import re
import sys
from collections import namedtuple
from typing import TYPE_CHECKING

from .errors import DomainError, ElaborationError, NonInvertibleError, ParseError, ResourceLimitError
from .motivic import MotivicClass, bgl_class, gl_class, grassmannian_class, standard_forms
from .multipoly import MultiPoly
from .power import check_order
from .series import TruncatedSeries
from .zeta import MOTIVIC

if TYPE_CHECKING:
    from fractions import Fraction

# -- tokens ----------------------------------------------------------------------

#: One alternative per token kind.  \d is exactly the decimal digits that int()
#: accepts, in any script; a NAME starts with any other word character.
_TOKEN = re.compile(r"(?P<INT>\d+)|(?P<NAME>[^\W\d]\w*)|(?P<OP>[-+*/^(),])|(?P<NL>\n)|(?P<ERR>\S)")


Token = namedtuple("Token", "kind text line col")
Token.__doc__ = """A token: its kind (INT, NAME, OP or END), its text, and the 1-based
line and column where it starts."""


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "NL":
            line, line_start = line + 1, m.end()
        elif kind == "ERR":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        else:
            out.append(Token(kind, m.group(), line, col))
    out.append(Token("END", "", line, len(text) - line_start + 1))
    return out


# -- syntax tree -------------------------------------------------------------------


Num = namedtuple("Num", "value tok")
Num.__doc__ = "An integer literal."
Sym = namedtuple("Sym", "name tok")
Sym.__doc__ = "A bare identifier."
Call = namedtuple("Call", "name args tok")
Call.__doc__ = "A constructor call: its name and a tuple of argument nodes."
Neg = namedtuple("Neg", "operand")
Neg.__doc__ = "Unary minus."
BinOp = namedtuple("BinOp", "op left right tok")
BinOp.__doc__ = "A binary operation; op is one of + - * /."
Pow = namedtuple("Pow", "base exponent tok")
Pow.__doc__ = "A node raised to an int exponent."


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def take(self, ops: str) -> Token | None:
        """The next token, consumed, if it is an OP whose text is in ops; else None."""
        tok = self.tokens[self.pos]
        if tok.kind == "OP" and tok.text in ops:
            self.pos += 1
            return tok
        return None

    def integer(self) -> int:
        tok = self.tokens[self.pos]
        self.pos += 1
        try:
            return int(tok.text)
        except ValueError as exc:  # the only failure of int() on \d+ is the digit limit
            raise ResourceLimitError(
                f"integer literal of {len(tok.text)} digits is above the limit of"
                f" {sys.get_int_max_str_digits()} digits for integer conversion"
                f" (line {tok.line}, col {tok.col})"
            ) from exc

    def expect_op(self, text: str) -> None:
        if self.take(text) is None:
            tok = self.tokens[self.pos]
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)

    def parse(self):
        node = self.expr()
        tok = self.tokens[self.pos]
        if tok.kind != "END":
            raise ParseError(f"unexpected {tok.text!r} after expression", tok.line, tok.col)
        return node

    def expr(self):
        node = self.term()
        while tok := self.take("+-"):
            node = BinOp(tok.text, node, self.term(), tok)
        return node

    def term(self):
        node = self.factor()
        while tok := self.take("*/"):
            node = BinOp(tok.text, node, self.factor(), tok)
        return node

    def factor(self):
        if self.take("-"):
            return Neg(self.factor())
        node = self.atom()
        tok = self.take("^")
        if tok is None:
            return node
        sign = -1 if self.take("-") else 1
        itok = self.tokens[self.pos]
        if itok.kind != "INT":
            raise ParseError("exponent must be an integer literal", itok.line, itok.col)
        return Pow(node, sign * self.integer(), tok)

    def atom(self):
        tok = self.tokens[self.pos]
        if tok.kind == "INT":
            return Num(self.integer(), tok)
        if self.take("("):
            node = self.expr()
            self.expect_op(")")
            return node
        if tok.kind != "NAME":
            raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col)
        self.pos += 1
        if not self.take("("):
            return Sym(tok.text, tok)
        args = [self.expr()]
        while self.take(","):
            args.append(self.expr())
        self.expect_op(")")
        return Call(tok.text, tuple(args), tok)


def parse_ast(text: str):
    return _Parser(tokenize(text)).parse()


# -- elaboration --------------------------------------------------------------------


def _int_literal(node, call: Call) -> int:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg) and isinstance(node.operand, Num):
        return -node.operand.value
    raise ElaborationError(f"{call.name} arguments must be integer literals", call.tok.line, call.tok.col)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


class _Env:
    """Shared tree-walk.  Each context defines ``of_int``, the value of an
    integer literal, and overrides ``symbol``, ``call``, ``div`` and ``pow``
    where it admits more than this base, which rejects every identifier,
    call and division and every negative exponent."""

    context = "expression"

    def run(self, node):
        if isinstance(node, Num):
            return self.of_int(node.value)
        if isinstance(node, Sym):
            return self.symbol(node)
        if isinstance(node, Call):
            return self.call(node)
        if isinstance(node, Neg):
            return -self.run(node.operand)
        if isinstance(node, Pow):
            return _at_token(node.tok, self.pow, self.run(node.base), node.exponent, node.tok)
        if not isinstance(node, BinOp):
            raise ElaborationError(f"cannot elaborate {node!r}")
        # a flat chain a + b - c ... nests to the left, so its left spine is
        # folded in a loop: its length costs no Python stack
        spine = []
        while isinstance(node, BinOp):
            spine.append(node)
            node = node.left
        value = self.run(node)
        for op in reversed(spine):
            value = self.binop(op, value)
        return value

    def binop(self, node: BinOp, left):
        """left op right, with right elaborated here."""
        right = self.run(node.right)
        if node.op in _ARITHMETIC:
            return _ARITHMETIC[node.op](left, right)
        return _at_token(node.tok, self.div, left, right, node.tok)

    def symbol(self, node: Sym):
        raise ElaborationError(
            f"unknown identifier {node.name!r} in a {self.context}", node.tok.line, node.tok.col
        )

    def call(self, node: Call):
        raise ElaborationError(
            f"{node.name!r} is not available in a {self.context}", node.tok.line, node.tok.col
        )

    def div(self, a, b, tok: Token):
        raise ElaborationError(f"division is not allowed in a {self.context}", tok.line, tok.col)

    def pow(self, a, n: int, tok: Token):
        if n < 0:
            raise ElaborationError(f"negative exponents are not allowed in a {self.context}", tok.line, tok.col)
        return a ** n


def _at_token(tok: Token, step, *args):
    """step(*args); a non-unit divisor or negative-power base fails at tok."""
    try:
        return step(*args)
    except NonInvertibleError as exc:
        raise ElaborationError(str(exc), tok.line, tok.col) from exc


_CONSTRUCTOR_ARITY = {"GL": 1, "BGL": 1, "Gr": 2}
_CLASS_CONSTRUCTORS = {"GL": gl_class, "BGL": bgl_class, "Gr": grassmannian_class}


class _ClassEnv(_Env):
    context = "class expression"

    def of_int(self, n: int):
        return MotivicClass(n)

    def symbol(self, node: Sym):
        if node.name == "L":
            return MotivicClass.l_power(1)
        if node.name == "q":
            return MotivicClass.l_power(-1)
        return super().symbol(node)

    def call(self, node: Call):
        arity = _CONSTRUCTOR_ARITY.get(node.name)
        if arity is None:
            return super().call(node)
        if len(node.args) != arity:
            raise ElaborationError(
                f"{node.name} takes {arity} argument(s)", node.tok.line, node.tok.col
            )
        args = [_int_literal(a, node) for a in node.args]
        try:
            return self.construct(node.name, args)
        except DomainError as exc:
            raise ElaborationError(str(exc), node.tok.line, node.tok.col) from exc

    def construct(self, name: str, args: list[int]):
        return _CLASS_CONSTRUCTORS[name](*args)

    def div(self, a, b, tok: Token):
        return a / b

    def pow(self, a, n: int, tok: Token):
        return a ** n


class _PointEnv(_ClassEnv):
    """A class expression's value at L = t, walked on Fractions.

    For t outside {0, 1, -1} no denominator L^a * prod(L^n - 1) vanishes, so
    evaluation at t is a ring homomorphism to Q and each node's value is the
    image of the class it would elaborate to.  A divisor or negative-power
    base is also elaborated as a class, only for the unit check, so it fails
    with the same message and position; its value is taken here.  Building
    that class checks every divisor inside it too, so its subtree is walked
    with the checks off (``checked``), and each node is built as a class at
    most once.
    """

    def __init__(self, t: Fraction):
        import fractions

        self.t = t
        self.classes = _ClassEnv()
        self.checked = False
        self.fraction = fractions.Fraction  # of_int runs once per integer leaf, so it imports nothing

    def run(self, node):
        if isinstance(node, Pow) and node.exponent < 0:
            return self._inverse_at(node.base, node.tok) ** -node.exponent
        return super().run(node)

    def binop(self, node: BinOp, left):
        if node.op == "/":
            return left * self._inverse_at(node.right, node.tok)
        return super().binop(node, left)

    def _inverse_at(self, node, tok: Token) -> Fraction:
        if self.checked:
            return 1 / self.run(node)
        _at_token(tok, self.classes.run(node).inverse)
        self.checked = True
        try:
            return 1 / self.run(node)
        finally:
            self.checked = False

    def of_int(self, n: int):
        return self.fraction(n)

    def symbol(self, node: Sym):
        if node.name == "L":
            return self.t
        if node.name == "q":
            return 1 / self.t
        return _Env.symbol(self, node)

    def construct(self, name: str, args: list[int]):
        top, bottom = standard_forms(name, args)
        return top.eval_rational(self.t) / bottom.eval_rational(self.t)


class _PolyEnv(_Env):
    context = "polynomial expression"

    def of_int(self, n: int):
        return MultiPoly.constant(2, n)

    def symbol(self, node: Sym):
        if node.name == "u":
            return MultiPoly.variable(2, 0)
        if node.name == "v":
            return MultiPoly.variable(2, 1)
        return super().symbol(node)


class _SeriesEnv(_Env):
    context = "series expression"

    def __init__(self, order: int):
        check_order(order)
        self.order = order
        self.classes = _ClassEnv()

    def _constant(self, c: MotivicClass) -> TruncatedSeries:
        return TruncatedSeries.constant(MOTIVIC, c, self.order)

    def of_int(self, n: int):
        return self._constant(MotivicClass(n))

    def symbol(self, node: Sym):
        if node.name != "T":
            return self._constant(self.classes.symbol(node))
        if self.order < 1:
            raise ElaborationError("T does not fit in an order-0 series", node.tok.line, node.tok.col)
        return TruncatedSeries(MOTIVIC, (MOTIVIC.zero, MOTIVIC.one) + (MOTIVIC.zero,) * (self.order - 1))

    def call(self, node: Call):
        return self._constant(self.classes.call(node))

    @staticmethod
    def _t_free(s: TruncatedSeries) -> MotivicClass | None:
        if all(c.is_zero for c in s.coefficients[1:]):
            return s.coefficients[0]
        return None

    def div(self, a, b, tok: Token):
        c = self._t_free(b)
        if c is None:
            raise ElaborationError("series division needs a T-free divisor", tok.line, tok.col)
        return a * self._constant(c.inverse())

    def pow(self, a, n: int, tok: Token):
        if n >= 0:
            return a ** n
        c = self._t_free(a)
        if c is None:
            raise ElaborationError(
                "negative powers need a T-free invertible base", tok.line, tok.col
            )
        return self._constant(c.inverse() ** (-n))


def _elaborate(env: _Env, tokens: list[Token]):
    """The value of the parsed tokens in env's context; a tree too deep for
    the Python stack raises ResourceLimitError."""
    try:
        return env.run(_Parser(tokens).parse())
    except RecursionError as exc:
        raise ResourceLimitError(
            f"expression nested too deeply (Python recursion limit {sys.getrecursionlimit()})"
        ) from exc


def parse_class(text: str) -> MotivicClass:
    """Elaborate a class expression in L, q, GL, BGL, Gr."""
    return _elaborate(_ClassEnv(), tokenize(text))


def evaluate_class(text: str, t: Fraction) -> Fraction:
    """The value of a class expression at L = t.

    Away from {0, 1, -1} the tree is evaluated on Fractions (``_PointEnv``),
    so no class is expanded.  At those three points a factor L, Phi_1 = L - 1
    or Phi_2 = L + 1 of a denominator can vanish, and whether the class has a
    pole there is read off its reduced denominator (``(L+1)/(L^2-1)`` is
    -1/2 at -1, ``BGL(1)*(L-1)`` is 1 at 1), so the class is elaborated first
    and then evaluated.
    """
    if t in (0, 1, -1):
        return parse_class(text).eval_rational(t)
    return _elaborate(_PointEnv(t), tokenize(text))


def parse_poly(text: str) -> MultiPoly:
    """Elaborate an E-polynomial expression in u, v."""
    return _elaborate(_PolyEnv(), tokenize(text))


def parse_class_or_poly(text: str) -> MotivicClass | MultiPoly:
    """Elaborate an E-polynomial expression if the text names u or v, and a
    class expression otherwise; the text is tokenized once for both."""
    tokens = tokenize(text)
    env = _PolyEnv() if any(tok.kind == "NAME" and tok.text in ("u", "v") for tok in tokens) else _ClassEnv()
    return _elaborate(env, tokens)


def parse_series(text: str, order: int) -> TruncatedSeries:
    """Elaborate a series expression in T with motivic-class coefficients."""
    return _elaborate(_SeriesEnv(order), tokenize(text))
