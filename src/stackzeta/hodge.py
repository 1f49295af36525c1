"""Hodge-Deligne realization, zeta functions of E-polynomials, effectiveness.

The realization sends a motivic class to its Hodge-Deligne polynomial in u, v
via L -> uv (``MotivicClass.hd_realization``); denominators stay structured
as powers of (uv)^n - 1.  The zeta
function acts on an E-polynomial P = sum c_{ab} u^a v^b monomial by monomial:

    zeta_P(T) = prod_{a,b} (1 - u^a v^b T)^{-c_{ab}}

which realizes the Kapranov zeta function of any polynomial class.  It is
computed by Newton's identity on the Adams operations psi^r(P)(u, v) =
P(u^r, v^r), the same engine as the motivic zeta.

Effectiveness here means "is the class of an actual variety or stack, or a
nonnegative combination of such".  The checkers are refutation heuristics
built on one fact: the E-polynomial of a nonempty variety of dimension n has
top-degree part ell * (uv)^n with ell >= 1 (count of top-dimensional
components), nonnegative combinations keep that shape, and a class leads
with it exactly when the leading coefficient of its numerator in L is
positive.  A violating top part refutes effectiveness conclusively; the
passing verdict is only "effective-candidate", never a proof.  The paper's two refutations built on
these checkers, for the opposite structure and for stacky powers, are in
``verify``.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError, int_text_limit
from .motivic import HDRealization, MotivicClass
from .multipoly import MultiPoly
from .power import LambdaProvider, opposite_provider
from .series import Ring, TruncatedSeries

EFFECTIVE_CANDIDATE = "effective-candidate"
NOT_EFFECTIVE = "not-effective"


def hd_ring(nvars: int = 2) -> Ring:
    return Ring(f"int-poly-{nvars}", MultiPoly.zero(nvars), MultiPoly.one(nvars))


def hd_provider(nvars: int = 2) -> LambdaProvider:
    """The E-polynomial zeta function as a lambda provider."""
    return LambdaProvider("hd-zeta", hd_ring(nvars), MultiPoly.adams)


def hd_zeta(poly: MultiPoly, order: int) -> TruncatedSeries:
    """zeta of an E-polynomial, prod over monomials of (1 - u^a v^b T)^{-c_{ab}}."""
    return hd_provider(poly.nvars).series(poly, order)


def hd_opposite_provider(nvars: int = 2) -> LambdaProvider:
    """The opposite of the E-polynomial provider."""
    return opposite_provider(hd_provider(nvars))


# -- effectiveness --------------------------------------------------------------


class EffectivenessResult(namedtuple("EffectivenessResult", "verdict witness detail", defaults=(None, ""))):
    """A verdict of the effectiveness heuristic, the top-degree MultiPoly that
    refutes effectiveness (or None), and a line of detail."""

    __slots__ = ()

    @property
    def refuted(self) -> bool:
        return self.verdict == NOT_EFFECTIVE

    def __str__(self) -> str:
        out = self.verdict
        if self.witness is not None:
            out += f"; witness: {self.witness}"
        if self.detail:
            out += f" [{self.detail}]"
        return out


def check_polynomial_effectiveness(poly: MultiPoly) -> EffectivenessResult:
    """Refutation heuristic on an E-polynomial in u, v.

    not-effective is conclusive (the top-degree part cannot come from any
    nonnegative combination of varieties); effective-candidate is not a
    proof of effectiveness.
    """
    if poly.nvars != 2:
        raise DomainError("effectiveness is checked on polynomials in u, v")
    if poly.is_zero:
        return EffectivenessResult(EFFECTIVE_CANDIDATE, detail="zero polynomial")
    top = poly.top_part()
    terms = list(top.items())
    if len(terms) == 1:
        (a, b), coeff = terms[0]
        if a == b and coeff > 0:
            with int_text_limit():
                detail = f"top part {coeff}*(uv)^{a}"
            return EffectivenessResult(EFFECTIVE_CANDIDATE, detail=detail)
    return EffectivenessResult(NOT_EFFECTIVE, witness=top, detail="top-degree part not ell*(uv)^n")


def check_class_effectiveness(a: MotivicClass) -> EffectivenessResult:
    """Refutation test on a motivic class, conclusive for every denominator.

    Let lead(N/D) = top(N)/top(D), the quotient of the top-degree parts: it
    is multiplicative, and leads of one degree add unless they cancel.  A
    stack with affine stabilizers is a nonnegative sum of quotients [Y/GL(n)]
    (Ekedahl), each leading with ell*(uv)^(dim Y - n^2), ell >= 1, as E(GL(n))
    is monic; such leads never cancel, so an effective class leads with
    ell*(uv)^m, ell >= 1.  The realized ``den``, (uv)^a * prod((uv)^n - 1), is
    monic too, so the class leads with top(E(num))/(uv)^(a + sum(n)), and
    top(E(num)) is ell*(uv)^D for the leading term ell*L^D of ``num``: that
    one monomial decides the class, whatever its denominator, and is the
    witness, so the rest of the numerator is never realized.
    """
    if a.is_zero:
        return EffectivenessResult(EFFECTIVE_CANDIDATE, detail="zero class")
    num, den = a.num_den()
    top = num.max_deg
    inner = check_polynomial_effectiveness(MultiPoly(2, {(top, top): num.coefficient(top)}))
    shape = "polynomial class" if den.is_trivial else str(HDRealization("numerator", den.l_exp, den.factors))
    return EffectivenessResult(inner.verdict, inner.witness, f"{shape}; {inner.detail}")
