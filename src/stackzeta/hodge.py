"""Hodge-Deligne realization, zeta functions of E-polynomials, effectiveness.

The realization sends a motivic class to its Hodge-Deligne polynomial in u, v
via L -> uv; denominators stay structured as powers of (uv)^n - 1.  The zeta
function acts on an E-polynomial P = sum c_{ab} u^a v^b monomial by monomial:

    zeta_P(T) = prod_{a,b} (1 - u^a v^b T)^{-c_{ab}}

which realizes the Kapranov zeta function of any polynomial class.  It is
computed by Newton's identity on the Adams operations psi^r(P)(u, v) =
P(u^r, v^r), the same engine as the motivic zeta.

Effectiveness here means "is the class of an actual variety, or a nonnegative
combination of such".  The checkers are refutation heuristics built on one
fact: the E-polynomial of a nonempty variety of dimension n has top-degree
part ell * (uv)^n with ell >= 1 (count of top-dimensional components), and
nonnegative combinations preserve that shape.  A violating top part therefore
refutes effectiveness conclusively; the passing verdict is only
"effective-candidate", never a proof.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .errors import DomainError, int_text_limit
from .laurent import IntLaurent
from .motivic import DenomForm, MotivicClass, bgl_class
from .multipoly import MultiPoly
from .power import LambdaProvider, binomial_series, opposite_provider, opposite_series
from .series import Ring, TruncatedSeries
from .zeta import motivic_provider, zeta_series

EFFECTIVE_CANDIDATE = "effective-candidate"
NOT_EFFECTIVE = "not-effective"
INCONCLUSIVE = "inconclusive (denominator shape)"


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
    """Refutation heuristic on a motivic class.

    The denominator, in the shape L^a * prod(L^n - 1) that the cover rule
    writes the reduced one in (``den``), must be a product of [GL(r)]-shapes:
    factors are matched greedily as staircases {1, ..., r} (largest remaining
    exponent fixes r).
    Powers of L are units and never affect the verdict: a missing L-power is
    moved into the numerator and an excess one is discarded, so the verdict
    is invariant under multiplication by L^{+-1}.  A denominator that is not
    a product of staircases yields the inconclusive verdict: the class may
    still be ineffective, but this test cannot tell.
    """
    if a.is_zero:
        return EffectivenessResult(EFFECTIVE_CANDIDATE, detail="zero class")
    den = a.den
    remaining = Counter(den.factors)
    ranks: list[int] = []
    while remaining:
        r = max(remaining)
        for j in range(1, r + 1):
            if remaining[j] <= 0:
                return EffectivenessResult(
                    INCONCLUSIVE,
                    detail=f"denominator factors {den.factors} are not GL-staircases",
                )
            remaining[j] -= 1
            if not remaining[j]:
                del remaining[j]
        ranks.append(r)
    needed_l = sum(r * (r - 1) // 2 for r in ranks)
    deficit = needed_l - den.l_exp
    num = a.num.shift(deficit) if deficit > 0 else a.num
    realized = num.substitute(MultiPoly.monomial((1, 1)))
    inner = check_polynomial_effectiveness(realized)
    shape = f"numerator against GL ranks {tuple(ranks)}" if ranks else "polynomial class"
    return EffectivenessResult(inner.verdict, inner.witness, f"{shape}; {inner.detail}")


# -- the two non-effectiveness reproductions ------------------------------------


class CounterexampleReport(
    namedtuple("CounterexampleReport", "name passed coefficient effectiveness notes", defaults=((),))
):
    """One reproduction: whether every check held, the T^2 coefficient, its
    EffectivenessResult, and notes (failed checks, then the series)."""

    __slots__ = ()

    def __str__(self) -> str:
        head = f"{self.name}: {'ok' if self.passed else 'FAILED'}"
        body = [f"  T^2 coefficient: {self.coefficient}", f"  effectiveness: {self.effectiveness}"]
        body.extend(f"  {n}" for n in self.notes)
        return "\n".join([head] + body)


def curve_opposite_counterexample() -> CounterexampleReport:
    """Opposite power structure on the class of a genus-1 curve.

    For e = 1 - u - v + uv (the E-polynomial of a smooth projective genus-1
    curve), the T^2 coefficient of (1 + T)^e under the opposite power
    structure equals e^2 - sym^2(e), and its top-degree part -u^2v - uv^2
    refutes effectiveness.  So the opposite structure, unlike the Kapranov
    one, does not preserve effectivity.
    """
    u = MultiPoly.variable(2, 0)
    v = MultiPoly.variable(2, 1)
    e = MultiPoly.one(2) - u - v + u * v
    opp = opposite_series(hd_zeta(e, 2))
    c2 = opp.coefficient(2)
    expected = (
        -(u ** 2 * v) - u * v ** 2 + u ** 2 + v ** 2 + 2 * u * v - u - v
    )
    binom = binomial_series(e, 2, hd_opposite_provider())
    eff = check_polynomial_effectiveness(c2)
    expected_witness = -(u ** 2 * v) - u * v ** 2
    checks = (
        (opp.coefficient(1) == e, f"T coefficient {opp.coefficient(1)} != {e}"),
        (c2 == expected, f"T^2 coefficient differs from {expected}"),
        (binom.coefficient(2) == c2, "(1+T)^e under the opposite provider disagrees with the direct series"),
        (eff.refuted, "expected a refutation"),
        (eff.witness == expected_witness, f"expected witness {expected_witness}, got {eff.witness}"),
    )
    notes = tuple(note for holds, note in checks if not holds) + (f"series: {opp}",)
    return CounterexampleReport("curve-opposite", all(holds for holds, _ in checks), c2, eff, notes)


def stack_power_counterexample(order: int = 2) -> CounterexampleReport:
    """The power structure on stack classes does not preserve effectivity.

    With m = [BGL(1)] = 1/(L-1), the series (1 + T)^m is computed two ways:
    through the power structure and as zeta_m(T)/zeta_m(T^2) (valid since
    (1+T) = (1-T^2)/(1-T) and (1-T)^{-m} = zeta_m).  Its T^2 coefficient is
    (-L^3 + L^2 + L)/[GL(2)], whose realization has top part -(uv)^3, so no
    stacky analogue of "effective" survives this power structure.
    """
    if order < 2:
        raise DomainError("the refutation lives at T^2; need order >= 2")
    m = bgl_class(1)
    provider = motivic_provider()
    via_power = binomial_series(m, order, provider)
    zm = zeta_series(m, order)
    via_ratio = zm * zm.substitute_tk(2).inverse()
    target = MotivicClass(IntLaurent({3: -1, 2: 1, 1: 1}), DenomForm(1, (1, 2)))
    div = via_power.first_divergence(via_ratio)
    c2 = via_power.coefficient(2)
    eff = check_class_effectiveness(c2)
    checks = (
        (div is None, f"power and ratio routes diverge at T^{div}"),
        (via_power.coefficient(1) == m, "T coefficient is not [BGL(1)]"),
        (c2 == target, f"T^2 coefficient {c2} != {target}"),
        (eff.refuted, "expected a refutation"),
    )
    notes = tuple(note for holds, note in checks if not holds) + (f"series: {via_power}",)
    return CounterexampleReport("stack-power", all(holds for holds, _ in checks), c2, eff, notes)
