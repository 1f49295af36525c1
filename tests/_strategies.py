"""Shared hypothesis strategies: small exact objects, poles avoided by design."""

from fractions import Fraction

from hypothesis import strategies as st

from stackzeta import DenomForm, IntLaurent, MotivicClass, MultiPoly
from stackzeta.laurent import cyclotomic

# Rational sample points where no denominator L^a * prod(L^n - 1) vanishes.
EVAL_POINTS = (Fraction(2), Fraction(3), Fraction(5), Fraction(-2), Fraction(7, 2))

coefficients = st.integers(min_value=-9, max_value=9)


@st.composite
def laurents(draw, min_deg=-4, max_deg=6, max_terms=5):
    pairs = draw(
        st.lists(st.tuples(st.integers(min_deg, max_deg), coefficients), max_size=max_terms)
    )
    terms: dict[int, int] = {}
    for deg, c in pairs:
        terms[deg] = terms.get(deg, 0) + c
    return IntLaurent(terms)


def polynomials(max_deg=6, max_terms=5):
    return laurents(min_deg=0, max_deg=max_deg, max_terms=max_terms)


denom_forms = st.builds(
    DenomForm,
    st.integers(min_value=0, max_value=3),
    st.lists(st.integers(min_value=1, max_value=3), max_size=2).map(tuple),
)

# More factors over more exponents, so repeated and interleaved factors are common.
wide_denom_forms = st.builds(
    DenomForm,
    st.integers(min_value=0, max_value=3),
    st.lists(st.integers(min_value=1, max_value=4), max_size=4).map(tuple),
)


@st.composite
def motivic_classes(draw, max_terms=4):
    return MotivicClass(draw(laurents(max_terms=max_terms)), draw(denom_forms))


@st.composite
def shared_denominator_pairs(draw):
    """Two classes over one denominator; their numerators are often multiples
    of a factor of it, so a sum or product has something to cancel."""
    den = draw(wide_denom_forms)
    pair = []
    for _ in range(2):
        num = draw(polynomials(max_terms=4))
        if den.factors and draw(st.booleans()):
            num = num * (IntLaurent.term(draw(st.sampled_from(den.factors))) - 1)
        pair.append(MotivicClass(num, den))
    return tuple(pair)


def nonzero_classes(max_terms=4):
    return motivic_classes(max_terms=max_terms).filter(lambda a: not a.is_zero)


# Invertible classes are exactly sign * L^e * prod Phi_d^{e_d} over any
# denominator: cyclotomic numerator factors, cancelled or not, stay units.
@st.composite
def unit_classes(draw):
    num = IntLaurent.term(draw(st.integers(min_value=0, max_value=3)), draw(st.sampled_from((1, -1))))
    for d in draw(st.lists(st.integers(min_value=1, max_value=12), max_size=3)):
        num = num * cyclotomic(d)
    return MotivicClass(num, draw(denom_forms))


@st.composite
def multipolys(draw, nvars=2, max_deg=4, max_terms=5):
    exps = st.tuples(*([st.integers(0, max_deg)] * nvars))
    pairs = draw(st.lists(st.tuples(exps, coefficients), max_size=max_terms))
    terms: dict[tuple[int, ...], int] = {}
    for e, c in pairs:
        terms[e] = terms.get(e, 0) + c
    return MultiPoly(nvars, terms)
