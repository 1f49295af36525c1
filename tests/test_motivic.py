"""Exact fractions in L with structured denominators."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stackzeta import (
    DenomForm,
    DomainError,
    IntLaurent,
    InternalConsistencyError,
    MotivicClass,
    MultiPoly,
    NonInvertibleError,
    bgl_class,
    gl_class,
    grassmannian_class,
)
from stackzeta import laurent
from stackzeta.laurent import l_minus_one
from stackzeta.motivic import unit_part

from _strategies import (
    EVAL_POINTS,
    denom_forms,
    laurents,
    motivic_classes,
    shared_denominator_pairs,
    unit_classes,
    wide_denom_forms,
)


def _value(a, t):
    den = t ** a.den.l_exp
    for n in a.den.factors:
        den *= t ** n - 1
    return a.num.eval_rational(t) / den


# -- denominator shapes ---------------------------------------------------------


def test_denom_form_validation():
    with pytest.raises(DomainError):
        DenomForm(-1, ())
    with pytest.raises(DomainError):
        DenomForm(0, (0,))
    assert DenomForm(0, (3, 1, 2)).factors == (1, 2, 3)
    assert DenomForm().is_trivial
    assert not DenomForm(1, ()).is_trivial


@given(denom_forms, denom_forms)
def test_denom_lcm_is_a_common_multiple(d1, d2):
    m = d1.lcm(d2)
    assert d1.complement_in(m) * d1.expand() == m.expand()
    assert d2.complement_in(m) * d2.expand() == m.expand()


def _counter_lcm(d1, d2):
    merged = Counter(d1.factors) | Counter(d2.factors)
    return DenomForm(max(d1.l_exp, d2.l_exp), tuple(merged.elements()))


def _counter_complement(d, target):
    """target/d as a DenomForm, or None when target is not a multiple of d."""
    mine, theirs = Counter(d.factors), Counter(target.factors)
    if target.l_exp < d.l_exp or mine - theirs:
        return None
    return DenomForm(target.l_exp - d.l_exp, tuple((theirs - mine).elements()))


@given(wide_denom_forms, wide_denom_forms)
def test_denom_shape_algebra_matches_a_counter_reference(d1, d2):
    m, want_m = d1.lcm(d2), _counter_lcm(d1, d2)
    assert (m.l_exp, m.factors) == (want_m.l_exp, want_m.factors)
    for d in (d1, d2):
        assert d.complement_in(m) == _counter_complement(d, m).expand()
    t = d1.times(d2)
    assert (t.l_exp, t.factors) == (d1.l_exp + d2.l_exp, tuple(sorted(d1.factors + d2.factors)))
    want = _counter_complement(d1, d2)
    if want is None:
        with pytest.raises(DomainError):
            d1.complement_in(d2)
    else:
        assert d1.complement_in(d2) == want.expand()


def test_complement_requires_a_multiple():
    cases = [
        ((0, (2,)), (0, (1,))),  # a factor the target lacks
        ((0, (1, 3)), (0, (1, 2, 2))),  # interleaved: 3 falls between the target's factors
        ((0, (2, 2)), (0, (1, 2, 3))),  # extra multiplicity
        ((0, (1, 1)), (0, (1,))),  # extra multiplicity at the end
        ((0, (4,)), (0, (1, 2, 3))),  # a factor above every target factor
        ((2, ()), (1, ())),  # a smaller L-exponent
        ((2, (1,)), (1, (1, 2))),  # a smaller L-exponent over matching factors
    ]
    for den, target in cases:
        with pytest.raises(DomainError):
            DenomForm(*den).complement_in(DenomForm(*target))


def test_denom_expand():
    assert DenomForm(1, (1,)).expand() == IntLaurent({2: 1, 1: -1})
    assert DenomForm().expand() == IntLaurent.one()


# -- construction and equality ----------------------------------------------------


def test_negative_degrees_fold_into_denominator():
    a = MotivicClass(IntLaurent({-2: 1}))
    assert a == MotivicClass.l_power(-2)
    assert a.num == IntLaurent.one()
    assert a.den == DenomForm(2, ())


@given(motivic_classes())
def test_numerators_never_keep_negative_degrees(a):
    if not a.is_zero:
        assert a.num.min_deg >= 0


def test_equality_crosses_representations():
    # L(L+1)/(L^2-1) and L/(L-1) are the same class in different shapes
    a = MotivicClass(IntLaurent({2: 1, 1: 1}), DenomForm(0, (2,)))
    b = MotivicClass(IntLaurent.term(1), DenomForm(0, (1,)))
    assert a == b
    assert a.structural_key() != b.structural_key()
    assert not a == b + 1


def test_zero_equality_ignores_denominator():
    assert MotivicClass(IntLaurent.zero(), DenomForm()) == MotivicClass.zero()
    assert MotivicClass.zero() == 0
    assert not MotivicClass.one().is_zero


# -- arithmetic against exact rational evaluation ----------------------------------


@given(motivic_classes(), motivic_classes())
def test_arithmetic_matches_rational_evaluation(a, b):
    for t in EVAL_POINTS:
        assert (a + b).eval_rational(t) == _value(a, t) + _value(b, t)
        assert (a - b).eval_rational(t) == _value(a, t) - _value(b, t)
        assert (a * b).eval_rational(t) == _value(a, t) * _value(b, t)


@given(motivic_classes(), st.integers(min_value=0, max_value=3))
def test_pow_matches_rational_evaluation(a, n):
    for t in EVAL_POINTS:
        assert (a ** n).eval_rational(t) == _value(a, t) ** n


def test_pow_rules():
    a = bgl_class(2)
    assert a ** 0 == MotivicClass.one()
    assert a ** 2 == a * a
    assert MotivicClass.l_power(2) ** -1 == MotivicClass.l_power(-2)
    with pytest.raises(DomainError):
        a ** 1.5
    with pytest.raises(NonInvertibleError):
        (a + 1) ** -1


def test_int_and_laurent_coercion():
    a = bgl_class(1)
    assert a + 1 == MotivicClass(IntLaurent.term(1), DenomForm(0, (1,)))
    assert 1 + a == a + 1
    assert 2 * a == a + a
    assert 1 - a == -(a - 1)
    assert a * IntLaurent.term(1) == MotivicClass(IntLaurent.term(1), DenomForm(0, (1,)))
    assert 1 / MotivicClass.l_power(1) == MotivicClass.l_power(-1)
    assert MotivicClass.l_power(2) / MotivicClass.l_power(1) == MotivicClass.l_power(1)


# The general route of the class arithmetic, kept as the reference for its
# fast paths: every sum goes over the lcm with both complements, every product
# over the concatenated denominators, ints are coerced to classes, and each
# result is normalized.  Zero and one operands return the other operand as is.
def _reference_sum(a, b):
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    den = _counter_lcm(a.den, b.den)
    num = a.num * _counter_complement(a.den, den).expand()
    num = num + b.num * _counter_complement(b.den, den).expand()
    return MotivicClass(num, den).normalize()


def _reference_product(a, b):
    if isinstance(b, int):
        b = MotivicClass(b)
    one = MotivicClass.one().structural_key()
    if a.is_zero or b.is_zero:
        return MotivicClass.zero()
    if b.structural_key() == one:
        return a
    if a.structural_key() == one:
        return b
    den = DenomForm(a.den.l_exp + b.den.l_exp, a.den.factors + b.den.factors)
    return MotivicClass(a.num * b.num, den).normalize()


@given(
    st.one_of(shared_denominator_pairs(), st.tuples(motivic_classes(), motivic_classes())),
    st.integers(min_value=-5, max_value=5).filter(bool),
)
def test_fast_paths_keep_the_general_route_shape(pair, k):
    a, b = pair
    assert (a + b).structural_key() == _reference_sum(a, b).structural_key()
    assert (a * b).structural_key() == _reference_product(a, b).structural_key()
    assert (k * a).structural_key() == _reference_product(a, k).structural_key()
    assert (a * k).structural_key() == _reference_product(a, k).structural_key()
    assert (a * 1).structural_key() == a.structural_key()


# -- normalization ------------------------------------------------------------


@given(motivic_classes())
def test_normalize_is_idempotent_and_preserves_value(a):
    n = a.normalize()
    assert n == a
    assert n.normalize().structural_key() == n.structural_key()


def test_normalize_cancels_fully():
    a = MotivicClass(l_minus_one(1), DenomForm(0, (1,)))
    assert a.normalize().structural_key() == MotivicClass.one().structural_key()
    b = MotivicClass(IntLaurent.term(3), DenomForm(2, ()))
    assert b.normalize().structural_key() == MotivicClass.l_power(1).structural_key()
    # (L^2-1) cancels one factor out of (L-1)(L^2-1)
    c = MotivicClass(l_minus_one(2), DenomForm(0, (1, 2)))
    assert c.normalize().den == DenomForm(0, (1,))


# -- inversion ------------------------------------------------------------------


@given(unit_classes())
def test_units_invert_exactly(a):
    assert a * a.inverse() == MotivicClass.one()
    assert a.inverse().inverse() == a


def test_non_units_are_rejected():
    for num in (IntLaurent({1: 1, 0: -2}), IntLaurent({1: 1, 0: 1}), IntLaurent.from_int(2)):
        with pytest.raises(NonInvertibleError):
            MotivicClass(num).inverse()
    with pytest.raises(NonInvertibleError):
        MotivicClass.zero().inverse()


@given(
    st.sampled_from((1, -1)),
    st.integers(min_value=0, max_value=5),
    st.lists(st.integers(min_value=1, max_value=30), max_size=8),
)
@example(-1, 3, [2, 2, 5, 1, 1, 30, 30, 15])
def test_unit_part_recovers_sign_l_power_and_factors(sign, a, ns):
    p = IntLaurent.term(a, sign)
    for n in ns:
        p = p * l_minus_one(n)
    assert unit_part(p) == (sign, a, tuple(sorted(ns)))
    for non_unit in (IntLaurent.from_int(2), IntLaurent({1: 1, 0: -2}), IntLaurent({3: 1, 1: 1, 0: 1})):
        assert unit_part(p * non_unit) is None


def test_inverse_of_gl_is_bgl():
    for n in range(4):
        assert gl_class(n).inverse() == bgl_class(n)
        assert bgl_class(n).inverse() == gl_class(n)


# -- maps out of the ring ----------------------------------------------------------


def test_eval_rational_at_poles():
    with pytest.raises(DomainError):
        bgl_class(1).eval_rational(1)
    with pytest.raises(DomainError):
        MotivicClass.l_power(-1).eval_rational(0)
    assert bgl_class(1).eval_rational(3) == Fraction(1, 2)


def test_q_expansion_known_values():
    assert bgl_class(1).q_expansion(5) == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1}
    inv = MotivicClass(IntLaurent.one(), DenomForm(0, (2,)))
    assert inv.q_expansion(7) == {2: 1, 4: 1, 6: 1}
    assert MotivicClass.l_power(3).q_expansion(5) == {-3: 1}
    assert MotivicClass.zero().q_expansion(5) == {}


@given(motivic_classes(), motivic_classes())
def test_q_expansion_is_additive(a, b):
    qa, qb = a.q_expansion(8), b.q_expansion(8)
    merged = dict(qa)
    for k, v in qb.items():
        merged[k] = merged.get(k, 0) + v
    merged = {k: v for k, v in merged.items() if v}
    assert (a + b).q_expansion(8) == merged


def test_hd_realization():
    r = bgl_class(1).hd_realization()
    assert r.num == MultiPoly.one(2)
    assert r.factors == (1,)
    assert not r.is_polynomial
    assert str(r) == "1 / ((u*v)-1)"
    p = MotivicClass(IntLaurent({2: 1, 1: 1})).hd_realization()
    assert p.is_polynomial
    assert str(p) == "u^2*v^2 + u*v"


@given(motivic_classes())
def test_hd_realization_prints_the_class_denominator(a):
    def den_text(x):
        return str(x).partition(" / ")[2]

    assert den_text(a.hd_realization()) == den_text(a.normalize()).replace("L", "(u*v)")


# -- Adams operations -----------------------------------------------------------------


@given(motivic_classes(), st.integers(min_value=1, max_value=4))
def test_adams_evaluates_at_a_power_of_l(a, r):
    for t in (Fraction(2), Fraction(5, 2)):
        assert a.adams(r).eval_rational(t) == a.eval_rational(t ** r)


# -- serialization ------------------------------------------------------------------


@given(motivic_classes())
def test_json_round_trip(a):
    back = MotivicClass.from_json(a.to_json())
    assert back == a
    assert back.structural_key() == a.structural_key()


def _class_json(min_deg=1, coeffs=(1, 2), l_exp=0, factors=(1,)):
    return {"num": {"min_deg": min_deg, "coeffs": list(coeffs)}, "den": {"l_exp": l_exp, "factors": list(factors)}}


@pytest.mark.parametrize(
    "fields",
    [
        {"coeffs": (1.5,)},
        {"coeffs": (1, True)},
        {"min_deg": 0.5},
        {"min_deg": False},
        {"l_exp": 1.0},
        {"factors": (2.0,)},
        {"factors": (1, True)},
    ],
)
def test_from_json_rejects_non_int_fields(fields):
    assert str(MotivicClass.from_json(_class_json())) == "(2*L^2 + L) / (L-1)"
    with pytest.raises(DomainError, match="must be ints"):
        MotivicClass.from_json(_class_json(**fields))


@pytest.mark.parametrize("args", [(0, (2.0,)), (0, [True]), (1.0, ()), (True, (1,)), ("1", ())])
def test_denom_form_rejects_non_int_fields(args):
    with pytest.raises(DomainError, match="denominator exponents must be ints"):
        DenomForm(*args)


# -- named classes -----------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 16, 24, 40])
def test_gl_class_matches_the_naive_product(n, monkeypatch):
    packed = []
    kronecker_mul = laurent._kronecker_mul

    def counting(*args):
        packed.append(args)
        return kronecker_mul(*args)

    monkeypatch.setattr(laurent, "_kronecker_mul", counting)
    g = gl_class(n)
    monkeypatch.undo()
    naive = IntLaurent.one()
    for j in range(n):
        naive = naive * (IntLaurent.term(n) - IntLaurent.term(j))
    assert g.den.is_trivial
    assert g.num == naive
    assert g * bgl_class(n) == 1
    # from 16 factors on, the balanced halves are long and dense enough to pack
    assert bool(packed) == (n >= 16)


def test_gl_classes():
    assert gl_class(0) == MotivicClass.one()
    assert gl_class(1) == MotivicClass(l_minus_one(1))
    assert str(gl_class(2)) == "L^4 - L^3 - L^2 + L"
    with pytest.raises(DomainError):
        gl_class(-1)


def test_bgl_is_structured():
    b = bgl_class(3)
    assert b.den == DenomForm(3, (1, 2, 3))
    assert b.num == IntLaurent.one()
    with pytest.raises(DomainError):
        bgl_class(-1)


def test_grassmannian_values_and_symmetry():
    assert grassmannian_class(1, 3) == MotivicClass(IntLaurent({2: 1, 1: 1, 0: 1}))
    assert grassmannian_class(0, 5) == MotivicClass.one()
    assert grassmannian_class(5, 5) == MotivicClass.one()
    for n in range(7):
        for k in range(n + 1):
            assert grassmannian_class(k, n) == grassmannian_class(n - k, n)
    with pytest.raises(DomainError):
        grassmannian_class(3, 2)


def test_grassmannian_recurrence():
    # (n choose k)_L = (n-1 choose k)_L + L^{n-k} (n-1 choose k-1)_L
    for n in range(1, 25):
        for k in range(1, n):
            lhs = grassmannian_class(k, n)
            rhs = grassmannian_class(k, n - 1) + MotivicClass.l_power(n - k) * grassmannian_class(
                k - 1, n - 1
            )
            assert lhs == rhs


def test_grassmannian_keeps_the_shape_of_the_long_division_route():
    # the shape is the exact polynomial quotient of the two expanded products,
    # which is unique, so it is pinned by a trivial denominator and multiplying back
    for n in range(25):
        for k in range(n + 1):
            top = DenomForm(0, tuple(range(n - k + 1, n + 1))).expand()
            bottom = DenomForm(0, tuple(range(1, k + 1))).expand()
            gr = grassmannian_class(k, n)
            assert gr.den.is_trivial and gr.num * bottom == top, (k, n)


def test_divide_exact_int():
    assert MotivicClass(IntLaurent({1: 2, 0: 4})).divide_exact_int(2) == MotivicClass(
        IntLaurent({1: 1, 0: 2})
    )
    with pytest.raises(InternalConsistencyError):
        MotivicClass.one().divide_exact_int(2)
    with pytest.raises(DomainError):
        MotivicClass.one().divide_exact_int(0)


# -- rendering ---------------------------------------------------------------------


def test_rendering():
    assert str(MotivicClass.one()) == "1"
    assert str(bgl_class(1)) == "1 / (L-1)"
    assert str(bgl_class(2)) == "1 / (L * (L-1) * (L^2-1))"
    assert str(MotivicClass(IntLaurent.term(1), DenomForm(0, (1, 2)))) == "L / ((L-1) * (L^2-1))"
    assert str(MotivicClass(IntLaurent({2: -1, 0: 1}), DenomForm(0, (1,)))) == "(-L^2 + 1) / (L-1)"
