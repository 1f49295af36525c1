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
from stackzeta import laurent, motivic
from stackzeta.expr import parse_class
from stackzeta.laurent import cyclotomic, divisors, unit_part

from _reference import denominator_product, long_divide, phi
from _strategies import (
    EVAL_POINTS,
    laurents,
    motivic_classes,
    shared_denominator_pairs,
    unit_classes,
    wide_denom_forms,
)


def l_minus_one(n):
    return IntLaurent({n: 1, 0: -1})


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


@pytest.mark.parametrize("args", [("L",), (1.0,), (IntLaurent.one(), (0, ())), (IntLaurent.one(), None)])
def test_class_constructor_needs_a_laurent_and_a_denominator(args):
    with pytest.raises(DomainError, match="MotivicClass needs an IntLaurent numerator and a DenomForm"):
        MotivicClass(*args)


def test_denominator_shapes_print_as_factors():
    assert str(DenomForm(2, (3, 1))) == "L^2 * (L-1) * (L^3-1)"
    assert str(DenomForm()) == "1"
    assert str(DenomForm(1, ())) == "L"


def _counter_exponents(factors):
    """The cyclotomic exponents of prod(L^n - 1): Phi_d once for each n that d divides."""
    return Counter(d for n in factors for d in divisors(n))


def _counter_cover(exponents):
    """The cover rule on a Counter: the shape factors, largest first, and the
    Phi_k the shape adds to the numerator."""
    left, factors, extra = Counter(exponents), [], Counter()
    while +left:
        n = max(+left)
        factors.append(n)
        for k in divisors(n):
            if left[k] > 0:
                left[k] -= 1
            else:
                extra[k] += 1
    return tuple(sorted(factors)), extra


@given(wide_denom_forms, wide_denom_forms)
def test_denom_shape_algebra_matches_a_counter_reference(d1, d2):
    a = MotivicClass(1, d1) * MotivicClass(1, d2)
    exponents = _counter_exponents(d1.factors + d2.factors)
    assert a.structural_key() == (((0, 1),), d1.l_exp + d2.l_exp, tuple(sorted(exponents.items())))
    factors, extra = _counter_cover(exponents)
    assert a.den == DenomForm(d1.l_exp + d2.l_exp, factors)
    want_num = IntLaurent.one()
    for k, e in extra.items():
        want_num = want_num * cyclotomic(k) ** e
    assert a.num == want_num


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
    # L(L+1)/(L^2-1) and L/(L-1) are the same class, given in different
    # shapes; both are stored as the one reduced fraction
    a = MotivicClass(IntLaurent({2: 1, 1: 1}), DenomForm(0, (2,)))
    b = MotivicClass(IntLaurent.term(1), DenomForm(0, (1,)))
    assert a == b
    assert a.structural_key() == b.structural_key()
    assert hash(a) == hash(b)
    assert not a == b + 1


def test_hash_agrees_with_equality_across_types():
    # a class with no denominator equals its int and its IntLaurent, so it hashes as they do
    three, poly = MotivicClass(3), IntLaurent({1: 1, 0: 1})
    assert three == 3 and hash(three) == hash(3) == hash(IntLaurent.from_int(3))
    assert MotivicClass(poly) == poly and hash(MotivicClass(poly)) == hash(poly)
    assert hash(MotivicClass.zero()) == hash(0) == hash(IntLaurent.zero())
    assert len({1, MotivicClass.one(), IntLaurent.one()}) == 1
    assert {1: "one"}[MotivicClass.one()] == "one"
    assert {MotivicClass.one(): "one"}[1] == "one"


def test_as_int_gives_the_int_a_class_equals():
    L = MotivicClass.l_power(1)
    one = MotivicClass.one()
    for a, c in ((MotivicClass.zero(), 0), (one, 1), (MotivicClass(-3), -3), (MotivicClass(5), 5),
                 ((L - 1) / (L - 1), 1), (L * bgl_class(1) - bgl_class(1) * L, 0)):
        assert a.as_int() == c and type(a.as_int()) is int
    for a in (L, L + 1, one / (L - 1), L / (L * L - 1), MotivicClass.l_power(-1)):
        assert a.as_int() is None


@given(motivic_classes())
def test_as_int_agrees_with_equality(a):
    c = a.as_int()
    if c is not None:
        assert a == c and hash(a) == hash(c)
    assert all((a == k) == (c == k) for k in (-1, 0, 1, 2))


@given(motivic_classes(), motivic_classes())
def test_equality_is_structural(a, b):
    assert (a == b) == (a.structural_key() == b.structural_key())
    assert (a == b) == (a - b).is_zero
    if a == b:
        assert hash(a) == hash(b)


@given(motivic_classes())
def test_text_and_json_give_back_the_reduced_form(a):
    assert MotivicClass.from_json(a.to_json()).structural_key() == a.structural_key()
    assert parse_class(str(a)).structural_key() == a.structural_key()


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


def _expanded(l_exp, factors):
    """L^l_exp * prod(L^n - 1), built without the library's denominators."""
    return IntLaurent(enumerate(denominator_product(l_exp, factors)))


# The general route of the class arithmetic, kept as the reference for its
# fast paths: every sum is taken over the product of the two shapes by
# cross-multiplication, every product over the concatenated shapes, and the
# public constructor reduces the result.
def _reference_sum(a, b):
    den = DenomForm(a.den.l_exp + b.den.l_exp, a.den.factors + b.den.factors)
    num = a.num * _expanded(b.den.l_exp, b.den.factors) + b.num * _expanded(a.den.l_exp, a.den.factors)
    return MotivicClass(num, den)


def _reference_product(a, b):
    if isinstance(b, int):
        b = MotivicClass(b)
    den = DenomForm(a.den.l_exp + b.den.l_exp, a.den.factors + b.den.factors)
    return MotivicClass(a.num * b.num, den)


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


# An independent check of the stored form, read from structural_key() alone:
# the checks above compare against classes that the constructor reduced, so a
# cancellation the constructor misses would pass them.
def _assert_reduced(a):
    terms, l_exp, exps = a.structural_key()
    if not terms:
        assert (l_exp, exps) == (0, ())
        return
    assert terms[0][0] >= 0, "negative degree in the numerator"
    assert l_exp >= 0 and all(e >= 1 for _, e in exps) and list(exps) == sorted(set(exps))
    num = [0] * (terms[-1][0] + 1)
    for deg, c in terms:
        num[deg] = c
    assert not (l_exp and num[0] == 0), "L divides the numerator"
    for d, _ in exps:
        assert any(long_divide(num, list(phi(d)))[1]), f"Phi_{d} divides the numerator"


class_pairs = st.one_of(shared_denominator_pairs(), st.tuples(motivic_classes(), motivic_classes()))


@given(class_pairs, st.integers(min_value=-5, max_value=5).filter(bool), st.integers(min_value=1, max_value=5))
def test_arithmetic_results_are_reduced(pair, k, r):
    a, b = pair
    for value in (a + b, a - b, a * b, k * a, a * k, a.adams(r)):
        _assert_reduced(value)


@given(unit_classes(), laurents(), wide_denom_forms)
def test_inverses_and_constructed_classes_are_reduced(u, num, den):
    _assert_reduced(u.inverse())
    _assert_reduced(MotivicClass(num, den))
    _assert_reduced(MotivicClass(num * l_minus_one(max(den.factors, default=1)), den))


def test_the_reduced_check_sees_a_missed_cancellation():
    with pytest.raises(AssertionError, match="Phi_2 divides"):
        # 1/(L + 1) stores the denominator Phi_2 alone
        _assert_reduced(MotivicClass._raw(l_minus_one(2), MotivicClass(l_minus_one(1), DenomForm(0, (2,)))._den))
    with pytest.raises(AssertionError, match="L divides"):
        _assert_reduced(MotivicClass._raw(IntLaurent.term(1), MotivicClass.l_power(-1)._den))


# -- reduction ----------------------------------------------------------------


@given(motivic_classes())
def test_construction_is_idempotent_and_preserves_value(a):
    n = MotivicClass(a.num, a.den)
    assert n == a
    assert n.structural_key() == a.structural_key()


def test_construction_cancels_fully():
    a = MotivicClass(l_minus_one(1), DenomForm(0, (1,)))
    assert a.structural_key() == MotivicClass.one().structural_key()
    b = MotivicClass(IntLaurent.term(3), DenomForm(2, ()))
    assert b.structural_key() == MotivicClass.l_power(1).structural_key()
    # (L^2-1) cancels one factor out of (L-1)(L^2-1)
    c = MotivicClass(l_minus_one(2), DenomForm(0, (1, 2)))
    assert c.den == DenomForm(0, (1,))


# -- inversion ------------------------------------------------------------------


@given(unit_classes())
def test_units_invert_exactly(a):
    assert a * a.inverse() == MotivicClass.one()
    assert a.inverse().inverse() == a


def test_non_units_are_rejected():
    # L + 1 = Phi_2 = (L^2 - 1)/(L - 1) is a unit
    assert MotivicClass(IntLaurent({1: 1, 0: 1})).inverse() == MotivicClass(l_minus_one(1), DenomForm(0, (2,)))
    for num in (IntLaurent({1: 1, 0: -2}), IntLaurent({2: 1, 1: 3, 0: 1}), IntLaurent.from_int(2)):
        with pytest.raises(NonInvertibleError):
            MotivicClass(num).inverse()
    with pytest.raises(NonInvertibleError):
        MotivicClass.zero().inverse()


@given(
    st.sampled_from((1, -1)),
    st.integers(min_value=0, max_value=5),
    st.lists(st.integers(min_value=1, max_value=30), max_size=8),
    st.dictionaries(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=3), max_size=3),
)
@example(-1, 3, [2, 2, 5, 1, 1, 30, 30, 15], {})
@example(1, 0, [], {15: 1})  # Phi_15 has degree 8: its index lies above its degree
def test_unit_part_recovers_sign_l_power_and_factors(sign, a, ns, phis):
    p = IntLaurent.term(a, sign)
    exponents = _counter_exponents(ns) + Counter(phis)
    for n in ns:
        p = p * l_minus_one(n)
    for d, e in phis.items():
        p = p * cyclotomic(d) ** e
    assert unit_part(p) == (sign, a, tuple(sorted(exponents.items())))
    for non_unit in (IntLaurent.from_int(2), IntLaurent({1: 1, 0: -2}), IntLaurent({3: 1, 1: 1, 0: 1})):
        assert unit_part(p * non_unit) is None


def test_inverse_of_gl_is_bgl():
    for n in range(4):
        assert gl_class(n).inverse() == bgl_class(n)
        assert bgl_class(n).inverse() == gl_class(n)


def _denominator_value(den, t):
    """L^a * prod Phi_d^e at L = t, with Phi_d from the long-division reference."""
    value = t ** den.l_exp
    for d, e in den.exponents:
        value *= sum(c * t ** i for i, c in enumerate(phi(d))) ** e
    return value


def test_inverses_and_sum_plans_take_no_polynomial_product(monkeypatch):
    products = []
    mul = IntLaurent.__mul__

    def counting(self, other):
        products.append(other)
        return mul(self, other)

    # empty caches, so that every Phi_d, standard class and plan is built here
    monkeypatch.setattr(motivic, "_STANDARD_CLASSES", {})
    laurent.cyclotomic_product.cache_clear()
    motivic._sum_plan.cache_clear()
    # the empty product is the numerator 1 that the fast paths test by identity
    assert laurent.cyclotomic_product(()) is motivic._ONE_NUM
    monkeypatch.setattr(IntLaurent, "__mul__", counting)
    monkeypatch.setattr(IntLaurent, "__rmul__", counting)
    inverses = [bgl_class(n).inverse() for n in range(17)]
    a, b = bgl_class(5)._den, bgl_class(5).adams(2)._den
    top, to_a, to_b, shared = motivic._sum_plan(a, b)
    monkeypatch.undo()
    # products of Phi_d come from the dense binomial kernel, not from products
    assert products == []
    assert inverses == [gl_class(n) for n in range(17)]
    for t in (2, 3):
        assert to_a.eval_rational(t) == Fraction(_denominator_value(top, t), _denominator_value(a, t))
        assert to_b.eval_rational(t) == Fraction(_denominator_value(top, t), _denominator_value(b, t))
    assert shared == {1, 3, 5}  # the d with equal exponents on both sides


def test_each_product_of_phi_d_is_built_once(monkeypatch):
    built = []
    binomial_quotient = laurent.binomial_quotient

    def counting(tops, bottoms):
        built.append((tops, bottoms))
        return binomial_quotient(tops, bottoms)

    monkeypatch.setattr(laurent, "binomial_quotient", counting)
    a, b = bgl_class(6), bgl_class(6).adams(2)
    first = [a.inverse(), b.inverse(), a + b, (a + b).num_den()]
    built.clear()
    # the same inverse numerators, sum-plan complements and cover extras
    motivic._sum_plan.cache_clear()
    assert [a.inverse(), b.inverse(), a + b, (a + b).num_den()] == first
    assert built == []


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
    assert not (r.l_exp == 0 and not r.factors)
    assert str(r) == "1 / ((u*v)-1)"
    p = MotivicClass(IntLaurent({2: 1, 1: 1})).hd_realization()
    assert p.l_exp == 0 and not p.factors
    assert str(p) == "u^2*v^2 + u*v"


@given(motivic_classes())
def test_hd_realization_prints_the_class_denominator(a):
    def den_text(x):
        return str(x).partition(" / ")[2]

    assert den_text(a.hd_realization()) == den_text(a).replace("L", "(u*v)")


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


@pytest.mark.parametrize(
    "data, field",
    [
        ({"num": {"min_deg": 0, "coeffs": [1]}, "den": {"l_exp": 0}}, "den.factors"),
        ({"num": {"min_deg": 0, "coeffs": [1]}}, "den.l_exp"),
        ({"num": {"coeffs": [1]}, "den": {"l_exp": 0, "factors": []}}, "num.min_deg"),
        ({"num": {"min_deg": 0, "coeffs": 1}, "den": {"l_exp": 0, "factors": []}}, "num.coeffs"),
        ({"num": [0, [1]], "den": {"l_exp": 0, "factors": []}}, "num.min_deg"),
        ([{"min_deg": 0, "coeffs": [1]}, {"l_exp": 0, "factors": []}], "num.min_deg"),
    ],
)
def test_from_json_names_a_malformed_field(data, field):
    with pytest.raises(DomainError, match=field):
        MotivicClass.from_json(data)


@pytest.mark.parametrize("args", [(0, (2.0,)), (0, [True]), (1.0, ()), (True, (1,)), ("1", ())])
def test_denom_form_rejects_non_int_fields(args):
    with pytest.raises(DomainError, match="denominator exponents must be ints"):
        DenomForm(*args)


# -- named classes -----------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 16, 17, 24, 40])
def test_gl_class_matches_the_naive_product(n, monkeypatch):
    products = []
    mul = IntLaurent.__mul__

    def counting(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(motivic, "_STANDARD_CLASSES", {})  # so that this call builds the class
    monkeypatch.setattr(IntLaurent, "__mul__", counting)
    monkeypatch.setattr(IntLaurent, "__rmul__", counting)
    g = gl_class(n)
    monkeypatch.undo()
    naive = IntLaurent.one()
    for j in range(n):
        naive = naive * (IntLaurent.term(n) - IntLaurent.term(j))
    assert g.den.is_trivial
    assert g.num == naive
    assert g * bgl_class(n) == 1
    # the numerator is built on a dense coefficient list, by no polynomial product
    assert products == []


def _largest_index(shapes):
    top, bottom = shapes
    return max((*top.factors, *bottom.factors), default=0)


def test_standard_classes_are_kept_only_up_to_the_memo_bound(monkeypatch):
    monkeypatch.setattr(motivic, "_STANDARD_CLASSES", {})
    bound = motivic.STANDARD_MEMO_MAX_N
    assert bound == 16
    for n in range(61):
        gl_class(n), bgl_class(n)
        for k in range(n + 1):
            grassmannian_class(k, n)
        if n <= bound:
            assert gl_class(n) is gl_class(n) and bgl_class(n) is bgl_class(n)
            for k in range(n + 1):
                assert grassmannian_class(k, n) is grassmannian_class(n - k, n)
    memo = motivic._STANDARD_CLASSES
    assert max(map(_largest_index, memo)) == bound
    # at most 17 GL, 17 BGL and 81 Gr(k, n) with k <= n/2: the arguments bound the memo
    assert len(memo) <= 17 + 17 + 81
    assert gl_class(bound + 1) is not gl_class(bound + 1)


@pytest.mark.parametrize("name, args", [("BGL", (2.0,)), ("GL", (True,)), ("Gr", (1, 3.0)), ("Gr", (False, 2))])
def test_standard_classes_take_int_arguments(name, args):
    # the class builders and evaluation at a point share the check in standard_forms
    build = {"GL": gl_class, "BGL": bgl_class, "Gr": grassmannian_class}[name]
    with pytest.raises(DomainError, match=f"{name} needs int arguments"):
        build(*args)
    with pytest.raises(DomainError, match=f"{name} needs int arguments"):
        motivic.standard_forms(name, args)


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
    for n in range(31):
        for k in range(n + 1):
            top = _expanded(0, range(n - k + 1, n + 1))
            bottom = _expanded(0, range(1, k + 1))
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
    assert str(MotivicClass(IntLaurent({2: -1, 0: 1}), DenomForm(0, (1,)))) == "-L - 1"
    # the cover rule: 1/Phi_2 and 1/Phi_4 are written over L^2 - 1 and L^4 - 1
    assert str(MotivicClass(IntLaurent({1: 1, 0: -1}), DenomForm(0, (2,)))) == "(L - 1) / (L^2-1)"
    assert str(MotivicClass(IntLaurent({2: 1, 0: -1}), DenomForm(0, (4,)))) == "(L^2 - 1) / (L^4-1)"
    assert str(MotivicClass(IntLaurent({2: 1, 0: -1}), DenomForm(1, (1, 2, 2)))) == "1 / (L * (L-1) * (L^2-1))"
