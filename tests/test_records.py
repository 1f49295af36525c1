"""Value contracts of the package's record types.

Records are ``typing.NamedTuple``s, or short ``__slots__`` classes where a
type checks its fields (``DenomForm``, ``Partition``) or has its own equality
(``Ring``, ``LambdaProvider``).  Each test pins the behaviour users see: the
``repr`` text, ``==``, hashability, and that fields cannot be reassigned.
Records and the core values (polynomials, classes, series, rings) survive
``copy`` and ``pickle``.
"""

import copy
import pickle

import pytest

from stackzeta import (
    DenomForm,
    DomainError,
    ElaborationError,
    EffectivenessResult,
    IntLaurent,
    MotivicClass,
    MultiPoly,
    Partition,
    Ring,
    bgl_class,
    hd_provider,
    motivic_provider,
    motivic_ring,
    zeta_series,
)
from stackzeta.expr import Token, _ClassEnv, parse_ast
from stackzeta.hodge import hd_ring

AST_REPR = (
    "BinOp(op='/', left=Neg(operand=Pow(base=BinOp(op='+', left=Sym(name='L', tok=Token(kind='NAME', text='L',"
    " line=1, col=3)), right=Num(value=1, tok=Token(kind='INT', text='1', line=1, col=5)), tok=Token(kind='OP',"
    " text='+', line=1, col=4)), exponent=2, tok=Token(kind='OP', text='^', line=1, col=7))), right=Call(name='GL',"
    " args=(Num(value=2, tok=Token(kind='INT', text='2', line=1, col=13)),), tok=Token(kind='NAME', text='GL',"
    " line=1, col=10)), tok=Token(kind='OP', text='/', line=1, col=9))"
)


def assert_frozen(obj, field):
    with pytest.raises(AttributeError):
        setattr(obj, field, 1)


def test_denom_form_sorts_and_checks_its_fields():
    d = DenomForm(0, (2, 1))
    assert d.factors == (1, 2)
    assert repr(d) == "DenomForm(l_exp=0, factors=(1, 2))"
    assert repr(DenomForm()) == "DenomForm(l_exp=0, factors=())"
    with pytest.raises(DomainError, match="L-exponent must be nonnegative"):
        DenomForm(-1, ())
    with pytest.raises(DomainError, match="factors must be exponents >= 1"):
        DenomForm(0, (2, 0))


def test_denom_form_is_a_hashable_value():
    a, b = DenomForm(1, (3, 1, 2)), DenomForm(1, [1, 2, 3])
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b, DenomForm(1, (1, 2))}) == 2
    assert a != DenomForm(0, (1, 2, 3))
    assert a != (1, (1, 2, 3))  # a record, not a tuple
    with pytest.raises(TypeError):
        a < b  # noqa: B015  (no ordering)
    assert_frozen(a, "l_exp")
    assert_frozen(a, "factors")


def test_partition_is_a_checked_hashable_value():
    p = Partition([2, 1])
    assert p == Partition((2, 1)) and hash(p) == hash(Partition((2, 1)))
    assert p != Partition((1, 1)) and p != (2, 1)
    assert len({p, Partition((2, 1)), Partition(())}) == 2
    assert repr(p) == "Partition(multiplicities=(2, 1))"
    assert str(p) == "(2 1 1)"
    with pytest.raises(DomainError):
        Partition((1, 0))
    with pytest.raises(DomainError):
        Partition((-1,))
    assert_frozen(p, "multiplicities")


def test_ring_is_equal_by_name_and_unhashable():
    assert hd_ring() == hd_ring()
    assert motivic_ring() == Ring("motivic", None, None)
    assert motivic_ring() != hd_ring() and motivic_ring() != "motivic"
    with pytest.raises(TypeError):
        hash(motivic_ring())
    assert repr(motivic_ring()) == "Ring(name='motivic', zero=MotivicClass(0), one=MotivicClass(1))"
    assert_frozen(motivic_ring(), "name")


def test_lambda_provider_is_equal_by_identity():
    a, b = hd_provider(), hd_provider()
    assert a == a and a != b and len({a, b}) == 2
    assert repr(motivic_provider()).startswith(
        "LambdaProvider(name='kapranov-zeta', ring=Ring(name='motivic', zero=MotivicClass(0), one=MotivicClass(1)),"
        " psi=<function MotivicClass.adams at "
    )
    assert_frozen(a, "psi")


#: A class kept in a shape normalize() would cancel, so a copy must keep the representation.
UNNORMALIZED = MotivicClass(IntLaurent({2: 1, 0: -1}), DenomForm(1, (1, 2)))


@pytest.mark.parametrize(
    "obj",
    [
        DenomForm(2, (3, 1)),
        Partition((0, 2)),
        IntLaurent({3: 1, 0: -2, -1: 5}),
        MultiPoly(2, {(1, 2): 3, (0, 0): -1}),
        UNNORMALIZED,
        zeta_series(bgl_class(1), 3),
        motivic_ring(),
    ],
)
def test_values_copy_and_pickle(obj):
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert clone == obj
        if isinstance(obj, MotivicClass):
            assert clone.structural_key() == obj.structural_key()


def test_ring_and_provider_copy_shallowly():
    ring, provider = motivic_ring(), motivic_provider()
    assert copy.copy(ring) == ring and copy.copy(ring).zero is ring.zero
    clone = copy.copy(provider)
    assert clone != provider and (clone.name, clone.ring, clone.psi) == (provider.name, provider.ring, provider.psi)


def test_ast_reprs_name_every_field():
    assert repr(parse_ast("-(L+1)^2/GL(2)")) == AST_REPR
    with pytest.raises(ElaborationError) as exc:
        _ClassEnv().run(Token("INT", "1", 1, 3))
    assert str(exc.value) == "cannot elaborate Token(kind='INT', text='1', line=1, col=3)"
    assert_frozen(parse_ast("L"), "name")


def test_named_tuple_records_keep_their_text():
    realization = bgl_class(2).hd_realization()
    assert repr(realization) == "HDRealization(num=MultiPoly(2, 1), l_exp=1, factors=(1, 2))"
    assert str(realization) == "1 / ((u*v) * ((u*v)-1) * ((u*v)^2-1))"
    assert str(EffectivenessResult("not-effective", None, "top part")) == "not-effective [top part]"
    assert_frozen(realization, "l_exp")
