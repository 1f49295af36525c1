"""Value contracts of the package's record types.

Records are ``collections.namedtuple``s, because a ``typing.NamedTuple``
costs about twice as much to create at import: a record that defines no
method is the namedtuple itself, its docstring set as ``__doc__``, and one
with methods is a subclass with an empty ``__slots__``.  The
verification-only modules ``oracles`` and ``verify`` also keep
``typing.NamedTuple``s.  The value types are
``__slots__`` classes that derive from ``stackzeta._frozen.Frozen``: the
eight of them are ``IntLaurent``,
``MultiPoly``, ``DenomForm``, ``MotivicClass``, ``TruncatedSeries``,
``Ring``, ``LambdaProvider`` and ``Partition``.  Each test pins the behaviour
users see: the ``repr`` text, ``==``, hashability, and that fields can be
neither set nor deleted.  Every ``Frozen`` type, and the records, survive
``copy`` and ``pickle`` through their public constructors.
"""

import copy
import importlib
import pickle
import re

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
    LambdaProvider,
    TruncatedSeries,
    hd_provider,
    motivic_provider,
    motivic_ring,
    zeta_series,
)
from stackzeta._frozen import Frozen
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


@pytest.mark.parametrize(
    "one, x",
    [
        (IntLaurent.one(), IntLaurent.term(1)),
        (MultiPoly.one(2), MultiPoly.variable(2, 0)),
        (MotivicClass.one(), bgl_class(1)),
    ],
)
def test_equality_with_an_int_never_raises(one, x):
    # True is refused as a coefficient, and == once raised DomainError by coercing it
    assert one == True and True == one and hash(one) == hash(True)  # noqa: E712
    assert x != True and x != 1 and x in [True, x] and one in [True] and one != 2  # noqa: E712


#: A class given in a shape that cancels; it is stored reduced, as 1 / (L * (L-1)).
UNNORMALIZED = MotivicClass(IntLaurent({2: 1, 0: -1}), DenomForm(1, (1, 2)))


@pytest.mark.parametrize(
    "obj",
    [
        DenomForm(2, (3, 1)),
        Partition((0, 2)),
        IntLaurent({3: 1, 0: -2, -1: 5}),
        MultiPoly(2, {(1, 2): 3, (0, 0): -1}),
        UNNORMALIZED,
        MotivicClass(3),
        zeta_series(bgl_class(1), 3),
        motivic_ring(),
    ],
)
def test_values_copy_and_pickle(obj):
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert clone == obj
        if isinstance(obj, MotivicClass):
            assert clone.structural_key() == obj.structural_key()
            # a copied class with no denominator still hashes and reads as its int
            assert (hash(clone), clone.as_int()) == (hash(obj), obj.as_int())


#: One value of each concrete Frozen type, with its repr (function addresses masked).
FROZEN_SAMPLES = {
    IntLaurent: (IntLaurent({3: 1, 0: -2, -1: 5}), "IntLaurent(L^3 - 2 + 5*L^-1)"),
    MultiPoly: (MultiPoly(2, {(1, 2): 3, (0, 0): -1}), "MultiPoly(2, 3*u*v^2 - 1)"),
    DenomForm: (DenomForm(2, (3, 1)), "DenomForm(l_exp=2, factors=(1, 3))"),
    MotivicClass: (UNNORMALIZED, "MotivicClass(1 / (L * (L-1)))"),
    TruncatedSeries: (
        zeta_series(bgl_class(1), 2),
        "TruncatedSeries[motivic](1 + (1 / (L-1))*T + (L / ((L-1) * (L^2-1)))*T^2)",
    ),
    Ring: (motivic_ring(), "Ring(name='motivic', zero=MotivicClass(0), one=MotivicClass(1))"),
    LambdaProvider: (
        hd_provider(),
        "LambdaProvider(name='hd-zeta', ring=Ring(name='int-poly-2', zero=MultiPoly(2, 0),"
        " one=MultiPoly(2, 1)), psi=<function _TermPoly.adams at 0x...>)",
    ),
    Partition: (Partition((0, 2)), "Partition(multiplicities=(0, 2))"),
}


def frozen_types(cls=Frozen):
    for sub in cls.__subclasses__():
        yield sub
        yield from frozen_types(sub)


def fields_of(value):
    """The type and field values of a Frozen value: equal for equal values,
    identity-compared providers included."""
    return type(value), [getattr(value, name) for name in value._fields]


def test_every_frozen_type_is_immutable_and_copies():
    seen = set()
    for cls in frozen_types():
        if cls.__init__ is object.__init__:
            # a shared kernel with no constructor of its own: its subclasses are sampled
            assert cls.__subclasses__(), f"{cls.__qualname__} has neither a constructor nor subclasses"
            continue
        assert cls in FROZEN_SAMPLES, f"no sample for {cls.__qualname__}"
        seen.add(cls)
        value, text = FROZEN_SAMPLES[cls]
        slots = {name for klass in cls.__mro__ for name in vars(klass).get("__slots__", ())}
        assert sorted(cls._fields) == sorted(slots), cls
        for name in (*cls._fields, "extra"):
            with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
                setattr(value, name, 1)
            with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
                delattr(value, name)
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert fields_of(clone) == fields_of(value), cls
        assert re.sub(r" at 0x[0-9a-f]+", " at 0x...", repr(value)) == text
    assert seen == set(FROZEN_SAMPLES)


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


#: The named-tuple records, with their fields and defaults; a fresh import
#: builds all but those of ``verify``, which is loaded on first use.
IMPORT_PATH_RECORDS = {
    "expr.Token": (("kind", "text", "line", "col"), {}),
    "expr.Num": (("value", "tok"), {}),
    "expr.Sym": (("name", "tok"), {}),
    "expr.Call": (("name", "args", "tok"), {}),
    "expr.Neg": (("operand",), {}),
    "expr.BinOp": (("op", "left", "right", "tok"), {}),
    "expr.Pow": (("base", "exponent", "tok"), {}),
    "motivic._CyclotomicDenom": (("l_exp", "exponents"), {}),
    "motivic.HDRealization": (("num", "l_exp", "factors"), {}),
    "verify.AxiomSample": (("a", "b", "m", "n", "k"), {"k": 2}),
    "verify.AxiomCheck": (("axiom", "description", "passed", "witness"), {"witness": None}),
    "verify.AxiomReport": (("provider", "order", "checks"), {}),
    "hodge.EffectivenessResult": (("verdict", "witness", "detail"), {"witness": None, "detail": ""}),
    "verify.CounterexampleReport": (("name", "passed", "coefficient", "effectiveness", "notes"), {"notes": ()}),
}


@pytest.mark.parametrize("path", sorted(IMPORT_PATH_RECORDS))
def test_records_keep_their_tuple_contract(path):
    module, name = path.split(".")
    cls = getattr(importlib.import_module(f"stackzeta.{module}"), name)
    fields, defaults = IMPORT_PATH_RECORDS[path]
    assert (cls._fields, cls._field_defaults) == (fields, defaults)
    assert cls.__doc__ and cls.__module__ == f"stackzeta.{module}"
    value = cls(*range(len(fields)))
    assert value == tuple(range(len(fields))) and not hasattr(value, "__dict__")
    assert repr(value) == f"{name}(" + ", ".join(f"{f}={i}" for i, f in enumerate(fields)) + ")"
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)), value._replace()):
        assert type(clone) is cls and clone == value
    assert value._replace(**{fields[0]: "x"})[0] == "x"
