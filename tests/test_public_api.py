"""The public namespace: every name in ``__all__`` must resolve, and the
polynomial types keep every public method and operator they define."""

import inspect

import pytest

import stackzeta


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from stackzeta import *", namespace)
    assert set(stackzeta.__all__) <= set(namespace)


def test_every_exported_name_resolves():
    missing = [name for name in stackzeta.__all__ if not hasattr(stackzeta, name)]
    assert missing == []


def test_exported_classes_and_functions_are_defined_in_the_package():
    # __all__ is derived from the package namespace, so a helper imported
    # there without a private alias would be exported
    foreign = [
        name
        for name in stackzeta.__all__
        if (inspect.isclass(value := getattr(stackzeta, name)) or inspect.isfunction(value))
        and not value.__module__.startswith("stackzeta.")
    ]
    assert foreign == []


def test_deferred_exports_resolve_once_into_the_namespace():
    for name in ("zeta_from_sigma", "Partition", "verify_axioms", "VerificationReport"):
        value = getattr(stackzeta, name)
        assert vars(stackzeta)[name] is value
    assert stackzeta.oracles.zeta_from_sigma is stackzeta.zeta_from_sigma
    assert stackzeta.verify.verify_axioms is stackzeta.verify_axioms
    assert set(stackzeta.__all__) <= set(dir(stackzeta))
    with pytest.raises(AttributeError, match="^module 'stackzeta' has no attribute 'zeta_from_sigmas'$"):
        stackzeta.zeta_from_sigmas  # noqa: B018


#: The operators the polynomial types define for themselves.
POLY_OPERATORS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__",
    "__eq__", "__hash__", "__len__", "__bool__", "__str__", "__repr__", "__setattr__",
}
#: Public methods and properties of the polynomial types.
POLY_PUBLIC = {
    stackzeta.IntLaurent: {
        "adams", "as_int", "coefficient", "div_cyclotomic", "divide_exact_int", "eval_rational",
        "from_int", "is_zero", "items", "max_deg", "min_deg", "one", "shift", "term",
        "zero",
    },
    stackzeta.MultiPoly: {
        "adams", "as_int", "coefficient", "constant", "divide_exact_int", "from_json", "is_zero", "items",
        "monomial", "nvars", "one", "to_json", "top_part", "total_degree",
        "variable", "zero",
    },
}


def test_polynomial_types_keep_their_methods_and_operators():
    for cls, public in POLY_PUBLIC.items():
        assert {name for name in dir(cls) if not name.startswith("_")} == public, cls
        inherited_from_object = {op for op in POLY_OPERATORS if getattr(cls, op) is getattr(object, op, None)}
        assert inherited_from_object == set(), cls


def test_the_term_map_kernel_is_private():
    assert not any(name.startswith("_") for name in stackzeta.__all__)
    assert "_TermPoly" not in stackzeta.__all__
    assert not hasattr(stackzeta, "_TermPoly")
