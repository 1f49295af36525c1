"""Exact Kapranov zeta functions and power structures on motivic classes.

The Grothendieck ring of algebraic stacks is the localization of the ring of
varieties at L and at L^n - 1 for all n >= 1; every class here is an exact
fraction in L with a structured denominator.  On top of that sit the
Kapranov zeta function as a pre-lambda structure, the power structures it
induces, the Hodge-Deligne realization with effectiveness refutation, and a
verification suite that checks each identity two independent ways.

The exports of the two verification-only modules, listed in
``_LAZY_EXPORTS``, resolve on first access (PEP 562), and so do the modules
themselves as ``stackzeta.oracles`` and ``stackzeta.verify``: the engine
never needs them, and every CLI call is a fresh process that would
otherwise pay for them at import.

``__all__`` is derived: every public name bound at import except the
submodules, plus the lazy exports.  So a helper imported here takes a
private alias.

The package attribute ``power`` is the function ``power``, which shadows
the submodule ``stackzeta.power``; the module's other names, such as
``MAX_SERIES_ORDER``, are reached with ``from stackzeta.power import ...``.
"""

from types import ModuleType as _ModuleType

from .errors import (
    DomainError,
    ElaborationError,
    InternalConsistencyError,
    NonInvertibleError,
    ParseError,
    ResourceLimitError,
    StackZetaError,
)
from .laurent import IntLaurent, L
from .motivic import (
    DenomForm,
    HDRealization,
    MotivicClass,
    bgl_class,
    gl_class,
    grassmannian_class,
)
from .multipoly import MultiPoly
from .power import LambdaProvider, binomial_series, lambda_factorize, opposite_provider, opposite_series, power
from .series import Ring, TruncatedSeries
from .hodge import (
    EFFECTIVE_CANDIDATE,
    NOT_EFFECTIVE,
    EffectivenessResult,
    check_class_effectiveness,
    check_polynomial_effectiveness,
    hd_opposite_provider,
    hd_provider,
    hd_ring,
    hd_zeta,
)
from .zeta import motivic_provider, motivic_ring, opposite_zeta, sym_power, zeta_series
from .expr import parse_class, parse_poly, parse_series

__version__ = "0.1.0"

#: The exports resolved on first access, by the module that defines them.
_LAZY_EXPORTS = {
    "oracles": (
        "FuncEqReport",
        "Partition",
        "PrefixReport",
        "block_distinct_oracle",
        "block_distinct_sum",
        "check_functional_equation",
        "distinct_exponent_oracle",
        "distinct_exponent_sum",
        "distinct_exponent_sum_taylor",
        "infinite_product_prefix",
        "partitions_of",
        "zeta_from_sigma",
        "zeta_of_polynomial",
    ),
    "verify": (
        "AxiomReport",
        "AxiomSample",
        "CounterexampleReport",
        "VerificationReport",
        "axiom_suite",
        "curve_opposite_counterexample",
        "stack_power_counterexample",
        "verify_axioms",
        "verify_distinct_sum",
        "verify_grassmannian",
        "verify_zeta_closed_form",
    ),
}
_LAZY_OWNER = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}

#: The public names bound above, without the submodules, and the lazy exports.
__all__ = sorted(
    [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
    + list(_LAZY_OWNER)
)


def __getattr__(name: str):
    """Import ``oracles`` or ``verify`` when one of its exports, or the module
    itself, is first asked for, and keep the value in the module globals."""
    owner = name if name in _LAZY_EXPORTS else _LAZY_OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{owner}")
    value = module if owner == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY_EXPORTS.keys() | _LAZY_OWNER.keys())
