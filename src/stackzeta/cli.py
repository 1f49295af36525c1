"""Command-line interface.

Subcommands mirror the library: zeta / sym / power / opposite for series and
sym powers, hd / hd-zeta / effective for the Hodge-Deligne side, eval for
exact rational specialization, verify for the named verification scenarios.

Every argument is declared once, in ``COMMANDS``.  A well-formed argv is read
from that table directly.  Only help, abbreviated options and usage errors
import argparse and build its parser from the same table, so an ordinary call
pays neither for the import (with ``gettext``) nor for building the parser.
An expression that begins with "-" goes after "--": ``stackzeta hd -- -L``.

Exit codes: 0 success (and verification pass), 1 verification fail, 2 parse
or elaboration error, 3 domain error, 4 resource-cap error, 5 internal
inconsistency (a bug, not bad input).
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import (
    DomainError,
    ElaborationError,
    InternalConsistencyError,
    ParseError,
    ResourceLimitError,
    int_text_limit,
)
from .expr import evaluate_class, parse_class, parse_class_or_poly, parse_poly, parse_series
from .hodge import check_class_effectiveness, check_polynomial_effectiveness, hd_zeta
from .multipoly import MultiPoly
from .power import power
from .zeta import motivic_provider, opposite_zeta, sym_power, zeta_series

if TYPE_CHECKING:
    import argparse
    from fractions import Fraction

#: The named scenarios of ``verify``, which is imported only by that command.
SCENARIOS = ("distinct-sum", "zeta-closed-form", "grassmannian", "axioms")

_JSON = ("--json", {"action": "store_true", "help": "emit JSON instead of text"})
_ORDER = ("--order", {"type": int, "required": True, "metavar": "N"})

#: The subcommands: each name maps to the keywords of its ``add_parser`` and to
#: its arguments, in order.  An argument is a name, positional or an option if
#: it starts with "--", and the keywords of its ``add_argument``.  Both
#: ``_read_args`` and ``_build_parser`` read this table, so it is the one place
#: an argument is declared.
COMMANDS = {
    "zeta": ({"help": "zeta series of a class expression"}, (("expr", {}), _ORDER, _JSON)),
    "sym": (
        {"help": "k-th symmetric power of a class expression"},
        (("k", {"type": int}), ("expr", {}), _JSON),
    ),
    "power": (
        {"help": "raise a series to a class exponent"},
        (("series", {}), ("expr", {}), _ORDER, _JSON),
    ),
    "opposite": ({"help": "opposite-structure series of a class expression"}, (("expr", {}), _ORDER, _JSON)),
    "hd": ({"help": "Hodge-Deligne realization of a class expression"}, (("expr", {}), _JSON)),
    "hd-zeta": ({"help": "zeta series of an E-polynomial in u, v"}, (("poly", {}), _ORDER, _JSON)),
    "effective": ({"help": "effectiveness heuristic on a class or E-polynomial"}, (("expr", {}), _JSON)),
    "eval": (
        {
            "help": "evaluate a class expression at a rational L",
            "description": (
                "Evaluate a class expression at L = P/Q. Away from 0, 1 and -1 the"
                " expression is evaluated on exact fractions without expanding the"
                " class; at those three points the class is built first, and a"
                " reduced denominator that vanishes there exits 3."
            ),
        },
        (("expr", {}), ("--at", {"required": True, "metavar": "P/Q", "help": "rational value for L"}), _JSON),
    ),
    "verify": (
        {"help": "run a named verification scenario"},
        (
            ("scenario", {"choices": SCENARIOS}),
            ("--k", {"type": int, "default": 2, "help": "distinct-sum: number of arguments"}),
            ("--cap-degree", {"type": int, "default": 6, "help": "distinct-sum: expansion degree"}),
            ("--m", {"type": int, "default": 0, "help": "zeta-closed-form: numerator twist q^m"}),
            ("--n", {"type": int, "default": 1, "help": "zeta-closed-form: denominator twist 1-q^n"}),
            ("--order", {"type": int, "default": 4, "help": "series truncation order"}),
            ("--n-max", {"type": int, "default": 4, "help": "grassmannian: largest L-power in the product"}),
            ("--ring", {"choices": ("motivic", "hd"), "default": "motivic", "help": "axioms: coefficient ring"}),
            ("--samples", {"type": int, "default": 20, "help": "axioms: number of random samples"}),
            ("--seed", {"type": int, "default": 0, "help": "axioms: RNG seed"}),
            (
                "--perturb",
                {"action": "store_true", "help": "negative control: deliberately break one side (must fail)"},
            ),
            _JSON,
        ),
    ),
}


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would give for a well-formed argv, read by the
    table alone; None for anything argparse is needed for.

    That is help, ``--``, any token starting with "-" that is not an option of
    the command as spelled in the table (an abbreviation, a negative number),
    a repeated option, ``--flag=value``, an option value starting with "-", a
    value that ``int`` or the choices reject, the wrong number of positionals,
    a missing required option, and an unknown command or an empty argv.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    arguments = COMMANDS[argv[0]][1]
    specs = dict(arguments)
    positionals = [name for name, _ in arguments if name[0] != "-"]
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            if not positionals:
                return None
            name, value = positionals.pop(0), token
        else:
            name, eq, value = token.partition("=")
            if name not in specs or name in values:
                return None
            if specs[name].get("action") == "store_true":
                if eq:
                    return None
                values[name] = True
                continue
            if not eq:
                value = next(tokens, "-")
            if value[:1] == "-":
                return None
        spec = specs[name]
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[name] = value
    if positionals:
        return None
    args = SimpleNamespace(command=argv[0])
    for name, spec in arguments:
        if name not in values:
            if spec.get("required"):
                return None
            values[name] = spec.get("default", False if spec.get("action") == "store_true" else None)
        setattr(args, name.lstrip("-").replace("-", "_"), values[name])
    return args


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built from ``COMMANDS`` on first use and shared by
    later calls (parse_args leaves the parser unchanged).  Only an argv that
    ``_read_args`` declines reaches it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="stackzeta",
        description="Exact Kapranov zeta functions and power structures on motivic classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (keywords, arguments) in COMMANDS.items():
        p = sub.add_parser(command, **keywords)
        for name, spec in arguments:
            p.add_argument(name, **spec)
    return parser


def _emit(args, text_value, json_value) -> int:
    """Print the result; json_value may hold Fractions and polynomials, written as strings."""
    with int_text_limit():
        if args.json:
            import json

            text = json.dumps(json_value, default=str)
        else:
            text = str(text_value)
    print(text)
    return 0


def _run(args) -> int:
    if args.command == "zeta":
        series = zeta_series(parse_class(args.expr), args.order)
        return _emit(args, series, series.to_json())

    if args.command == "sym":
        if args.k < 0:
            raise DomainError("sym needs k >= 0")
        value = sym_power(parse_class(args.expr), args.k)
        return _emit(args, value, value.to_json())

    if args.command == "power":
        base = parse_series(args.series, args.order)
        if not base.coefficient(0) == base.ring.one:
            raise ElaborationError("the base series must have constant term 1")
        exponent = parse_class(args.expr)
        result = power(base, exponent, motivic_provider())
        return _emit(args, result, result.to_json())

    if args.command == "opposite":
        series = opposite_zeta(parse_class(args.expr), args.order)
        return _emit(args, series, series.to_json())

    if args.command == "hd":
        realization = parse_class(args.expr).hd_realization()
        return _emit(args, realization, realization.to_json())

    if args.command == "hd-zeta":
        series = hd_zeta(parse_poly(args.poly), args.order)
        return _emit(args, series, series.to_json())

    if args.command == "effective":
        value = parse_class_or_poly(args.expr)
        check = check_polynomial_effectiveness if isinstance(value, MultiPoly) else check_class_effectiveness
        result = check(value)
        payload = {"verdict": result.verdict, "witness": result.witness, "detail": result.detail}
        return _emit(args, result, payload)

    if args.command == "eval":
        value = evaluate_class(args.expr, _at_value(args.at))
        return _emit(args, value, {"value": value})

    if args.command == "verify":
        if args.perturb and args.scenario not in ("distinct-sum", "axioms"):
            raise DomainError(f"--perturb is supported by distinct-sum and axioms, not {args.scenario}")
        from .verify import verify_axioms, verify_distinct_sum, verify_grassmannian, verify_zeta_closed_form

        if args.scenario == "distinct-sum":
            report = verify_distinct_sum(args.k, args.cap_degree, perturb=args.perturb)
        elif args.scenario == "zeta-closed-form":
            report = verify_zeta_closed_form(args.m, args.n, args.order)
        elif args.scenario == "grassmannian":
            report = verify_grassmannian(args.n_max, args.order)
        else:
            report = verify_axioms(
                args.ring, args.order, args.samples, args.seed, perturbed=args.perturb
            )
        _emit(args, report, report.to_json())
        return 0 if report.passed else 1

    raise InternalConsistencyError(f"unhandled command {args.command!r}")


#: The text Fraction() reads (its Python 3.11 grammar): P, P/Q, or a decimal
#: with an optional exponent, signed, with underscores between digits.
_RATIONAL = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(?P<num>\d*|\d+(_\d+)*)"
    r"(?:/\d+(_\d+)*|(?:\.(?P<dec>\d*|\d+(_\d+)*))?(?:[eE](?P<exp>[-+]?\d+(_\d+)*))?)\s*"
)


def _at_value(text: str) -> Fraction:
    """The rational of --at.  Before Fraction reads it, an integer above the digit
    limit of int(), or an exponent whose power of 10 is above it, exits 4, unechoed."""
    limit = sys.get_int_max_str_digits()
    digits = max(map(len, re.findall(r"\d+", text.replace("_", ""))), default=0)
    if 0 < limit < digits:
        raise ResourceLimitError(
            f"--at value has an integer of {digits} digits, above the limit of {limit} digits for integer conversion"
        )
    m = _RATIONAL.fullmatch(text)
    exp = int(m["exp"]) if m and m["exp"] else 0
    if 0 < limit <= abs(exp):
        raise ResourceLimitError(
            f"--at value has an exponent of {exp}, so 10^{abs(exp)} is above the limit of {limit} digits"
            " for integer conversion"
        )
    import fractions

    try:
        return fractions.Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"--at expects a rational like 3 or 5/2, got {text!r}") from exc


def _bind_at_value(argv: list[str]) -> list[str]:
    """Rewrite '--at VALUE' as '--at=VALUE' when VALUE has the syntax of a rational.

    argparse reads a token such as -7/3 as an option, not as the value of
    --at (it makes that exception only for plain negative numbers like -2).
    The value itself is read later, by ``_at_value``.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--at" and "--" not in out and _RATIONAL.fullmatch(token):
            out[-1] = f"--at={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _bind_at_value(sys.argv[1:] if argv is None else argv)
    args = _read_args(argv) or _build_parser().parse_args(argv)
    try:
        return _run(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
