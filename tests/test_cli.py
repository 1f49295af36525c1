"""Command-line interface: outputs, JSON forms, exit codes."""

import contextlib
import fractions
import io
import json
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stackzeta import (
    InternalConsistencyError,
    MotivicClass,
    TruncatedSeries,
    cli,
    motivic_ring,
    zeta_series,
)
from stackzeta.cli import main
from stackzeta.power import MAX_SERIES_ORDER
from stackzeta.expr import parse_class

ZETA_BGL1_ORDER3 = (
    "1 + (1 / (L-1))*T + (L / ((L-1) * (L^2-1)))*T^2"
    " + (L^3 / ((L-1) * (L^2-1) * (L^3-1)))*T^3"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zeta_text_output(capsys):
    code, out, err = run(capsys, "zeta", "1/(L-1)", "--order", "3")
    assert code == 0
    assert out.strip() == ZETA_BGL1_ORDER3
    assert err == ""


def test_zeta_json_round_trips(capsys):
    code, out, _ = run(capsys, "zeta", "BGL(2)", "--order", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 2
    coeffs = [MotivicClass.from_json(c) for c in data["coeffs"]]
    rebuilt = TruncatedSeries(motivic_ring(), tuple(coeffs))
    assert rebuilt == zeta_series(parse_class("BGL(2)"), 2)


def test_sym_command(capsys):
    code, out, _ = run(capsys, "sym", "2", "L + 1")
    assert code == 0
    assert out.strip() == "L^2 + L + 1"


def test_power_command(capsys):
    code, out, _ = run(capsys, "power", "1 + T", "1/(L-1)", "--order", "2")
    assert code == 0
    assert out.strip() == "1 + (1 / (L-1))*T + ((-L^2 + L + 1) / ((L-1) * (L^2-1)))*T^2"


def test_power_series_takes_negative_powers_of_t_free_units(capsys):
    code, out, err = run(capsys, "power", "1 + BGL(1)^-1*T", "L", "--order", "2")
    assert (code, out.strip(), err) == (0, "1 + (L^2 - L)*T + (L^4 - 2*L^3 + L^2)*T^2", "")
    # L + 1 = Phi_2 is a unit: (L+1)^-1 = (L-1)/(L^2-1)
    code, out, err = run(capsys, "power", "1 + (L+1)^-1*T", "L", "--order", "2")
    assert (code, out.strip(), err) == (
        0,
        "1 + ((L^2 - L) / (L^2-1))*T + ((L^6 - 2*L^5 + L^4 - L^3 + 2*L^2 - L) / ((L^2-1) * (L^4-1)))*T^2",
        "",
    )
    code, out, err = run(capsys, "power", "1 + (L+2)^-1*T", "L", "--order", "2")
    assert (code, out) == (2, "")
    assert err.rstrip().endswith("(line 1, col 10)")


def test_constructor_argument_errors_carry_a_position(capsys):
    code, out, err = run(capsys, "hd", "1 + GL(L)")
    assert (code, out) == (2, "")
    assert err.rstrip().endswith("GL arguments must be integer literals (line 1, col 5)")


def test_power_needs_constant_term_one(capsys):
    code, _, err = run(capsys, "power", "2 + T", "L", "--order", "2")
    assert code == 2
    assert "constant term" in err


def test_opposite_command(capsys):
    code, out, _ = run(capsys, "opposite", "1", "--order", "2")
    assert code == 0
    assert out.strip() == "1 + T"


def test_hd_command(capsys):
    code, out, _ = run(capsys, "hd", "BGL(1)")
    assert code == 0
    assert out.strip() == "1 / ((u*v)-1)"


def test_hd_zeta_command(capsys):
    code, out, _ = run(capsys, "hd-zeta", "u*v", "--order", "2")
    assert code == 0
    assert out.strip() == "1 + (u*v)*T + (u^2*v^2)*T^2"


def test_effective_dispatches_on_variables(capsys):
    code, out, _ = run(capsys, "effective", "u^2*v + u*v")
    assert code == 0
    assert "not-effective" in out
    assert "u^2*v" in out

    code, out, _ = run(capsys, "effective", "(-L^3 + L^2 + L) / GL(2)")
    assert code == 0
    assert "not-effective" in out
    assert "-u^3*v^3" in out

    code, out, _ = run(capsys, "effective", "L^2 + L", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "effective-candidate"
    assert set(data) == {"verdict", "witness", "detail"}


def test_eval_command(capsys):
    code, out, _ = run(capsys, "eval", "1/(L-1)", "--at", "3")
    assert code == 0
    assert out.strip() == "1/2"

    code, out, _ = run(capsys, "eval", "L^2 + L", "--at", "5/2", "--json")
    assert code == 0
    assert json.loads(out) == {"value": "35/4"}


def test_eval_at_negative_values(capsys):
    for at, want in ((["--at", "-7/3"], "-3/10"), (["--at", "-2"], "-1/3"), (["--at=-7/3"], "-3/10")):
        code, out, err = run(capsys, "eval", "1/(L-1)", *at)
        assert (code, out.strip(), err) == (0, want, "")


def test_parser_is_built_only_for_declined_argvs(capsys):
    cli._build_parser.cache_clear()
    for _ in range(5):
        run(capsys, "sym", "2", "L + 1")
        run(capsys, "hd", "BGL(1)", "--json")
    assert cli._build_parser.cache_info().misses == 0
    for argv, code in ((["--help"], 0), (["zeta", "L"], 2)):  # --order is required
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    capsys.readouterr()
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


#: Values to draw for an argument of each kind: the well-formed ones first,
#: then the kinds that argparse reads differently or rejects.
INT_VALUES = ("3", "0", "12", " 4", "1_0"), ("-2", "x", "", "2.5", "-L")
STR_VALUES = ("L", "BGL(1)", "1/(L-1)", "2", "7/2", ""), ("-7/3", "-L", "-L + 1", "-", "--json", "-h")
JUNK = ("-h", "--help", "--", "-L", "-L + 1", "-2", "--ord", "--frob", "extra", "")


@st.composite
def table_argvs(draw):
    """An argv built from ``cli.COMMANDS``: its positionals and options in any
    order, each option as ``--opt v`` or ``--opt=v``.  Each argument may be
    spoiled: left out, repeated, abbreviated or given a bad value; and stray
    tokens may be mixed in."""
    command = draw(st.sampled_from([*cli.COMMANDS, "frob", "--help", "-h", "--"]))
    if command not in cli.COMMANDS:
        return draw(st.sampled_from([[], [command], [command, "L"]]))
    groups = []
    for name, spec in cli.COMMANDS[command][1]:
        good, bad = ((*spec["choices"],), ("nope",)) if "choices" in spec else INT_VALUES if "type" in spec else STR_VALUES
        spoil = draw(st.integers(0, 5)) == 0
        values = st.sampled_from(good + bad if spoil else good)
        usual = 1 if name[0] != "-" or spec.get("required") else draw(st.integers(0, 1))
        for _ in range(draw(st.integers(0, 2)) if spoil else usual):
            if name[0] != "-":
                groups.append([draw(values)])
                continue
            spelled = name[: draw(st.sampled_from([3, 4, len(name) - 1]))] if spoil and draw(st.booleans()) else name
            if spec.get("action") == "store_true":
                groups.append([f"{spelled}=1"] if spoil and draw(st.booleans()) else [spelled])
            else:
                value = draw(values)
                groups.append([f"{spelled}={value}"] if draw(st.booleans()) else [spelled, value])
    groups += [[token] for token in draw(st.lists(st.sampled_from(JUNK), max_size=1))]
    return [command, *(token for group in draw(st.permutations(groups)) for token in group)]


def argparse_reads(argv):
    """vars() of argparse's namespace, each value with its type, or None if argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            namespace = cli._build_parser().parse_args(argv)
        except SystemExit:
            return None
    return {key: (type(value), value) for key, value in vars(namespace).items()}


@settings(max_examples=600)
@given(table_argvs())
def test_direct_reader_agrees_with_argparse(argv):
    for read in (argv, cli._bind_at_value(argv)):
        want = argparse_reads(read)
        got = cli._read_args(read)
        if got is not None:
            assert {key: (type(value), value) for key, value in vars(got).items()} == want, read


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "L", "--ord", "2"],
        ["zeta", "L", "--ord=2"],
        ["sym", "-2", "L"],
        ["zeta", "L", "--order", "-2"],
        ["eval", "L", "--at=-7/3"],
        ["zeta", "L", "--order", "2", "--order", "3"],
        ["hd", "--", "-L"],
        ["zeta", "--order", "2", "--", "L"],
        ["verify", "axioms", "--perturb", "--perturb"],
    ],
)
def test_direct_reader_leaves_argparse_its_own_rules(argv):
    # argparse reads each of these, by rules the table does not spell out
    assert argparse_reads(argv) is not None
    assert cli._read_args(argv) is None


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "BGL(1)", "--order", "3", "--json"],
        ["zeta", "--order=3", "L"],
        ["sym", "2", "L + 1"],
        ["power", "1 + T", "--order", "2", "1/(L-1)"],
        ["opposite", "", "--order", "0"],
        ["hd", "--json", "BGL(1)"],
        ["hd-zeta", "u*v", "--order", " 2"],
        ["effective", "GL(2)"],
        ["eval", "L", "--at", "5/2", "--json"],
        ["verify", "axioms", "--ring", "hd", "--samples=3", "--perturb", "--cap-degree", "1_0"],
    ],
)
def test_direct_reader_reads_well_formed_argvs(argv):
    got = cli._read_args(argv)
    assert got is not None and vars(got) == vars(cli._build_parser().parse_args(argv))


def test_reused_parser_keeps_no_state_between_calls(capsys):
    code, out, _ = run(capsys, "hd", "BGL(1)", "--json")
    assert code == 0
    json.loads(out)
    code, out, _ = run(capsys, "sym", "2", "L + 1")
    assert (code, out.strip()) == (0, "L^2 + L + 1")

    with pytest.raises(SystemExit) as exc:
        main(["zeta", "L"])  # --order is required
    assert exc.value.code == 2
    assert "--order" in capsys.readouterr().err
    code, out, err = run(capsys, "zeta", "1/(L-1)", "--order", "3")
    assert (code, out.strip(), err) == (0, ZETA_BGL1_ORDER3, "")


def test_eval_error_paths(capsys):
    code, out, err = run(capsys, "eval", "1/(L-1)", "--at", "1")
    assert (code, out, err) == (3, "", "error: denominator vanishes at L = 1\n")

    for at in ("banana", "1/0", "1/2/3", ""):
        code, out, err = run(capsys, "eval", "L", "--at", at)
        assert (code, out) == (2, "")
        assert err == f"error: --at expects a rational like 3 or 5/2, got {at!r}\n"

    # every unit +-L^a * prod Phi_d^e inverts, L + 1 = Phi_2 among them
    assert run(capsys, "eval", "1/(L+1)", "--at", "2") == (0, "1/3\n", "")
    for text, unit in (("2/2", "2"), ("0^-1", "0")):
        code, out, err = run(capsys, "eval", text, "--at", "2")
        assert (code, out) == (2, "")
        assert err == f"error: class is not a unit of the ring: {unit} (line 1, col 2)\n"


def test_at_exponent_is_bounded_by_the_digit_limit(capsys, monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 50)
    assert run(capsys, "eval", "L", "--at", "-1e-49") == (0, f"-1/1{'0' * 49}\n", "")
    for at, exp in (("1e50", "50"), ("-2.5E-5_0", "-50")):
        code, out, err = run(capsys, "eval", "L", "--at", at)
        assert (code, out) == (4, "")
        assert err == (
            f"error: --at value has an exponent of {exp}, so 10^50 is above the limit of 50 digits"
            " for integer conversion\n"
        )


def test_at_value_binds_by_syntax_without_reading_it(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("Fraction read the value")

    monkeypatch.setattr(fractions, "Fraction", no_fraction)  # what _at_value imports when it runs
    for value in ("-7/3", "-2", "-1.5", "-.5e-3000000", "-1_000/3", "-1/0"):
        assert cli._bind_at_value(["eval", "L", "--at", value]) == ["eval", "L", f"--at={value}"]
    for argv in (["eval", "L", "--at", "-x"], ["eval", "L", "--at", "--json"], ["--", "--at", "-1"]):
        assert cli._bind_at_value(argv) == argv


@given(st.text(alphabet="0123456789_./eE+- ", max_size=10))
def test_rational_syntax_is_what_fraction_reads(text):
    assume(not re.search(r"[eE][-+]?[\d_]{4}", text))  # keep the powers of 10 small
    try:
        Fraction(text)
        reads = True
    except ZeroDivisionError:
        reads = True
    except ValueError:
        reads = False
    assert bool(cli._RATIONAL.fullmatch(text)) == reads


@pytest.mark.parametrize(
    "text, at, code, out, err",
    [
        ("(L+1)/(L^2-1)", "-1", 0, "-1/2\n", ""),
        ("BGL(1)*(L-1)", "1", 0, "1\n", ""),
        ("L*q", "0", 0, "1\n", ""),
        ("q", "0", 3, "", "error: denominator vanishes at L = 0\n"),
    ],
)
def test_eval_at_zero_and_plus_minus_one_reads_the_normalized_class(capsys, text, at, code, out, err):
    # at these points a factor of the reduced denominator can vanish
    assert run(capsys, "eval", text, "--at", at) == (code, out, err)


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "zeta", "1 + ", "--order", "2")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv, col",
    [(("zeta", "L^²", "--order", "2"), 3), (("eval", "²", "--at", "2"), 1), (("eval", "①", "--at", "2"), 1)],
)
def test_non_decimal_digits_exit_with_a_parse_error(capsys, argv, col):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"(line 1, col {col})" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "sym", "-1", "L")
    assert code == 3


def test_resource_cap_exit_code(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "zeta", "1", "--order", "3000")
    assert time.perf_counter() - start < 0.2
    assert code == 4
    assert "error" in err
    assert str(MAX_SERIES_ORDER) in err and "3000" in err


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(*args):
        raise InternalConsistencyError("two routes disagree")

    monkeypatch.setattr(cli, "zeta_series", broken)
    code, _, err = run(capsys, "zeta", "L", "--order", "2")
    assert code == 5
    assert "internal error" in err


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "distinct-sum", "--k", "2", "--cap-degree", "5")
    assert code == 0
    assert "pass" in out

    code, out, _ = run(capsys, "verify", "distinct-sum", "--k", "2", "--cap-degree", "4", "--perturb")
    assert code == 1
    assert "fail" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(
        capsys, "verify", "zeta-closed-form", "--m", "1", "--n", "1", "--order", "3", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"scenario", "params", "verdict", "witness", "ms"}
    assert data["scenario"] == "zeta-closed-form"
    assert data["verdict"] == "pass"
    assert data["witness"] is None


def test_verify_axioms_scenario(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "axioms",
        "--ring",
        "hd",
        "--order",
        "2",
        "--samples",
        "3",
        "--seed",
        "11",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "pass"
    assert data["params"]["ring"] == "hd"
    assert data["params"]["seed"] == 11


def test_verify_grassmannian_scenario(capsys):
    code, out, _ = run(capsys, "verify", "grassmannian", "--n-max", "3", "--order", "3")
    assert code == 0
    assert "pass" in out


def test_verify_cap_exit_code(capsys):
    code, _, err = run(capsys, "verify", "distinct-sum", "--k", "9", "--cap-degree", "4")
    assert code == 4



def test_verify_rejects_vacuous_runs(capsys):
    code, out, err = run(capsys, "verify", "axioms", "--samples", "0", "--order", "2", "--perturb")
    assert code == 3
    assert out == ""
    assert "samples" in err

    for scenario in ("zeta-closed-form", "grassmannian"):
        code, out, err = run(capsys, "verify", scenario, "--order", "3", "--perturb")
        assert code == 3
        assert out == ""
        assert "distinct-sum" in err and "axioms" in err and scenario in err
