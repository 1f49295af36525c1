"""The CLI in a fresh interpreter: hostile inputs exit with the documented
code and no traceback, and every command that imports a module on first use
still finds it.

Each case runs `python -m stackzeta.cli` as a user would, so a crash that the
in-process tests would see only as an exception shows up here as exit 1 and a
traceback on stderr.  In-process tests cannot see a missing deferred import
(``fractions``, ``json``, ``verify``, ``oracles``, ``argparse``): an earlier
test has already loaded the module.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stackzeta

LIMIT = sys.get_int_max_str_digits()
BIG = "9" * (LIMIT + 700)

LITERAL_ERROR = (
    f"error: integer literal of {len(BIG)} digits is above the limit of {LIMIT} digits for integer conversion"
)
RESULT_ERROR = f"error: the result has an integer above the limit of {LIMIT} digits for integer-to-string conversion"

HOSTILE = [
    ("literal", ("eval", BIG, "--at", "2"), f"{LITERAL_ERROR} (line 1, col 1)"),
    ("literal-in-hd", ("hd", f"GL(2)*{BIG}"), f"{LITERAL_ERROR} (line 1, col 7)"),
    ("literal-exponent", ("eval", f"L^{BIG}", "--at", "2", "--json"), f"{LITERAL_ERROR} (line 1, col 3)"),
    ("big-gl", ("eval", "GL(300)", "--at", "5/2"), RESULT_ERROR),
    ("big-power", ("eval", "(L+1)^10000", "--at", "2"), RESULT_ERROR),
    ("big-power-json", ("eval", "(L+1)^10000", "--at", "2", "--json"), RESULT_ERROR),
    ("big-hd-coefficient", ("hd", "(L+10^100)^50"), RESULT_ERROR),
    ("big-sym-coefficient-json", ("sym", "1", "10^5000", "--json"), RESULT_ERROR),
    ("big-effective-witness", ("effective", "-(10^100)^50*L^3 + L"), RESULT_ERROR),
    ("big-effective-witness-json", ("effective", "-(10^100)^50*L^3 + L", "--json"), RESULT_ERROR),
    ("big-effective-detail", ("effective", "(10^100)^50*L^3 + L"), RESULT_ERROR),
    ("big-effective-detail-json", ("effective", "(10^100)^50*L^3 + L", "--json"), RESULT_ERROR),
    (
        "big-at-value",
        ("eval", "L", "--at", BIG),
        f"error: --at value has an integer of {len(BIG)} digits, above the limit of {LIMIT} digits"
        " for integer conversion",
    ),
    (
        "big-at-exponent",
        ("eval", "L", "--at", "1e3000000"),
        f"error: --at value has an exponent of 3000000, so 10^3000000 is above the limit of {LIMIT} digits"
        " for integer conversion",
    ),
    (
        "big-at-negative-exponent",
        ("eval", "L", "--at", "1e-3000000"),
        f"error: --at value has an exponent of -3000000, so 10^3000000 is above the limit of {LIMIT} digits"
        " for integer conversion",
    ),
]


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(stackzeta.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.skipif(LIMIT == 0, reason="no int-to-string digit limit")
@pytest.mark.parametrize("argv, err", [case[1:] for case in HOSTILE], ids=[case[0] for case in HOSTILE])
def test_hostile_input_exits_4_without_a_traceback(argv, err):
    proc = fresh_python("-m", "stackzeta.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", err + "\n")


VERIFY_JSON = (
    '{"scenario": "axioms", "params": {"ring": "motivic", "order": 2, "samples": 2, "seed": 0, "perturbed": false},'
    ' "verdict": "pass", "witness": null, "ms": MS}\n'
)
VERIFY_PERTURBED = (
    "scenario axioms {'ring': 'motivic', 'order': 2, 'samples': 2, 'seed': 0, 'perturbed': True}: fail (MS ms)\n"
    "  witness: axiom 3 ((A*B)^m = A^m * B^m): sample 0: lhs = "
)

ZETA_L_ORDER2 = "1 + (L)*T + (L^2)*T^2\n"

#: (id, argv, exit code, stdout with timings masked as MS, or its start when it
#: ends in a space, and a text that stderr holds, or "" when it must be empty).
#: The last four take the argparse route, which imports argparse on first use.
DEFERRED = [
    ("eval", ("eval", "GL(2)", "--at", "5/2"), 0, "315/16\n", ""),
    ("eval-json", ("eval", "GL(2)", "--at", "5/2", "--json"), 0, '{"value": "315/16"}\n', ""),
    ("eval-class", ("eval", "(L+1)/(L^2-1)", "--at", "-1"), 0, "-1/2\n", ""),
    (
        "effective-json",
        ("effective", "GL(2)", "--json"),
        0,
        '{"verdict": "effective-candidate", "witness": null, "detail": "polynomial class; top part 1*(uv)^4"}\n',
        "",
    ),
    ("verify-json", ("verify", "axioms", "--order", "2", "--samples", "2", "--json"), 0, VERIFY_JSON, ""),
    ("verify-perturbed", ("verify", "axioms", "--order", "2", "--samples", "2", "--perturb"), 1, VERIFY_PERTURBED, ""),
    ("zeta", ("zeta", "L", "--order", "2"), 0, ZETA_L_ORDER2, ""),
    ("help", ("--help",), 0, "usage: stackzeta ", ""),
    ("missing-order", ("zeta", "L"), 2, "", "the following arguments are required: --order"),
    ("abbreviated-order", ("zeta", "L", "--ord", "2"), 0, ZETA_L_ORDER2, ""),
    ("unknown-command", ("frob",), 2, "", "invalid choice: 'frob'"),
]


@pytest.mark.parametrize(
    "argv, code, out, err", [case[1:] for case in DEFERRED], ids=[case[0] for case in DEFERRED]
)
def test_commands_that_import_on_first_use(argv, code, out, err):
    proc = fresh_python("-m", "stackzeta.cli", *argv)
    stdout = re.sub(r'(?<="ms": )[0-9.e+-]+|(?<=\()[0-9.]+(?= ms\))', "MS", proc.stdout)
    assert proc.returncode == code
    assert err in proc.stderr if err else proc.stderr == ""
    assert stdout.startswith(out) if out.endswith(" ") else stdout == out


def test_a_well_formed_call_does_not_load_argparse():
    for argv, out in [
        (["zeta", "BGL(1)", "--order", "3", "--json"], '{"order": 3, '),
        (["eval", "1/(L-1)", "--at", "-7/3"], "-3/10\n"),
    ]:
        code = (
            "import sys; from stackzeta.cli import main;"
            f" code = main({argv!r});"
            " print(code, sorted({'argparse', 'gettext'} & sys.modules.keys()))"
        )
        proc = fresh_python("-S", "-c", code)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        assert proc.stdout.startswith(out) and proc.stdout.endswith("\n0 []\n"), argv


def test_the_package_resolves_its_deferred_exports():
    code = (
        "import stackzeta; stackzeta.zeta_from_sigma; stackzeta.verify_axioms;"
        " print(sorted(dir(stackzeta)) == sorted(set(dir(stackzeta))))"
    )
    proc = fresh_python("-c", code)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")
    star = "import stackzeta; from stackzeta import *; print(sorted(set(stackzeta.__all__) - set(globals())))"
    proc = fresh_python("-S", "-c", star)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
