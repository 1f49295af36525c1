"""Hostile inputs in a fresh interpreter: the documented exit code, no traceback.

Each case runs `python -m stackzeta.cli` as a user would, so a crash that the
in-process tests would see only as an exception shows up here as exit 1 and a
traceback on stderr.
"""

import os
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


@pytest.mark.skipif(LIMIT == 0, reason="no int-to-string digit limit")
@pytest.mark.parametrize("argv, err", [case[1:] for case in HOSTILE], ids=[case[0] for case in HOSTILE])
def test_hostile_input_exits_4_without_a_traceback(argv, err):
    env = {**os.environ, "PYTHONPATH": str(Path(stackzeta.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "stackzeta.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", err + "\n")
