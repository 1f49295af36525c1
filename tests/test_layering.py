"""Each storage format is read only by the module that owns it.

The term maps of ``IntLaurent`` and ``MultiPoly`` (``_terms``) are read only
in ``laurent.py`` and ``multipoly.py``, and a class's unchecked constructor
``X._raw`` is called only in the module that defines X.  Every other module
goes through the public methods, so changing a representation touches one
module.

The generic layers, ``series.py`` and ``power.py``, import no coefficient
type: they know coefficients only through the ``Ring`` protocol.  And no
module but ``verify.py`` and ``__init__.py`` imports ``oracles``, so the
engine never leans on the routes it is checked against.

Outside ``laurent.py`` the library divides polynomials only by binomials
L^n - 1: every ``.divexact(...)`` call takes an ``l_minus_one(...)``
argument, so no library path reaches the DomainError that ``divexact``
raises for any divisor other than L^a * (L^n - 1).

Importing the package and its CLI loads neither ``dataclasses`` nor
``inspect``: every CLI call is a fresh process, and that machinery cost
about two thirds of the import.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterable

import stackzeta

TERMS_OWNERS = {"laurent.py", "multipoly.py"}
GENERIC_LAYERS = {"series.py", "power.py"}
COEFFICIENT_MODULES = {"laurent", "multipoly", "motivic"}
ORACLE_IMPORTERS = {"verify.py", "__init__.py"}
SLOW_IMPORTS = {"dataclasses", "inspect"}


def foreign_accesses(src: Path) -> list[str]:
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    owner = {
        node.name: module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr == "_terms" and module not in TERMS_OWNERS:
                found.append(f"{module}:{node.lineno}: ._terms")
            if (
                node.attr == "_raw"
                and isinstance(node.value, ast.Name)
                and owner.get(node.value.id, module) != module
            ):
                found.append(f"{module}:{node.lineno}: {node.value.id}._raw")
    return found


def test_formats_are_read_only_by_their_owners():
    assert foreign_accesses(Path(stackzeta.__file__).parent) == []


def test_the_scan_sees_foreign_accesses(tmp_path):
    (tmp_path / "laurent.py").write_text("class IntLaurent:\n    pass\n")
    (tmp_path / "other.py").write_text(
        "def f(p):\n    return IntLaurent._raw(p._terms)\n\n"
        "class Local:\n    def g(self, cls):\n        return Local._raw(cls._raw)\n"
    )
    assert sorted(foreign_accesses(tmp_path)) == ["other.py:2: ._terms", "other.py:2: IntLaurent._raw"]


def forbidden_imports(src: Path, importers: Iterable[str], targets: set[str]) -> list[str]:
    """Imports of a module in ``targets`` by a module in ``importers``, in any
    spelling: ``from .motivic import X``, ``from . import motivic``,
    ``import stackzeta.motivic``, ``from stackzeta.motivic import X``."""
    found = []
    for name in sorted(importers):
        path = src / name
        if not path.exists():
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".")
                if not node.module or (node.level == 0 and parts[-1] == "stackzeta"):
                    parts += [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                parts = [p for alias in node.names for p in alias.name.split(".")]
            else:
                continue
            for module in sorted(targets.intersection(parts)):
                found.append(f"{name}:{node.lineno}: {module}")
    return found


def import_rules(src: Path) -> dict[str, tuple[set[str], set[str]]]:
    """Each rule: the modules it constrains and the modules they may not import."""
    return {
        "generic": (GENERIC_LAYERS, COEFFICIENT_MODULES),
        "oracles": ({path.name for path in src.glob("*.py")} - ORACLE_IMPORTERS, {"oracles"}),
    }


def test_generic_layers_import_no_coefficient_type():
    src = Path(stackzeta.__file__).parent
    assert forbidden_imports(src, *import_rules(src)["generic"]) == []


def test_only_verify_and_the_package_import_the_oracles():
    src = Path(stackzeta.__file__).parent
    assert forbidden_imports(src, *import_rules(src)["oracles"]) == []


SCAN_CASES = {
    "generic": (
        {
            "series.py": "from .errors import DomainError\nfrom .motivic import MotivicClass\nfrom . import laurent, zeta\n",
            "power.py": "import stackzeta.multipoly\nfrom stackzeta.motivic import MotivicClass\nfrom .series import Ring\n",
            "zeta.py": "from .motivic import MotivicClass\n",
        },
        ["power.py:1: multipoly", "power.py:2: motivic", "series.py:2: motivic", "series.py:3: laurent"],
    ),
    "oracles": (
        {
            "zeta.py": "from .oracles import zeta_from_sigma\n",
            "cli.py": "from . import oracles, zeta\nimport stackzeta.oracles\n",
            "hodge.py": "from stackzeta.oracles import Partition\nfrom .zeta import oracles_of\n",
            "verify.py": "from .oracles import zeta_of_polynomial\n",
            "__init__.py": "from .oracles import Partition\n",
        },
        ["cli.py:1: oracles", "cli.py:2: oracles", "hodge.py:1: oracles", "zeta.py:1: oracles"],
    ),
}


def test_the_scan_sees_coefficient_imports(tmp_path):
    for rule, (files, expected) in SCAN_CASES.items():
        src = tmp_path / rule
        src.mkdir()
        for name, text in files.items():
            (src / name).write_text(text)
        assert forbidden_imports(src, *import_rules(src)[rule]) == expected, rule


def general_divisions(src: Path) -> list[str]:
    """``.divexact(...)`` calls outside laurent.py whose argument is not a
    direct ``l_minus_one(...)`` call, in either spelling of the name."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "laurent.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr != "divexact":
                continue
            arg = node.args[0] if len(node.args) == 1 and not node.keywords else None
            callee = arg.func if isinstance(arg, ast.Call) else None
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name != "l_minus_one":
                found.append(f"{path.name}:{node.lineno}: .divexact")
    return found


def test_the_library_divides_only_by_binomials():
    assert general_divisions(Path(stackzeta.__file__).parent) == []


def test_the_scan_sees_general_divisions(tmp_path):
    (tmp_path / "laurent.py").write_text("def f(p, q):\n    return p.divexact(q)\n")
    (tmp_path / "motivic.py").write_text(
        "from . import laurent\nfrom .laurent import l_minus_one\n\n"
        "def f(p, q):\n"
        "    a = p.divexact(l_minus_one(3))\n"
        "    b = p.divexact(laurent.l_minus_one(2))\n"
        "    c = p.divexact(q)\n"
        "    d = p.divexact(l_minus_one(2) * q)\n"
        "    return a, b, c, d, p.divexact(other=q)\n"
    )
    assert general_divisions(tmp_path) == [
        "motivic.py:7: .divexact",
        "motivic.py:8: .divexact",
        "motivic.py:9: .divexact",
    ]


def slow_imports(src: Path) -> list[str]:
    """Absolute imports of a module in SLOW_IMPORTS, or of one of its submodules."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found.extend(f"{path.name}:{node.lineno}: {n}" for n in names if n.split(".")[0] in SLOW_IMPORTS)
    return found


def test_import_loads_neither_dataclasses_nor_inspect():
    src = Path(stackzeta.__file__).parent
    code = f"import sys, stackzeta, stackzeta.cli; print(sorted({sorted(SLOW_IMPORTS)} & sys.modules.keys()))"
    env = {**os.environ, "PYTHONPATH": str(src.parent)}
    # -S: no site hooks, so only the standard library's start-up precedes the import
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "[]\n", f"loaded {proc.stdout.strip()}, imported at {slow_imports(src)}"
    assert slow_imports(src) == []


def test_the_scan_sees_slow_imports(tmp_path):
    (tmp_path / "expr.py").write_text(
        "from dataclasses import dataclass\nimport os, inspect\nfrom .dataclasses import x\nimport inspection\n"
    )
    (tmp_path / "zeta.py").write_text("import dataclasses as dc\n")
    assert slow_imports(tmp_path) == ["expr.py:1: dataclasses", "expr.py:2: inspect", "zeta.py:1: dataclasses"]
