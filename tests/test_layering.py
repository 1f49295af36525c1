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

Outside ``laurent.py`` the library divides polynomials only through
``IntLaurent.div_cyclotomic``, by a cyclotomic polynomial Phi_d, whose one
kernel inside ``laurent.py`` is a synthetic division by the monic Phi_d
that visits only nonzero terms: no library module calls ``divexact`` or
reaches a private division helper such as ``_div_binomial``, and
``DenomForm`` keeps no ``lcm`` or ``complement_in`` merge of denominator
shapes, since sums are taken over cyclotomic exponents.

Only ``_frozen.py`` defines ``__setattr__``, ``__delattr__`` or
``__reduce__``, and every class with a non-empty ``__slots__`` derives from
its ``Frozen``, so immutability, copying and pickling have one owner.

Importing the package and its CLI loads only what every call needs: every
CLI call is a fresh process, so each module it loads is paid for on every
call.  ``dataclasses`` and ``inspect`` cost about two thirds of the import
and are not used at all.  ``fractions`` (with ``decimal``) and ``json`` are
imported by the functions that compute on Fractions or write JSON, and
``oracles`` and ``verify`` by the ``verify`` command and on first access to
their exports in the package namespace.  ``heapq`` loads a C extension,
about 0.6 ms on first use, so the cyclotomic quotient does without it.
``argparse``, which loads ``gettext``, is imported only for the CLI's help
and usage errors: a well-formed argv is read from the command table.
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
#: Modules that importing the package and its CLI must not load.
SLOW_IMPORTS = {
    "argparse", "dataclasses", "decimal", "fractions", "gettext", "heapq", "inspect", "json",
    "stackzeta.oracles", "stackzeta.verify",
}
FROZEN_HOOKS = {"__setattr__", "__delattr__", "__reduce__"}


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


#: IntLaurent division methods that library modules other than laurent.py may call.
DIVISION_ROUTES = {"div_cyclotomic"}
#: IntLaurent division methods, public and private, that only laurent.py calls.
DIVISION_METHODS = {"divexact", "div_cyclotomic", "_div_binomial"}
#: Shape merges that cyclotomic exponents made redundant.
DENOMINATOR_MERGES = {"lcm", "complement_in"}


def general_divisions(src: Path) -> list[str]:
    """Calls of an IntLaurent division method other than ``div_cyclotomic``
    outside laurent.py, and definitions of ``lcm`` or ``complement_in`` on
    ``DenomForm``."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and node.name == "DenomForm":
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef) and stmt.name in DENOMINATOR_MERGES:
                        found.append((path.name, stmt.lineno, f"DenomForm.{stmt.name}"))
            if path.name == "laurent.py":
                continue
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                name = node.func.attr
                if name in DIVISION_METHODS and name not in DIVISION_ROUTES:
                    found.append((path.name, node.lineno, f".{name}"))
    return [f"{module}:{line}: {what}" for module, line, what in sorted(found)]


def test_the_library_divides_only_by_binomials():
    assert general_divisions(Path(stackzeta.__file__).parent) == []


def test_the_scan_sees_general_divisions(tmp_path):
    (tmp_path / "laurent.py").write_text(
        "def f(p, q):\n    return p.divexact(q), p._div_binomial(2), p.div_cyclotomic(3)\n"
    )
    (tmp_path / "motivic.py").write_text(
        "from . import laurent\nfrom .laurent import l_minus_one\n\n"
        "def f(p, q):\n"
        "    a = p.div_cyclotomic(3)\n"
        "    b = p.divexact(laurent.l_minus_one(2))\n"
        "    c = p.divexact(q)\n"
        "    d = p._div_binomial(2)\n"
        "    return a, b, c, d, p.divide_exact_int(2)\n\n\n"
        "class DenomForm:\n"
        "    def expand(self):\n        pass\n\n"
        "    def lcm(self, other):\n        pass\n\n"
        "    def complement_in(self, target):\n        pass\n\n\n"
        "class Other:\n    def lcm(self, other):\n        pass\n"
    )
    assert general_divisions(tmp_path) == [
        "motivic.py:6: .divexact",
        "motivic.py:7: .divexact",
        "motivic.py:8: ._div_binomial",
        "motivic.py:16: DenomForm.lcm",
        "motivic.py:19: DenomForm.complement_in",
    ]


def _base_name(node: ast.expr) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _has_slots(node: ast.ClassDef) -> bool:
    """Whether the class body assigns a ``__slots__`` other than an empty literal."""
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
            empty = isinstance(stmt.value, (ast.Tuple, ast.List)) and not stmt.value.elts
            if not empty:
                return True
    return False


def unfrozen_values(src: Path) -> list[str]:
    """Definitions of a FROZEN_HOOKS method outside _frozen.py, and classes with
    a non-empty ``__slots__`` that do not derive from ``Frozen`` through any
    chain of bases defined in the package."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    classes = [
        (module, node) for module, tree in trees.items() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    bases = {node.name: [_base_name(b) for b in node.bases] for _, node in classes}

    def is_frozen(name, seen=frozenset()):
        return name == "Frozen" or any(is_frozen(b, seen | {name}) for b in bases.get(name, ()) if b not in seen)

    found = []
    for module, tree in trees.items():
        if module == "_frozen.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            found.extend((module, node.lineno, name) for name in names if name in FROZEN_HOOKS)
    for module, node in classes:
        if _has_slots(node) and not is_frozen(node.name):
            found.append((module, node.lineno, f"class {node.name}"))
    return [f"{module}:{line}: {what}" for module, line, what in sorted(found)]


def test_only_frozen_owns_immutability():
    assert unfrozen_values(Path(stackzeta.__file__).parent) == []


def test_the_scan_sees_unfrozen_values(tmp_path):
    (tmp_path / "_frozen.py").write_text(
        "class Frozen:\n    __slots__ = ()\n\n    def __setattr__(self, name, value):\n        pass\n\n"
        "    def __reduce__(self):\n        pass\n"
    )
    (tmp_path / "values.py").write_text(
        "from . import _frozen\nfrom ._frozen import Frozen\n\n"
        "class Base(Frozen):\n    __slots__ = (\"a\",)\n\n"
        "class Leaf(Base):\n    __slots__ = ()\n\n    def __reduce__(self):\n        return Leaf, ()\n\n"
        "class Qualified(_frozen.Frozen):\n    __slots__ = _fields = (\"b\",)\n\n"
        "class Loose:\n    __slots__ = (\"c\",)\n\n"
        "class Derived(Loose):\n    __slots__: tuple = (\"d\",)\n\n"
        "class Empty:\n    __slots__ = ()\n\n"
        "class Sneaky:\n    __slots__ = \"e\"\n    __delattr__ = object.__delattr__\n\n"
        "    def __setattr__(self, name, value):\n        pass\n"
    )
    assert unfrozen_values(tmp_path) == [
        "values.py:10: __reduce__",
        "values.py:16: class Loose",
        "values.py:19: class Derived",
        "values.py:25: class Sneaky",
        "values.py:27: __delattr__",
        "values.py:29: __setattr__",
    ]


def _import_time_statements(node: ast.AST):
    """The statements under node that run when its module is imported: all
    but function bodies and ``if TYPE_CHECKING:`` blocks."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, ast.If) and _base_name(child.test) == "TYPE_CHECKING":
            for stmt in child.orelse:
                yield stmt
                yield from _import_time_statements(stmt)
            continue
        yield child
        yield from _import_time_statements(child)


def _imported_modules(node: ast.AST) -> list[str]:
    """Full names of the modules an import statement may load; a relative
    import is read inside the ``stackzeta`` package."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = ".".join(filter(None, ["stackzeta" if node.level else "", node.module]))
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def slow_imports(src: Path) -> list[str]:
    """Imports of a module in SLOW_IMPORTS, or of one of its submodules, that
    run when a module outside SLOW_IMPORTS is imported.  An import inside a
    function runs only when the function is called, so it is not one."""
    found = []
    for path in sorted(src.glob("*.py")):
        if f"stackzeta.{path.stem}" in SLOW_IMPORTS:
            continue
        for node in _import_time_statements(ast.parse(path.read_text(), str(path))):
            names = _imported_modules(node)
            prefixes = {name.rsplit(".", cut)[0] for name in names for cut in range(name.count(".") + 1)}
            found.extend(f"{path.name}:{node.lineno}: {n}" for n in sorted(prefixes & SLOW_IMPORTS))
    return found


def test_import_loads_only_what_every_call_needs():
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
    (tmp_path / "zeta.py").write_text("import dataclasses as dc\nimport json.decoder\n")
    (tmp_path / "laurent.py").write_text("from heapq import heappop\n\ndef quotient():\n    import heapq\n")
    (tmp_path / "cli.py").write_text(
        "from typing import TYPE_CHECKING\n\n"
        "if TYPE_CHECKING:\n    from fractions import Fraction\nelse:\n    import decimal\n\n"
        "from .verify import verify_axioms\nfrom . import oracles, zeta\nimport stackzeta.verify\n\n"
        "def run(args):\n    import json\n    from fractions import Fraction\n    from .verify import x\n\n"
        "class Env:\n    from json import dumps\n\n    def of_int(self, n):\n        from fractions import Fraction\n"
    )
    (tmp_path / "verify.py").write_text("from .oracles import zeta_of_polynomial\nimport json\n")
    (tmp_path / "hodge.py").write_text(
        "import argparse\nfrom gettext import gettext\n\ndef build_parser():\n    import argparse\n"
    )
    assert slow_imports(tmp_path) == [
        "cli.py:6: decimal",
        "cli.py:8: stackzeta.verify",
        "cli.py:9: stackzeta.oracles",
        "cli.py:10: stackzeta.verify",
        "cli.py:18: json",
        "expr.py:1: dataclasses",
        "expr.py:2: inspect",
        "hodge.py:1: argparse",
        "hodge.py:2: gettext",
        "laurent.py:1: heapq",
        "zeta.py:1: dataclasses",
        "zeta.py:2: json",
    ]
