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
that visits only nonzero terms, and through ``laurent.binomial_quotient``,
the dense binomial kernel that builds Phi_d and every product of Phi_d,
which divides only the products of binomials L^n - 1 it multiplies out
itself: no library module reaches a private
division helper such as ``_div_binomial``, and ``DenomForm`` keeps no
``lcm`` or ``complement_in`` merge of denominator shapes, since sums are
taken over cyclotomic exponents.

Every public method and property of a class has a caller in the library or
the benchmark, so a member the design no longer needs is deleted rather
than kept alive by its own tests.  The exceptions are the entry points in
``PUBLIC_ENTRY_POINTS``, which users call.

Only ``_frozen.py`` defines ``__setattr__``, ``__delattr__`` or
``__reduce__``, and every class with a non-empty ``__slots__`` derives from
its ``Frozen``, so immutability, copying and pickling have one owner.

Importing the package and its CLI loads only what every call needs: every
CLI call is a fresh process, so each module it loads is paid for on every
call.  ``dataclasses`` and ``inspect`` cost about two thirds of the import
and are not used at all.  ``fractions`` (with ``decimal``) and ``json`` are
imported by the functions that compute on Fractions or write JSON, and
``oracles`` and ``verify`` by the ``verify`` command and on first access to
their exports in the package namespace.  The checks of the paper's claims,
the power-structure axiom suite and the two non-effectiveness
reproductions, are defined in ``verify`` alone, so the engine modules
``power`` and ``hodge`` do not build them at import.  ``heapq`` loads a C extension,
about 0.6 ms on first use, so the cyclotomic quotient does without it.
``argparse``, which loads ``gettext``, is imported only for the CLI's help
and usage errors: a well-formed argv is read from the command table.

Every cache outside the CLI takes one bound, ``laurent.CACHE_SIZE``, so a
long-running process keeps at most that many entries per cache, and the
bound is set in one place.

What the two polynomial types share is written once, in the term-map
kernel ``multipoly._TermPoly``: no type redefines a kernel member, and the
only members both types define are the kernel's hooks and those whose body
depends on the key, such as the product loop.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
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


#: All that laurent.py takes from multipoly: the term-map kernel and the int
#: types it checks degrees against.  The Hodge-Deligne image in MultiPoly is
#: built by the class layer.
LAURENT_FROM_MULTIPOLY = {"_INT", "_TermPoly"}


def names_from_multipoly(path: Path) -> set[str]:
    """The names a module imports from ``multipoly``; importing the module
    itself, in any spelling, counts as the name "multipoly"."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "multipoly":
                found.update(alias.name for alias in node.names)
            else:
                found.update(alias.name for alias in node.names if alias.name == "multipoly")
        elif isinstance(node, ast.Import):
            found.update("multipoly" for alias in node.names if alias.name.split(".")[-1] == "multipoly")
    return found


def test_laurent_takes_only_the_kernel_from_multipoly():
    assert names_from_multipoly(Path(stackzeta.__file__).parent / "laurent.py") == LAURENT_FROM_MULTIPOLY


def test_the_scan_sees_names_from_multipoly(tmp_path):
    path = tmp_path / "laurent.py"
    path.write_text(
        "from .multipoly import _INT, MultiPoly, _TermPoly\nfrom . import errors, multipoly\n"
        "import stackzeta.multipoly\nfrom .motivic import MultiPolyView\n"
    )
    assert names_from_multipoly(path) == {"_INT", "MultiPoly", "_TermPoly", "multipoly"}


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


#: The caching decorators of ``functools``.
CACHE_DECORATORS = {"lru_cache", "cache"}
#: The CLI keeps its parser and command table, one entry each, unbounded.
CACHE_EXEMPT = {"cli.py"}


def unbounded_caches(src: Path) -> list[str]:
    """Uses of ``lru_cache`` or ``cache`` outside cli.py, called or bare, in
    any spelling, that do not take ``maxsize=CACHE_SIZE``."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name in CACHE_EXEMPT:
            continue
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        called = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
        for node in nodes:
            if isinstance(node, ast.Call) and _base_name(node.func) in CACHE_DECORATORS:
                bound = [k.value for k in node.keywords if k.arg == "maxsize"]
                if not bound or _base_name(bound[0]) != "CACHE_SIZE":
                    found.append(f"{path.name}:{node.lineno}: {_base_name(node.func)}")
            elif isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in called:
                if _base_name(node) in CACHE_DECORATORS:
                    found.append(f"{path.name}:{node.lineno}: {_base_name(node)}")
    return found


def test_every_cache_takes_the_one_bound():
    assert unbounded_caches(Path(stackzeta.__file__).parent) == []


def test_the_scan_sees_unbounded_caches(tmp_path):
    (tmp_path / "laurent.py").write_text(
        "import functools\nfrom functools import cache, lru_cache\n\nCACHE_SIZE = 1024\n\n"
        "@lru_cache(maxsize=CACHE_SIZE)\ndef a(x):\n    pass\n\n"
        "@lru_cache(maxsize=4096)\ndef b(x):\n    pass\n\n"
        "@lru_cache\ndef c(x):\n    pass\n\n"
        "@functools.lru_cache(CACHE_SIZE)\ndef d(x):\n    pass\n\n"
        "@cache\ndef e(x):\n    pass\n\n"
        "f = functools.lru_cache(maxsize=None)(len)\n"
    )
    (tmp_path / "motivic.py").write_text(
        "from functools import lru_cache\nfrom . import laurent\n\n"
        "@lru_cache(maxsize=laurent.CACHE_SIZE)\ndef g(x):\n    pass\n"
    )
    (tmp_path / "cli.py").write_text("from functools import lru_cache\n\n@lru_cache(maxsize=None)\ndef h():\n    pass\n")
    assert unbounded_caches(tmp_path) == [
        "laurent.py:10: lru_cache",
        "laurent.py:14: lru_cache",
        "laurent.py:18: lru_cache",
        "laurent.py:22: cache",
        "laurent.py:26: lru_cache",
    ]


#: What each polynomial type writes for itself: the kernel's hooks, the slot
#: declarations, and the members whose body depends on the key or on the
#: type's constructor.  The product loop is the key arithmetic (ROADMAP item 12).
PER_TYPE_MEMBERS = {
    "_coerce", "_new", "_monomial", "_unit", "_stretch", "__slots__", "_fields",
    "__init__", "_raw", "zero", "one", "coefficient", "items", "__mul__", "__rmul__", "__repr__",
}


def _class_members(node: ast.ClassDef) -> dict[str, int]:
    """The names a class body binds, by def or by assignment, with their lines."""
    members = {}
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members[stmt.name] = stmt.lineno
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            members.update((t.id, stmt.lineno) for t in targets if isinstance(t, ast.Name))
    return members


def kernel_redefinitions(src: Path) -> list[str]:
    """Members of a class deriving from ``_TermPoly``, in any spelling of the
    base, that the kernel defines or that another such class defines too,
    other than PER_TYPE_MEMBERS."""
    classes = [
        (path.name, node)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
    ]
    kernel = {name for _, node in classes if node.name == "_TermPoly" for name in _class_members(node)}
    types = [(module, node, _class_members(node)) for module, node in classes if "_TermPoly" in map(_base_name, node.bases)]
    defined = Counter(name for _, _, members in types for name in members)
    return sorted(
        f"{module}:{line}: {node.name}.{name}"
        for module, node, members in types
        for name, line in members.items()
        if name not in PER_TYPE_MEMBERS and (name in kernel or defined[name] > 1)
    )


def test_the_kernel_is_written_once():
    assert kernel_redefinitions(Path(stackzeta.__file__).parent) == []


def test_the_scan_sees_kernel_redefinitions(tmp_path):
    (tmp_path / "multipoly.py").write_text(
        "class _TermPoly:\n    __slots__ = _fields = ('_terms',)\n\n"
        "    def adams(self, r):\n        pass\n\n    def __add__(self, other):\n        pass\n\n"
        "    __radd__ = __add__\n\n\n"
        "class MultiPoly(_TermPoly):\n    __slots__ = ('_nvars',)\n    _fields = ('_nvars', '_terms')\n\n"
        "    def adams(self, r):\n        pass\n\n    def as_int(self):\n        pass\n\n"
        "    def __mul__(self, other):\n        pass\n\n    def to_json(self):\n        pass\n"
    )
    (tmp_path / "laurent.py").write_text(
        "from . import multipoly\n\n\nclass IntLaurent(multipoly._TermPoly):\n    __slots__ = ()\n"
        "    __radd__: object = None\n\n    def as_int(self):\n        pass\n\n"
        "    def __mul__(self, other):\n        pass\n\n    def shift(self, k):\n        pass\n\n\n"
        "class Other:\n    def adams(self, r):\n        pass\n\n    def as_int(self):\n        pass\n"
    )
    assert kernel_redefinitions(tmp_path) == [
        "laurent.py:6: IntLaurent.__radd__",
        "laurent.py:8: IntLaurent.as_int",
        "multipoly.py:17: MultiPoly.adams",
        "multipoly.py:20: MultiPoly.as_int",
    ]


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


#: The package exports that only verification uses: ``verify`` defines them,
#: and the package resolves them on first access.
VERIFICATION_EXPORTS = (
    "AxiomReport", "AxiomSample", "CounterexampleReport", "axiom_suite",
    "curve_opposite_counterexample", "stack_power_counterexample",
)


def test_verification_lives_only_in_verify():
    src = Path(stackzeta.__file__).parent
    code = (
        "import sys, stackzeta, stackzeta.cli\n"
        f"names = {VERIFICATION_EXPORTS!r}\n"
        "engine = [sys.modules['stackzeta.power'], stackzeta.hodge]\n"
        "print([n for n in names if n in vars(stackzeta)], 'stackzeta.verify' in sys.modules)\n"
        "print([f'{m.__name__}.{n}' for m in engine for n in names if n in vars(m)])\n"
        "from stackzeta import axiom_suite\n"
        "print(axiom_suite.__module__, 'stackzeta.verify' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src.parent)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "[] False\n[]\nstackzeta.verify True\n"


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


#: Public members that need no caller in the library or the benchmark.
PUBLIC_ENTRY_POINTS = {
    # reading JSON back is documented in the README ("JSON forms"); the CLI only writes it
    "from_json",
    # the one public view of the stored cyclotomic form; the tests' independent
    # check that classes are reduced reads it
    "structural_key",
}


def uncalled_members(src: Path, bench: Path) -> list[str]:
    """Public methods and properties defined in a class body in ``src`` that no
    attribute of that name in ``src/*.py`` or ``bench/*.py`` reaches, outside
    the member's own definition; PUBLIC_ENTRY_POINTS are exempt."""
    library = sorted(src.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in library + sorted(bench.glob("*.py"))}
    uses = [
        (path, node.lineno, node.attr)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    ]
    found = []
    for path in library:
        for cls in ast.walk(trees[path]):
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if (
                    not isinstance(member, ast.FunctionDef)
                    or member.name.startswith("_")
                    or member.name in PUBLIC_ENTRY_POINTS
                ):
                    continue
                called = any(
                    attr == member.name and not (where == path and member.lineno <= line <= member.end_lineno)
                    for where, line, attr in uses
                )
                if not called:
                    found.append(f"{path.name}:{member.lineno}: {cls.name}.{member.name}")
    return found


def test_every_public_method_has_a_caller():
    src = Path(stackzeta.__file__).parent
    assert uncalled_members(src, Path(__file__).parent.parent / "bench") == []


def test_the_scan_sees_uncalled_members(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "laurent.py").write_text(
        "class IntLaurent:\n"
        "    def divexact(self, other):\n        return self.divexact(other)\n\n"
        "    @property\n    def weight(self):\n        return 0\n\n"
        "    def items(self):\n        return self.weight\n\n"
        "    @classmethod\n    def from_json(cls, data):\n        pass\n\n"
        "    def _private(self):\n        pass\n\n"
        "    def __str__(self):\n        pass\n\n"
        "    def traced(self):\n        pass\n\n\n"
        "def module_level(p):\n    return p\n"
    )
    (src / "motivic.py").write_text("class DenomForm:\n    def expand(self):\n        pass\n")
    (bench / "tracer.py").write_text("def hook(a):\n    return a.traced()\n")
    (bench / "tests").mkdir()
    (bench / "tests" / "test_tracer.py").write_text("def test(p):\n    p.expand(), p.items()\n")
    assert uncalled_members(src, bench) == [
        "laurent.py:2: IntLaurent.divexact",
        "laurent.py:9: IntLaurent.items",
        "motivic.py:2: DenomForm.expand",
    ]
