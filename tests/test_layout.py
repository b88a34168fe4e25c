"""Layout audit: every module-level function and class in ``src/graphpan`` is
used by the package itself.

A def counts as used when something outside its own definition refers to
it: a bare name in the same module, a ``from .m import name`` in any module,
or ``alias.name`` where ``alias`` came from ``from . import m``.  Dunder
names are exempt.  Code that only the tests call belongs in
``tests/oracles.py`` or beside its test.  The package also must not load
``scipy.signal``: its filters come from ``scipy.ndimage``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "graphpan"


def unreferenced_defs(package: Path):
    """Sorted ``module.name`` of every module-level def or class in
    ``package`` that nothing outside its own definition refers to."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    imported = set()  # (module, name) pairs referenced across modules
    for tree in trees.values():
        aliases = {}  # local alias -> sibling module, from `from . import m`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        aliases[a.asname or a.name] = a.name
                    else:
                        imported.add((node.module, a.name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                imported.add((aliases[node.value.id], node.attr))

    found = []
    for module, tree in trees.items():
        for d in tree.body:
            if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            dunder = d.name.startswith("__") and d.name.endswith("__")
            if dunder or (module, d.name) in imported:
                continue
            own = {id(n) for n in ast.walk(d)}
            if not any(
                isinstance(n, ast.Name) and n.id == d.name and id(n) not in own
                for n in ast.walk(tree)
            ):
                found.append(f"{module}.{d.name}")
    return sorted(found)


def test_every_module_level_def_is_referenced():
    assert list(PACKAGE.glob("*.py")), f"no modules under {PACKAGE}"
    assert unreferenced_defs(PACKAGE) == []


def test_audit_counts_each_kind_of_reference(tmp_path):
    (tmp_path / "a.py").write_text(
        "def by_name():\n    pass\n\n"
        "def by_import():\n    pass\n\n"
        "def by_alias():\n    pass\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class Unused:\n    pass\n\n"
        "def __getattr__(name):\n    pass\n\n"
        "value = by_name()\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a as mod\nfrom .a import by_import\n\nmod.by_alias()\n"
    )
    assert unreferenced_defs(tmp_path) == ["a.Unused", "a.recursive"]


def test_cli_import_loads_no_scipy_signal():
    # graphpan filters with scipy.ndimage only; scipy.signal alone took about
    # 1 s of the package's import time
    probe = "import sys, graphpan.cli; print('scipy.signal' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
