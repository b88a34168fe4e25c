"""Layout audit: every module-level function and class in ``src/graphpan``,
and every method and property of its classes, is used by the package or
its bench.

A def counts as used when something outside its own definition refers to
it: a bare name in the same module, a ``from .m import name`` in any module
but ``__init__.py``, or ``alias.name`` where ``alias`` came from ``from .
import m``.  A re-export in ``__init__.py`` does not count, so ``__all__``
cannot keep alive a function that no command calls.  A class
member counts as used when an attribute of its name is read in
``src/graphpan`` or ``perfbench`` outside its own definition and outside
every other unused member; a class exported in ``__all__`` gets no
exemption either.  Dunder names are exempt, and so are the members a
library calls by name.  Code that only the tests call belongs in
``tests/oracles.py`` or beside its test.  The package also must not load
``scipy.signal``, ``scipy.ndimage`` or ``scipy.special``: its filters are
numpy, and of scipy it uses ``scipy.sparse`` alone.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "graphpan"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# members that a library calls by name: argparse reports a bad flag through
# the parser's error()
CALLED_BY_LIBRARIES = {"cli._Parser.error"}


def unreferenced_defs(package: Path):
    """Sorted ``module.name`` of every module-level def or class in
    ``package`` that nothing outside its own definition refers to; the
    package's own re-exports in ``__init__.py`` are not references."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    imported = set()  # (module, name) pairs referenced across modules
    for module, tree in trees.items():
        aliases = {}  # local alias -> sibling module, from `from . import m`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        aliases[a.asname or a.name] = a.name
                    elif module != "__init__":
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


def unreferenced_members(package: Path, readers=(), exempt=frozenset()):
    """Sorted ``module.Class.member`` of every method or property of a
    module-level class in ``package`` whose name no attribute read in
    ``package`` or in the ``.py`` files under ``readers`` takes, outside its
    own definition and outside the other members found, so a member read
    only by unused ones is found too.  Dunders and the names in ``exempt``
    are skipped; a class in ``__all__`` is audited like any other."""
    paths = sorted(set(package.glob("*.py")) | {p for r in readers for p in Path(r).rglob("*.py")})
    trees = {p: ast.parse(p.read_text()) for p in paths}
    members = {}  # "module.Class.member" -> the ids of its definition's nodes
    for path in sorted(package.glob("*.py")):
        for c in trees[path].body:
            if not isinstance(c, ast.ClassDef):
                continue
            for d in c.body:
                if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = f"{path.stem}.{c.name}.{d.name}"
                dunder = d.name.startswith("__") and d.name.endswith("__")
                if not dunder and name not in exempt:
                    members[name] = {id(n) for n in ast.walk(d)}
    reads = [
        (n.attr, id(n)) for tree in trees.values() for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    ]
    found = set()
    while True:
        # reads inside a member already found do not count
        skip = set().union(*(members[m] for m in found))
        dead = {
            name for name, own in members.items()
            if not any(
                attr == name.rsplit(".", 1)[1] and i not in own and i not in skip
                for attr, i in reads
            )
        }
        if dead == found:
            return sorted(found)
        found = dead


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
    (tmp_path / "__init__.py").write_text(
        'from .a import Unused, by_name\n\n__all__ = ["Unused", "by_name"]\n'
    )
    assert unreferenced_defs(tmp_path) == ["a.Unused", "a.recursive"]


def test_every_class_member_is_read():
    assert unreferenced_members(PACKAGE, [PERFBENCH], CALLED_BY_LIBRARIES) == []


def test_member_audit_counts_each_kind_of_read(tmp_path):
    pkg, bench = tmp_path / "pkg", tmp_path / "bench"
    pkg.mkdir()
    bench.mkdir()
    (pkg / "__init__.py").write_text('__all__ = ["Exported"]\n')
    (pkg / "a.py").write_text(
        "class Exported:\n"
        "    def unused(self):\n        pass\n\n"
        "class Kept:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def read_here(self):\n        return self.helper()\n\n"
        "    def helper(self):\n        return 1\n\n"
        "    @property\n    def by_bench(self):\n        return 2\n\n"
        "    def dead(self):\n        return self.only_dead()\n\n"
        "    def only_dead(self):\n        return 3\n\n"
        "    def recursive(self):\n        return self.recursive()\n\n"
        "    def written(self):\n        pass\n\n"
        "    def library(self):\n        pass\n\n"
        "k = Kept()\nk.read_here()\nk.written = 1\n"
    )
    (bench / "b.py").write_text("def f(k):\n    return k.by_bench\n")
    assert unreferenced_members(pkg, [bench], {"a.Kept.library"}) == [
        "a.Exported.unused", "a.Kept.dead", "a.Kept.only_dead", "a.Kept.recursive", "a.Kept.written",
    ]
    assert "a.Kept.by_bench" in unreferenced_members(pkg)


@pytest.mark.parametrize("modules", [
    pytest.param("graphpan.cli", id="cli"),
    pytest.param("graphpan.aggregation, graphpan.metrics, graphpan.training", id="perfbench"),
])
def test_import_loads_no_scipy_filters(modules):
    # scipy.signal alone took about 1 s of the package's import time, and
    # scipy.ndimage with the scipy.special it loads about 120 ms and 7 MiB;
    # the second case is what perfbench/run.py imports
    heavy = ("scipy.signal", "scipy.ndimage", "scipy.special")
    probe = f"import sys, {modules}; print(sorted(m for m in sys.modules if m.startswith({heavy!r})))"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
