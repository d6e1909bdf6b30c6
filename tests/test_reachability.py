"""Reachability guard: ``src/deqlab`` holds no code that nothing reaches.

Every public top-level function or class of the package must be referenced
outside its own definition: in ``src/deqlab``, in the acceptance suite or in
the benchmark harness (``deqbench/*.py``).  Unit tests do not count, so a
definition that only its own unit test calls is reported.  A reference from
inside a definition that is itself unreached does not count either, so a
result type that only a dead function builds is reported with it.  Names are
matched by spelling (a bare name, an attribute or an imported name).

No module but ``__init__`` may import a name it never uses.

Seed-stream labels are picked in one place: of the package's modules, only
``ensembles`` (which defines them) and ``experiments`` (which runs every
Monte-Carlo cell) may reference ``over_seeds`` or ``seed_for``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deqlab"
MODULES = sorted(PACKAGE.glob("*.py"))
READERS = [*MODULES, ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "deqbench").glob("*.py"))]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_used(node: ast.AST, skip: frozenset = frozenset()) -> Counter:
    """How often node references each name, not descending into skip."""
    used = Counter()
    stack = [node]
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return used


def unreached_definitions() -> list[str]:
    """``module.name`` of every public top-level definition nothing reaches."""
    trees = [_parse(path) for path in READERS]
    defs = {}  # id(node) -> (qualified name, bare name, names used inside)
    for path, tree in zip(READERS, trees):
        if path.parent == PACKAGE:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defs[id(node)] = (f"{path.stem}.{node.name}", node.name, _names_used(node))
    dead: frozenset = frozenset()
    while True:
        uses = sum((_names_used(tree, dead) for tree in trees), Counter())
        # a definition's references to itself do not reach it
        newly_dead = {
            key for key, (_, name, inside) in defs.items() if key not in dead and uses[name] <= inside[name]
        }
        if not newly_dead:
            break
        dead |= newly_dead
    return sorted(qualified for key, (qualified, name, _) in defs.items() if key in dead and not name.startswith("_"))


def unused_imports(path: Path) -> list[str]:
    tree = _parse(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used)


def test_every_public_definition_is_reached():
    assert unreached_definitions() == []


def test_no_unused_imports():
    found = [entry for path in MODULES if path.name != "__init__.py" for entry in unused_imports(path)]
    assert found == []


def test_only_experiments_picks_seed_labels():
    seeding = {"over_seeds", "seed_for"}
    found = {
        path.name: sorted(seeding & set(_names_used(_parse(path))))
        for path in MODULES
        if path.name not in ("ensembles.py", "experiments.py")
    }
    assert {name: names for name, names in found.items() if names} == {}
