"""Every function, class and method in `src/fedsim` has a caller.

A definition counts as used when its name is referenced (as a name, an
attribute or an import) by code in `src/fedsim` outside its own body,
or when it is exported in `fedsim.__all__`. Dunder methods are exempt.
"""

import ast
from pathlib import Path

import fedsim

SRC = Path(__file__).resolve().parents[1] / "src" / "fedsim"

# Called by no module, but the IDX round-trip tests write their files with it.
ALLOWED = {"data.save_idx"}


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level def/class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _references(node: ast.AST, enclosing: tuple = ()):
    """(name, ids of the defs around it) for every name a node references."""
    if isinstance(node, ast.Name):
        yield node.id, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, enclosing
    elif isinstance(node, ast.alias):
        yield node.name, enclosing
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = (*enclosing, id(node))
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def unused_definitions(src: Path) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    refs = [ref for tree in trees.values() for ref in _references(tree)]
    unused = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in fedsim.__all__ or f"{module}.{qualname}" in ALLOWED:
                continue
            if not any(ref == name and id(node) not in around for ref, around in refs):
                unused.append(f"{module}.{qualname}")
    return unused


def test_every_definition_has_a_caller():
    assert unused_definitions(SRC) == []


def test_guard_flags_an_uncalled_helper(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "class Box:\n    def __init__(self):\n        self.value = used()\n\n"
        "    def dead(self):\n        return self.value\n\n\n"
        "BOX = Box()\n"
    )
    assert unused_definitions(tmp_path) == ["mod.recursive", "mod.Box.dead"]
