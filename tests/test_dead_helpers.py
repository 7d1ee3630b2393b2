"""Every top-level function and class of the package, and every non-dunder
method and property of its classes, has a use somewhere.

A use is an identifier outside the definition itself, in ``src/``,
``tests/``, ``demos/`` or ``perfbench/``: a name, an attribute, an imported
name, or a string equal to the name (as ``perfbench/tracer.py`` names the
functions it wraps).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "demos", "perfbench")


def _identifier(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _uses():
    """identifier -> [(path, line)] over every Python file searched."""
    uses = {}
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                name = _identifier(node)
                if name is not None:
                    uses.setdefault(name, []).append((path, node.lineno))
    return uses


def _definitions(path):
    """Top-level functions and classes of a module, and the non-dunder methods
    and properties of its classes."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def test_every_definition_is_used():
    uses = _uses()
    dead = []
    for path in sorted((ROOT / "src" / "skeinrep").glob("*.py")):
        for node in _definitions(path):
            own = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in own for p, line in uses.get(node.name, ())):
                dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert not dead, f"definitions with no use: {dead}"
