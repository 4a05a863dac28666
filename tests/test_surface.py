"""Every public name of the package has a caller in the program.

A name in the ``__all__`` of a ``conjscope`` module must be referenced
somewhere in ``src/`` or ``bench/`` outside its own definition: as a name, an
attribute, an import, or a string equal to it (the bench tracer patches
functions by name).  A reader that only tests call belongs in ``tests/``.  The
package ``__init__`` only re-exports, so it is neither checked nor counted as
a caller; ``catalog``'s closed forms are test oracles by design, so it is not
checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "conjscope"
EXEMPT = {"__init__", "catalog"}


def _public(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return node, ast.literal_eval(node.value)
    return None, []


def _definitions(tree, names):
    """The top-level statements of ``tree`` that define one of ``names``."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = {t.id for t in targets if isinstance(t, ast.Name)}
        else:
            continue
        if defined & set(names):
            out.append(node)
    return out


def _references(tree, skip):
    """Names, attributes, imported names and string constants in ``tree``,
    outside the subtrees in ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if any(node is s for s in skip):
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreferenced_public_names():
    """(module, name) of every public name that nothing in ``src/`` or
    ``bench/`` references outside its own definition."""
    # the re-exports of the package __init__ call nothing
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    sources += sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in EXEMPT:
            continue
        all_node, names = _public(trees[path])
        for name in names:
            skip = [all_node] + _definitions(trees[path], [name])
            used = any(name in _references(tree, skip if other == path else [])
                       for other, tree in trees.items())
            if not used:
                missing.append((path.stem, name))
    return missing


def test_every_public_name_has_a_caller_outside_tests():
    assert unreferenced_public_names() == []
