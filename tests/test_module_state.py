"""No module of src/heavylab keeps a hand-rolled table as a module global.

A table built once and kept is a ``functools`` cache on the function that
builds it (``cache`` or ``lru_cache``), in the module that owns it: its key
is the function's arguments, its bound is ``maxsize`` and ``cache_clear``
empties it.  A module-level name bound to an empty ``{}``, ``[]``,
``set()``, ``dict()`` or ``list()`` is the start of a hand-rolled one, so
this guard fails on it.  It reads plain and annotated assignments at module
level, inside module-level ``if``, ``try`` and ``with`` blocks too.

The guard does not see everything.  It misses a table that starts
non-empty, one made by another constructor (``defaultdict()``,
``OrderedDict()``, ``WeakValueDictionary()``), one bound inside a tuple
target (``a, b = {}, []``), one kept on a class or an instance, one kept in
a closure or a mutable default argument, and one a function makes with
``global``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "heavylab"
_EMPTY_CALLS = {"dict", "list", "set"}


def _is_empty_container(node) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _EMPTY_CALLS
        and not node.args
        and not node.keywords
    )


def _module_statements(body):
    """Statements run at module level, into if/try/with blocks but not into defs or classes."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, ast.If):
            yield from _module_statements(stmt.body + stmt.orelse)
        elif isinstance(stmt, ast.Try):
            handlers = [s for h in stmt.handlers for s in h.body]
            yield from _module_statements(stmt.body + handlers + stmt.orelse + stmt.finalbody)
        elif isinstance(stmt, ast.With):
            yield from _module_statements(stmt.body)


def _empty_globals(tree):
    for stmt in _module_statements(tree.body):
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        if _is_empty_container(stmt.value):
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, stmt.lineno


def test_guard_sees_empty_globals():
    source = (
        "A: dict[int, int] = {}\nB = []\nC = set()\nD = dict()\n"
        "if True:\n    E = list()\n"
        "F = {1: 2}\nG = [0]\ndef f():\n    H = {}\nclass K:\n    I = {}\n"
    )
    assert [name for name, _ in _empty_globals(ast.parse(source))] == ["A", "B", "C", "D", "E"]


def test_no_module_global_starts_empty():
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for name, line in _empty_globals(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == [], "module-level tables; make them functools caches: " + ", ".join(found)
