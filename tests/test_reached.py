"""Every module-level name, method and property in the library is reached by
something that needs it.

A name counts as reached when one of these refers to it: library code outside
the name's own definition, ``perfbench/`` (which also looks names up by
string), ``tests/test_acceptance.py``, or ``edgeplace.__all__``. Other tests
do not count: a name that only tests reach is dead code with a test. Names
are matched by identifier alone, so the guard can miss an orphan that shares
its name with a reached one; it never reports a name that is referred to.
"""
import ast
from collections import Counter
from pathlib import Path

import edgeplace

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "edgeplace").glob("*.py"))
OUTSIDE = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree: ast.Module) -> dict[str, tuple[str, ast.stmt]]:
    """Each module-level name bound by a function, class or assignment, and
    each method or property of a module-level class (labelled
    ``Class.name``), as ``label: (name, statement)``."""
    out = {}
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            out[node.name] = (node.name, node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((n.id, (n.id, node)) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        if isinstance(node, ast.ClassDef):
            out.update((f"{node.name}.{m.name}", (m.name, m)) for m in node.body if isinstance(m, FUNCTIONS))
    return out


def references(node: ast.AST, strings: bool = False) -> Counter:
    """Identifiers that ``node`` reads, as names, attributes or imports, and
    with ``strings`` also as string constants."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            refs[n.attr] += 1
        elif isinstance(n, ast.alias):
            refs[n.name.rpartition(".")[2]] += 1
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            refs[n.value] += 1
    return refs


def unreached(library: dict[str, str], outside: list[str], exported) -> list[str]:
    """``<module>: <label>`` for each definition of the ``library`` sources
    (by module name) that neither other library code, the ``outside`` sources
    nor the ``exported`` names refer to."""
    trees = {module: ast.parse(source) for module, source in library.items()}
    inside = sum(map(references, trees.values()), Counter())
    elsewhere = sum((references(ast.parse(source), strings=True) for source in outside), Counter())
    found = []
    for module, tree in trees.items():
        for label, (name, node) in definitions(tree).items():
            own = references(node)[name]
            if not (name.startswith("__") or name in exported or elsewhere[name] or inside[name] > own):
                found.append(f"{module}: {label}")
    return found


def test_guard_finds_an_orphan():
    library = {
        "a.py": "LIMIT = 3\n\ndef used():\n    return helper()\n\ndef helper():\n    return 1\n",
        "b.py": "def orphan(n):\n    return orphan(n - 1) if n else 0\n\nclass Exported:\n    pass\n",
        "c.py": (
            "class Box:\n    def __init__(self):\n        self.n = self.size()\n\n"
            "    def size(self):\n        return 1\n\n"
            "    @property\n    def spare(self):\n        return self.spare\n\n"
            "    def orphan_method(self, n):\n        return self.orphan_method(n - 1) if n else 0\n"
        ),
    }
    outside = ["from a import used\nfrom c import Box\n"]
    assert unreached(library, outside, exported={"Exported"}) == [
        "a.py: LIMIT",
        "b.py: orphan",
        "c.py: Box.spare",
        "c.py: Box.orphan_method",
    ]


def test_every_library_name_is_reached():
    library = {p.name: p.read_text(encoding="utf-8") for p in LIBRARY}
    outside = [p.read_text(encoding="utf-8") for p in OUTSIDE]
    assert unreached(library, outside, set(edgeplace.__all__)) == []
