"""The package exports no name that only its tests call.

A public top-level function or class of a module under ``src/imbloss``,
or a public method of such a class, needs a caller: its name as code (an
``ast.Name``, an ``ast.Attribute``'s attr or an import alias) outside its
own definition, in the package (its ``__init__.py`` exports do not
count), ``demos/``, ``tools/`` or ``perfbench/``. Docstrings and comments
do not count, and neither do the tests.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "imbloss"
# load_checkpoint reads back the model.json that `imbloss train` writes:
# the reading half of the checkpoint format, which no command needs.
ALLOWED = {"load_checkpoint"}


def _sources():
    modules = [p for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"]
    others = [p for folder in ("demos", "tools", "perfbench")
              for p in sorted((ROOT / folder).rglob("*.py"))]
    return modules, others


def _references(tree) -> Counter:
    """How often each name occurs as code in ``tree``."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
    return names


def _definitions(tree):
    """(qualified name, node) of each public top-level function or class
    and each public method of such a class."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_caller():
    modules, others = _sources()
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in modules + others}
    total = sum((_references(t) for t in trees.values()), Counter())
    unused = []
    for path in modules:
        for qualname, node in _definitions(trees[path]):
            name = node.name
            if name in ALLOWED:
                continue
            if total[name] - _references(node)[name] <= 0:
                unused.append(f"{path.stem}.{qualname}")
    assert unused == []
