"""The package holds only code that a CLI command can reach.

Every top-level function and class of ``src/clustersim``, and every
non-dunder method and property of those classes, must be referred to by
code that is itself kept.  A reference is a ``Name``, an ``Attribute`` or
an import alias with the same name, so the check is by name only and errs
towards keeping; docstrings and other strings never count.  Module-level
statements other than definitions are always kept, and so is the console
script ``cli.main``.  Names are removed to a fixed point: a definition
referred to only by removed definitions (or by itself) goes as well.
Test-only code belongs in ``tests/oracles.py`` or ``tests/sparse_oracle.py``.
"""

import ast
from pathlib import Path

import clustersim

#: Definitions kept without a reference: the console script.
ROOTS = {"cli.main"}


def _references(nodes) -> set[str]:
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.alias):
                names.add(sub.name.rsplit(".", 1)[-1])
    return names


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef))


def unreached_names(package: Path) -> list[str]:
    """Qualified names of the definitions no kept code refers to."""
    always = set()  # names referred to by module-level code
    defs = {}  # qualified name -> (bare name, names its code refers to)
    for path in sorted(package.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not _is_def(node):
                always |= _references([node])
                continue
            own = [node]
            if isinstance(node, ast.ClassDef):
                own = [*node.decorator_list, *node.bases, *node.keywords]
                for member in node.body:
                    name = getattr(member, "name", "__")
                    if _is_def(member) and not name.startswith("__"):
                        defs[f"{module}.{node.name}.{name}"] = (name, _references([member]))
                    else:
                        own.append(member)
            defs[f"{module}.{node.name}"] = (node.name, _references(own))
    kept = set(defs)
    while True:
        gone = {
            q for q in kept
            if q not in ROOTS
            and defs[q][0] not in always
            and not any(defs[q][0] in defs[k][1] for k in kept if k != q)
        }
        if not gone:
            return sorted(set(defs) - kept)
        kept -= gone


def test_every_definition_is_reached():
    assert unreached_names(Path(clustersim.__file__).parent) == []
