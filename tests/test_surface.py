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

Each pipeline function also has one call form: a parameter keeps a default
only if some call in the package leaves it out (see defaults_never_used),
and every parameter is read (see parameters_never_read).

Every ``raise`` statement in the package is reached by an input that the
CLI refuses: the rows of ``test_cli.REFUSALS``, run through ``cli.main``
under a line tracer, execute each one (see raise_sites and lines_run).
"""

import ast
import os
import sys
from pathlib import Path

import clustersim
from clustersim import cli
from test_cli import REFUSALS, assert_refused

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


def _defaulted(fn: ast.FunctionDef, is_method: bool) -> list[tuple[str, int | None]]:
    """(name, positional index or None if keyword-only) of the defaulted parameters."""
    a = fn.args
    positional = [*a.posonlyargs, *a.args][1 if is_method else 0:]
    first = len(positional) - len(a.defaults)
    out = [(p.arg, k) for k, p in enumerate(positional) if k >= first]
    out += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _leaves_out(call: ast.Call, name: str, index: int | None) -> bool:
    """Whether the call surely omits the parameter; a * or ** argument may pass it."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return False
    if index is not None and index < len(call.args):
        return False
    return all(kw.arg not in (name, None) for kw in call.keywords)


def defaults_never_used(package: Path) -> list[str]:
    """Defaulted parameters that every call of that name passes.

    A default that no caller relies on is a second copy of a value the
    caller already owns.  Calls are matched by the function's bare name,
    so a call of another function with the same name counts too, which
    errs towards keeping a default.  Dataclass fields are not parameters
    and so are exempt; the config sets them.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    calls: dict[str, list[ast.Call]] = {}  # by callee name, bare or attribute
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    out = []
    for module, tree in trees.items():
        methods = {
            id(member)
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for member in node.body if isinstance(member, ast.FunctionDef)
            and not any(getattr(d, "id", None) == "staticmethod" for d in member.decorator_list)
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for param, index in _defaulted(fn, id(fn) in methods):
                if not any(_leaves_out(c, param, index) for c in calls.get(fn.name, [])):
                    out.append(f"{module}.{fn.name}({param})")
    return sorted(out)


def test_every_default_is_used():
    assert defaults_never_used(Path(clustersim.__file__).parent) == []


def parameters_never_read(package: Path, exempt: set[str]) -> list[str]:
    """Parameters that their function's body never reads, by name.

    A parameter no body reads makes every caller supply a value that
    changes nothing.  A read is a loaded ``Name`` anywhere in the function,
    nested functions included, which errs towards keeping.  Functions whose
    bare name is in exempt are skipped.
    """
    out = []
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef) or fn.name in exempt:
                continue
            a = fn.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs]
            params += [p for p in (a.vararg, a.kwarg) if p is not None]
            read = {
                sub.id for sub in ast.walk(fn)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            out += [f"{path.stem}.{fn.name}({p.arg})" for p in params if p.arg not in read]
    return sorted(out)


def test_every_parameter_is_read():
    # the commands share the dispatch signature (setup, exact); some ignore exact
    commands = {fn.__name__ for fn in cli.COMMANDS.values()}
    assert parameters_never_read(Path(clustersim.__file__).parent, commands) == []


def raise_sites(package: Path) -> set[tuple[str, int]]:
    """(file name, line) of every ``raise`` statement in the package."""
    return {
        (path.name, node.lineno)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
    }


def lines_run(package: Path, run) -> set[tuple[str, int]]:
    """(file name, line) of every line of the package that run() executes.

    A sys.settrace tracer records `line` events in the package's own files
    and does not trace other frames; the previous trace function is restored
    afterwards.
    """
    root = str(package)
    seen = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if os.path.dirname(frame.f_code.co_filename) == root else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        run()
    finally:
        sys.settrace(previous)
    return {(Path(name).name, line) for name, line in seen}


def test_every_raise_is_reached_by_a_refused_input():
    package = Path(clustersim.__file__).parent
    rows = [row.values for group in REFUSALS.values() for row in group]

    def run_rows():
        for row in rows:
            assert_refused(*row)

    unreached = raise_sites(package) - lines_run(package, run_rows)
    assert [f"{name}:{line}" for name, line in sorted(unreached)] == []
