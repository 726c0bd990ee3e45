"""Every name vctkit defines at module level has a reader outside the tests.

A module-level function or class whose name has no leading underscore
counts as called when a module of the package (``__init__.py`` aside) or a
script under ``scripts/`` loads it by name, or reads it as an attribute of
a vctkit module (``trial.run_full_vct``).  Neither a re-export from
``__init__.py`` nor a use inside the definition itself counts.

A module-level variable, public or private, counts as read when a module of
the package or a script loads it the same way, its own module included.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vctkit"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _module_aliases(tree: ast.Module) -> set[str]:
    """Local names bound to vctkit modules: ``from . import trial``,
    ``from vctkit import trial``, ``import vctkit.trial as trial``."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "vctkit"):
            if node.module in (None, "vctkit"):
                aliases |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names
                        if a.asname and a.name.startswith("vctkit.")}
    return aliases


def _loaded(node: ast.AST, aliases: set[str]) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in aliases):
            names.add(sub.attr)
    return names


def _callers() -> set[str]:
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "scripts").glob("*.py"))
    names = set()
    for path in paths:
        tree = _parse(path)
        aliases = _module_aliases(tree)
        for stmt in tree.body:
            found = _loaded(stmt, aliases)
            if isinstance(stmt, DEFINITIONS):
                found.discard(stmt.name)
            names |= found
    return names


def test_every_public_name_has_a_caller():
    callers = _callers()
    uncalled = [f"{path.stem}.{stmt.name}"
                for path in sorted(PACKAGE.glob("*.py"))
                for stmt in _parse(path).body
                if isinstance(stmt, DEFINITIONS) and not stmt.name.startswith("_")
                and stmt.name not in callers]
    assert not uncalled, (f"public names that nothing in src/vctkit or scripts/ "
                          f"calls: {uncalled}")


def _assigned(stmt: ast.stmt) -> list[str]:
    """Names a module-level assignment binds (tuple targets unpacked)."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def test_every_module_variable_is_read():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    read = set()
    for path in paths:
        tree = _parse(path)
        read |= _loaded(tree, _module_aliases(tree))
    unread = [f"{path.stem}.{name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for stmt in _parse(path).body
              for name in _assigned(stmt)
              if not (name.startswith("__") and name.endswith("__")) and name not in read]
    assert not unread, (f"module-level names that nothing in src/vctkit or scripts/ "
                        f"reads: {unread}")
