"""Every name vctkit defines at module level has a reader outside the tests.

A module-level function or class whose name has no leading underscore
counts as called when a module of the package (``__init__.py`` aside) or a
script under ``scripts/`` loads it by name, or reads it as an attribute of
a vctkit module (``trial.run_full_vct``).  Neither a re-export from
``__init__.py`` nor a use inside the definition itself counts.

A module-level variable, public or private, counts as read when a module of
the package or a script loads it the same way, its own module included.

A method or property of a module-level class whose name has no leading
underscore counts as read when a module of the package (``__init__.py``
aside) or a script reads an attribute of that name.

A parameter default of a function of the package counts as an option only
when some call in the package or a script passes that parameter, by keyword
or by position; a console entry point of pyproject.toml is exempt.
"""

import ast
import tomllib
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


def _program_paths() -> list[Path]:
    """The package's modules but ``__init__.py``, then the scripts."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return paths + sorted((ROOT / "scripts").glob("*.py"))


def _callers() -> set[str]:
    names = set()
    for path in _program_paths():
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


def test_every_public_method_is_read():
    read = {node.attr for path in _program_paths() for node in ast.walk(_parse(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.stem}.{cls.name}.{func.name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for cls in _parse(path).body if isinstance(cls, ast.ClassDef)
              for func in cls.body
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not func.name.startswith("_") and func.name not in read]
    assert not unread, (f"public methods and properties that nothing in src/vctkit or "
                        f"scripts/ reads: {unread}")


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


def _entry_points() -> set[str]:
    """``module.function`` of each console script in pyproject.toml."""
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    return {target.removeprefix("vctkit.").replace(":", ".")
            for target in scripts["project"]["scripts"].values()}


def _defaulted(func: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """(name, call position) of each parameter with a default; a bound
    ``self``/``cls`` takes no position, nor does a keyword-only parameter."""
    positional = func.args.posonlyargs + func.args.args
    offset = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(func.args.defaults)
    out = [(a.arg, i - offset) for i, a in enumerate(positional) if i >= first]
    return out + [(a.arg, None) for a, d in zip(func.args.kwonlyargs, func.args.kw_defaults)
                  if d is not None]


def _defaults() -> list[tuple[str, str, str, int | None]]:
    """(module.function, called name, parameter, position) of every defaulted
    parameter in src/vctkit, methods and nested functions included."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        # a constructor is called by its class's name
        init_of = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = init_of.get(id(func), func.name)
                out += [(f"{path.stem}.{func.name}", called, param, pos)
                        for param, pos in _defaulted(func)]
    return out


def _calls() -> dict[str, list[tuple[int, set[str], bool]]]:
    """Per called name, each call's (positional count, keywords, unpacks)."""
    calls: dict = {}
    for path in _program_paths():
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            unpacks = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, unpacks))
    return calls


def test_every_keyword_default_is_passed():
    # a default no caller overrides is a constant, not an option
    calls, exempt = _calls(), _entry_points()
    unpassed = [f"{where}.{param}" for where, called, param, pos in _defaults()
                if where not in exempt
                and not any(unpacks or param in keywords or (pos is not None and n > pos)
                            for n, keywords, unpacks in calls.get(called, ()))]
    assert not unpassed, (f"keyword defaults that no caller in src/vctkit or scripts/ "
                          f"passes: {unpassed}")
