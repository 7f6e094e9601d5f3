"""Checks on the program source itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "trajadapt"


def _unused_imports(path: Path) -> list:
    """Names a module imports and never uses (``__future__`` imports aside)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path) == []


# The policy interface: a probe policy ignores the observation, the rng or both.
UNREAD_EXEMPT = {("act", "obs"), ("act", "rng")}


def _unread_parameters(path: Path) -> list:
    """Parameters (``self`` and ``cls`` aside) that their function's body
    never names, nested functions included."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        named = {node.id for stmt in func.body for node in ast.walk(stmt)
                 if isinstance(node, ast.Name)}
        unread += [f"{func.name}({name}) (line {func.lineno})" for name in params
                   if name not in named | {"self", "cls"}
                   and (func.name, name) not in UNREAD_EXEMPT]
    return unread


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread_parameters(path) == []


# Public names that only code outside ``src`` reaches: ``perfbench`` imports
# ``gimbal_chain``, criterion 8 covers ``mirror_trajectory``.
UNREACHED_EXEMPT = {"gimbal_chain", "mirror_trajectory", "__version__"}


def _unreached_public_names() -> list:
    """Module-level public functions, classes and assignments of ``src``
    that no ``src`` code names outside their own definition."""
    defined, named = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(path.name, name, node.lineno, node.end_lineno) for name in names
                        if not name.startswith("_") or name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                named.setdefault(name, []).append((path.name, node.lineno))
    return sorted(f"{module}: {name}" for module, name, first, last in defined
                  if name not in UNREACHED_EXEMPT
                  and all(m == module and first <= line <= last
                          for m, line in named.get(name, [])))


def test_every_public_name_is_reached_from_src():
    assert _unreached_public_names() == []
