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
