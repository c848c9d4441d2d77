"""Package structure: the modules of rfid_doppler use each other's public names only."""

import ast
from pathlib import Path

import rfid_doppler

PACKAGE = Path(rfid_doppler.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_reads(path: Path) -> list[str]:
    """Each ``_``-prefixed name of another package module that ``path`` reads,
    as 'file:line: name': attribute access on a module imported with
    ``from . import x``, and ``from .x import _y``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "")
                                                 .startswith("rfid_doppler")):
            for alias in node.names:
                if node.module in (None, "rfid_doppler"):
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{path.name}:{node.lineno}: {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 1
    assert [read for path in paths for read in _private_reads(path)] == []
