"""Source checks that need no linter: every name a coldwatch module
imports is used in it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "coldwatch"


def unused_imports(source: str) -> list[str]:
    """Imported names the module never reads; lines marked
    `# noqa: F401` are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_check_flags_only_unread_names():
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "from json import dumps, loads as read\n"
        "from . import energy as energy_mod\n"
        "print(read(''), energy_mod)\n"
    )
    assert unused_imports(source) == ["os (line 1)", "dumps (line 3)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
