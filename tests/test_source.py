"""Source checks that need no linter: every name a coldwatch module
imports is used in it, every module it imports is in the standard
library, every function, class and method it defines is referenced from
the sources or the benchmark, and only the record codec and the file
frames import struct."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "coldwatch"

# Defined names nothing in src/ or bench/ refers to, each with its reason.
UNREFERENCED_ALLOWED = {
    "Ledger.verify_chain": "acceptance criterion 7 checks the live chain with it",
}


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


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules a source imports; relative
    imports are left out."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_import_check_reads_both_import_forms():
    source = "import struct as s\nfrom os.path import join\nfrom . import ledger\nfrom .model import x\n"
    assert imported_modules(source) == {"struct", "os"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_standard_library_is_imported(path):
    """The simulator runs with no third-party package and no network."""
    modules = imported_modules(path.read_text(encoding="utf-8"))
    assert sorted(modules - sys.stdlib_module_names) == []


def test_only_the_codec_and_the_frames_import_struct():
    """ledger.py owns the record codec and the ledger file frame, storage.py
    the CRC frame; every other module stores records through ledger.Layout."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    importers = [name for name, source in sources.items() if "struct" in imported_modules(source)]
    assert importers == ["ledger.py", "storage.py"]


def _referenced(node: ast.AST) -> tuple[Counter, Counter]:
    """Names read as bare variables, and names read as attributes, anywhere
    under `node`."""
    variables: Counter = Counter()
    attributes: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            variables[n.id] += 1
        elif isinstance(n, ast.Attribute):
            attributes[n.attr] += 1
    return variables, attributes


def _definitions(node: ast.AST, prefix: str = ""):
    """(qualified name, node, whether it is a class member) of each def."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child, isinstance(node, ast.ClassDef)
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def unreferenced_defs(defining: list[str], reading: list[str]) -> list[str]:
    """Qualified names of the functions, classes and methods defined in
    `defining` whose name no source in `defining` or `reading` mentions
    outside the definition itself. A method, property or nested class
    counts as mentioned only as an attribute (`x.name`), never as a bare
    variable of the same name. Dunder methods are called implicitly and
    are exempt."""
    trees = [ast.parse(source) for source in defining]
    variables: Counter = Counter()
    attributes: Counter = Counter()
    for tree in trees + [ast.parse(source) for source in reading]:
        v, a = _referenced(tree)
        variables += v
        attributes += a
    unused = []
    for tree in trees:
        for qualname, node, member in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            v, a = _referenced(node)
            mentions = attributes[name] - a[name]
            if not member:
                mentions += variables[name] - v[name]
            if mentions == 0:
                unused.append(qualname)
    return unused


def test_def_check_flags_only_unreferenced_defs():
    defining = (
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.items = []\n"
        "    def put(self, item):\n"
        "        self.items.append(item)\n"
        "    def planted(self):\n"
        "        return self.planted()\n"
        "    @property\n"
        "    def size(self):\n"
        "        return len(self.items)\n"
        "def helper():\n"
        "    return Box()\n"
    )
    # `size` is read only as a bare variable, never as `x.size`.
    reading = "size = 3\nhelper().put(size)\n"
    assert unreferenced_defs([defining], [reading]) == ["Box.planted", "Box.size"]


def test_every_definition_is_referenced():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    bench = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py"))]
    assert sorted(unreferenced_defs(sources, bench)) == sorted(UNREFERENCED_ALLOWED)
