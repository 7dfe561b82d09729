"""Import rules that keep the package layered, read from the source with ast.

The corpus format (``io``) sits below the corpus pipeline (``estimate``),
the experiment runner and the command line, and no juryselect module
imports another one's ``_``-prefixed names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "juryselect"
MODULES = sorted(PACKAGE.glob("*.py"))


def imports(path: Path):
    """(module, name) per name ``path`` imports from a juryselect module;
    name is None where the module itself is imported."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module
            elif node.module and node.module.split(".")[0] == "juryselect":
                base = node.module.partition(".")[2]
            else:
                continue
            for alias in node.names:
                yield (base.split(".")[0], alias.name) if base else (alias.name, None)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "juryselect" and len(parts) > 1:
                    yield parts[1], None


def test_io_imports_nothing_above_it():
    above = {module for module, _ in imports(PACKAGE / "io.py")} & {"estimate", "experiments", "cli"}
    assert above == set()


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_private_name_crosses_modules(path):
    crossing = [
        f"{module}.{name}"
        for module, name in imports(path)
        if module != path.stem and name and name.startswith("_")
    ]
    assert crossing == []
