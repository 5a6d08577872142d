"""Every module of the engine uses every name it imports.

A name counts as used when it appears as a name anywhere in the module,
annotations included; ``__init__.py`` is left out because it imports to
re-export.  Only the standard library's ``ast`` is needed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coresolve"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


class TestUnusedImports:
    def test_detects_unused_names(self):
        source = (
            "from __future__ import annotations\n"
            "import os.path\n"
            "from typing import Optional, Sequence as Seq\n"
            "def f(x: Optional[int]) -> None:\n"
            "    return None\n"
        )
        assert unused_imports(source) == ["os (line 2)", "Seq (line 3)"]

    def test_src_modules_use_every_import(self):
        found = {
            path.name: unused
            for path in sorted(SRC.glob("*.py"))
            if path.name != "__init__.py"
            and (unused := unused_imports(path.read_text(encoding="utf-8")))
        }
        assert found == {}
