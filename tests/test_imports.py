"""Every name a module imports is used in that module.

Library modules, tests and demos are scanned. `__init__.py` is left
out: its imports are the package's exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/causalweft/*.py", "tests/*.py", "demos/*.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_scan_sees_an_unused_import():
    src = "from typing import Any, Iterable\nimport os.path\nx: Any = 1\n"
    assert unused_imports(src) == ["Iterable (line 1)", "os (line 2)"]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(
        p for pattern in SCANNED for p in ROOT.glob(pattern) if p.name != "__init__.py"
    )
    assert {p.parent.name for p in modules} == {"causalweft", "tests", "demos"}
    found = {
        str(p.relative_to(ROOT)): unused
        for p in modules
        if (unused := unused_imports(p.read_text(encoding="utf-8")))
    }
    assert found == {}
