"""The package imports numpy and the standard library only."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crossdistil"


def test_package_imports_only_numpy_and_the_standard_library():
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name.partition(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.partition(".")[0]))
    assert ("training.py", "numpy") in imported
    assert {(f, m) for f, m in imported if m != "numpy" and m not in sys.stdlib_module_names} == set()
