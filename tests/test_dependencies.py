"""The package imports numpy and the standard library only, and uses every
name it imports."""

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


def bound_names(node):
    """The names a top-level ``import`` or ``from ... import`` binds."""
    for alias in node.names:
        yield alias.asname or (alias.name.partition(".")[0] if isinstance(node, ast.Import) else alias.name)


def test_every_imported_name_is_used_or_exported():
    """No linter runs on the package, so this catches an import that a change left behind."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                    for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                unused += [(path.name, name) for name in bound_names(node) if name not in used]
    assert unused == []
