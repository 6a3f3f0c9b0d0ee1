import ast
import sys
from pathlib import Path

import nashrand

SOURCES = sorted(Path(nashrand.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no library check may be one
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_imports_only_the_standard_library():
    # the engine is standard-library-only; relative imports stay in-package
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        for name in _absolute_imports(node)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert found == []


def _absolute_imports(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []
