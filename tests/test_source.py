import ast
import sys
from pathlib import Path

import nashrand

SOURCES = sorted(Path(nashrand.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


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


def test_library_imports_only_at_module_level():
    # each module's dependencies stand at the top of its file: no import
    # or from inside a function or class body
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = sorted({
        f"{path.name}:{inner.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, scopes)
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    })
    assert found == []


def test_only_main_writes_the_cli_output():
    # each cmd_* returns its text and main alone writes it, to stdout or to
    # --out; whatever else cli.py prints is a diagnostic on stderr
    path = Path(nashrand.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(commands) == 8
    found = [
        f"{command.name}:{node.lineno}"
        for command in commands
        for node in ast.walk(command)
        if isinstance(node, ast.Name) and node.id == "_write"
        or isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout"
    ]
    found += [
        f"print:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "print"
        and not any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                    for kw in node.keywords)
    ]
    assert found == []


def test_only_the_cli_reads_the_environment():
    # configuration enters through the command line; library calls take
    # their limits as arguments, so their results depend on the payoffs only
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _reads_environment(node)
    ]
    assert found == []


def _reads_environment(node: ast.AST) -> bool:
    names = {"environ", "environb", "getenv", "getenvb"}
    if isinstance(node, ast.Attribute):
        return node.attr in names
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.ImportFrom):
        return any(alias.name in names for alias in node.names)
    return False


def _absolute_imports(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_every_public_name_has_a_caller_outside_the_tests():
    # A public function, class or method that only tests use belongs in
    # tests/conftest.py.  A caller is any AST name, attribute or import in a
    # library module, demo or benchmark file; a re-export in __init__ is not.
    modules = [path for path in SOURCES if path.name != "__init__.py"]
    demos = sorted(ROOT.glob("demos/*.py"))
    bench = sorted(ROOT.glob("perfbench/*.py"))
    assert demos and bench
    trees = {
        path: ast.parse(path.read_text(), str(path)) for path in modules + demos + bench
    }
    referenced = set().union(*map(_references, trees.values()))
    found = [
        f"{path.stem}.{name}"
        for path in modules
        for name in _public_definitions(trees[path])
        if name.rpartition(".")[2] not in referenced
    ]
    assert found == []


def _public_definitions(tree: ast.Module) -> list[str]:
    defined = (ast.FunctionDef, ast.ClassDef)
    names = []
    for node in tree.body:
        if isinstance(node, defined) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [
                    f"{node.name}.{sub.name}"
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                ]
    return names


def _references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def test_no_module_reads_another_modules_private_names():
    # A private name belongs to its module: no library module reads
    # ``module._name`` of another or imports ``_name`` from one.  Dunders
    # such as ``__version__`` are public by convention.
    modules = {path.stem for path in SOURCES}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if any(map(_is_private, _names_read_from_modules(node, modules)))
    ]
    assert found == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _names_read_from_modules(node: ast.AST, modules: set[str]) -> list[str]:
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return [node.attr] if node.value.id in modules else []
    if isinstance(node, ast.ImportFrom) and node.level:
        return [alias.name for alias in node.names]
    return []


def test_every_private_name_has_a_library_caller():
    # A private function, class, constant or method that no library code
    # reads is a dead helper, whatever tests, demos or benchmarks still
    # call it.  A read is a loaded name, an attribute or an import in any
    # module of the package; a definition or an assignment is not.
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    read = set().union(*map(_reads, trees.values()))
    found = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for name in _private_definitions(tree)
        if name.rpartition(".")[2] not in read
    ]
    assert found == []


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [
                    f"{node.name}.{sub.name}"
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    return [name for name in names if _is_private(name.rpartition(".")[2])]


def _reads(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names
