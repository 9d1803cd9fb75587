import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flatcover"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check that vouches for an
    # answer must raise an exception instead.
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"


def _imported_names(tree: ast.AST) -> dict:
    """Name bound by each import statement in a module -> its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_package_has_no_unused_imports():
    # __init__.py imports to re-export the library surface, so it is exempt.
    modules = sorted(path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py")
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(PACKAGE)}:{line} {name}"
                   for name, line in _imported_names(tree).items() if name not in used]
    assert not unused, f"imported but never used: {unused}"
