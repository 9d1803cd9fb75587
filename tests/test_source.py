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
