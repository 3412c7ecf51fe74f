import ast
import pathlib

import chaincomm


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)  # a quoted annotation such as "Matrix"
    return used


def test_no_module_imports_a_name_it_never_uses():
    # no linter runs on this package, so a refactor that stops using an
    # imported name would otherwise leave the import behind; __init__
    # imports names to re-export them
    package = pathlib.Path(chaincomm.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unused = _imported_names(tree) - _used_names(tree)
        assert not unused, f"{path.name} imports {sorted(unused)} without using them"
