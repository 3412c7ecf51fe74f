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


def test_only_matrices_reads_the_stored_form():
    # a Matrix is integers over one denominator; every other module goes
    # through its public methods, so that form can change in one place
    from chaincomm.matrices import Matrix

    private_slots = {name for name in Matrix.__slots__ if name.startswith("_")}
    assert private_slots
    package = pathlib.Path(chaincomm.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "matrices.py":
            continue
        found = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in private_slots:
                found.append(f"reads .{node.attr}")
            elif isinstance(node, ast.Constant) and node.value in private_slots:
                found.append(f"names {node.value!r}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "matrices":
                found += [f"imports {a.name}" for a in node.names if a.name.startswith("_")]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "matrices"
                and node.attr.startswith("_")
            ):
                found.append(f"reads matrices.{node.attr}")
        assert not found, f"{path.name} reaches into the matrix representation: {found}"


def test_linalg_does_no_scalar_arithmetic():
    # row reduction runs on the stored integers inside matrices; linalg only
    # slices, stacks and gathers the matrices it gets back
    attributes = {"entries", "entry", "row", "finite", "size", "neg", "zero", "one", "mul", "sub", "div", "invert"}
    path = pathlib.Path(chaincomm.__file__).parent / "linalg.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and node.id == "Fraction":
            found.append("names Fraction")
        elif isinstance(node, ast.Attribute) and node.attr in attributes | {"Fraction"}:
            found.append(f"reads .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in ("fields", "fractions"):
            found.append(f"imports from {node.module}")
        elif isinstance(node, ast.Import) and any(a.name.split(".")[-1] in ("fields", "fractions") for a in node.names):
            found.append("imports fields or fractions")
    assert not found, f"linalg.py does scalar arithmetic: {found}"
