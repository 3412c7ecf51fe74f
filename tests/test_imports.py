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


def test_witnesses_build_no_kronecker_system():
    # separation is read off spectra and characteristic polynomials, and the
    # theorem-2 Sylvester equations are solved in closed form; sylvester_solve
    # stays only for the exhaustive small-field factorization
    path = pathlib.Path(chaincomm.__file__).parent / "witnesses.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not _imported_names(tree) & {"kron", "sylvester_operator"}
    calls = [
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sylvester_solve"
    ]
    assert len(calls) == 1


def _swapped_product_differences(tree: ast.Module) -> list[int]:
    """Line numbers of expressions ``x * y - y * x``."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Sub)
            and all(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult) for side in (node.left, node.right))
            and ast.dump(node.left.left) == ast.dump(node.right.right)
            and ast.dump(node.left.right) == ast.dump(node.right.left)
        ):
            found.append(node.lineno)
    return found


def test_witnesses_check_no_commutator_identity():
    # each builder checks its factorizations once, through verify_witness;
    # the builders do not multiply a pair back to compare it
    assert _swapped_product_differences(ast.parse("m = f.p * f.q - f.q * f.p")) == [1]
    assert _swapped_product_differences(ast.parse("m = a * b - a * b\nn = a * b - c * a")) == []
    path = pathlib.Path(chaincomm.__file__).parent / "witnesses.py"
    lines = _swapped_product_differences(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"witnesses.py forms x * y - y * x at lines {lines}"


def _functions_spelling(tree: ast.Module, words: set[str]) -> set[str]:
    """Names of the top-level definitions (``<module>`` for other statements)
    that hold a string constant among ``words``."""
    found = set()
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and node.value in words:
                found.add(name)
    return found


def test_only_the_walk_and_the_writer_spell_the_witness_maps():
    # parse_document's walk is the one reading of the witness schema, so the
    # schema cannot be forked into a second reader that drifts from it
    keys = {"pairs", "homotopy", "alpha", "beta"}
    sample = 'def f(raw):\n    return raw["alpha"]\n\n\ndef g():\n    """the pairs"""\n\n\nKEYS = ("homotopy",)'
    assert _functions_spelling(ast.parse(sample), keys) == {"f", "<module>"}
    path = pathlib.Path(chaincomm.__file__).parent / "jsonio.py"
    spelled = _functions_spelling(ast.parse(path.read_text(encoding="utf-8")), keys)
    allowed = {"_parse_witness", "encode_witness", "_encode_residual"}
    assert spelled <= allowed, f"jsonio.py spells witness keys in {sorted(spelled - allowed)}"


def test_verify_reads_no_stored_integers():
    # a failing identity's two values come from matrices.sum_entry, so the
    # verifier evaluates no sum of products itself
    path = pathlib.Path(chaincomm.__file__).parent / "verify.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    assert not {"numerators", "denominator"} & set(found)
    assert not _imported_names(tree) & {"Fraction", "mul"}
