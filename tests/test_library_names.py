"""Every public top-level name in the library (function, class or constant)
is used by the library, the acceptance tests or the benchmark, or is listed
here with its reason."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "semicat").glob("*.py"))
USERS = SRC + [ROOT / "tests" / "test_acceptance.py"] + sorted(
    (ROOT / "perfbench").rglob("*.py"))

# name -> why it stays in src/ with no user there
ALLOWED = {
    "product_semiring": "builds the product carriers, such as zmod:2 x zmod:2, "
                        "that the automorphism and functor tests run on",
}


def _names(tree):
    """Every identifier, attribute, imported name and whole string in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _defined(stmt):
    """The names a top-level statement defines: a function, a class or the
    plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def test_public_library_names_are_used():
    used = set()
    for path in USERS:
        for stmt in ast.parse(path.read_text()).body:
            own = _defined(stmt)  # a definition does not use itself
            used.update(name for name in _names(stmt) if name not in own)
    unused = {
        name
        for path in SRC
        for stmt in ast.parse(path.read_text()).body
        for name in _defined(stmt)
        if not name.startswith("_") and name not in used
    }
    assert not unused - set(ALLOWED), f"no user: {sorted(unused - set(ALLOWED))}"
    assert not set(ALLOWED) - unused, f"now used: {sorted(set(ALLOWED) - unused)}"
