"""Every public top-level name in the library is used by the library, the
acceptance tests or the benchmark, or is listed here with its reason."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "semicat").glob("*.py"))
USERS = SRC + [ROOT / "tests" / "test_acceptance.py"] + sorted(
    (ROOT / "perfbench").rglob("*.py"))

# name -> why it stays in src/ with no user there
ALLOWED = {
    "skeleton_transport": "the paper's extension of a functor on the skeleton "
                          "to all free objects; tests/test_matcat.py checks it",
    "product_semiring": "builds the product carriers, such as zmod:2 x zmod:2, "
                        "that the automorphism and functor tests run on",
    "FreeLieModuleElement": "elements of the free modules over U(L) that the "
                            "paper's semi-inner automorphisms act on",
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


def test_public_library_names_are_used():
    used = set()
    for path in USERS:
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)  # a definition does not use itself
            used.update(name for name in _names(stmt) if name != own)
    unused = {
        node.name
        for path in SRC
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in used
    }
    assert not unused - set(ALLOWED), f"no user: {sorted(unused - set(ALLOWED))}"
    assert not set(ALLOWED) - unused, f"now used: {sorted(set(ALLOWED) - unused)}"
