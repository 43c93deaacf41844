"""The public API of hcntk is what the program itself uses.

Every public top-level function and class in ``src/hcntk`` needs a
reference (a name, an attribute or an import) in ``src/``, ``perfbench/``
or ``benchmarks/`` other than its own definition; a name that only the
tests call is API the tests alone keep alive.
"""

import ast
from pathlib import Path

from hcntk import boundary

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hcntk"
CALLER_DIRS = (ROOT / "src", ROOT / "perfbench", ROOT / "benchmarks")

# Public names kept without a caller outside the tests, each with its reason.
ALLOWED = {
    "net.load_params": "the only reader of the *_params.bin format that train.write_record writes",
}


def _public_definitions():
    """(module, path, node) of every public top-level function and class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.stem, path, node


def _references():
    """name -> [(path, line)] of every name, attribute and import under the caller dirs."""
    refs = {}
    for top in CALLER_DIRS:
        for path in sorted(top.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.rsplit(".", 1)[-1]
                else:
                    continue
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_every_public_name_has_a_caller_outside_tests():
    refs = _references()
    unused = []
    for module, path, node in _public_definitions():
        outside = [(p, line) for p, line in refs.get(node.name, [])
                   if not (p == path and node.lineno <= line <= node.end_lineno)]
        if not outside and f"{module}.{node.name}" not in ALLOWED:
            unused.append(f"{module}.{node.name}")
    assert unused == [], f"public API with no caller outside the tests: {unused}"


def test_allowed_names_exist():
    defined = {f"{module}.{node.name}" for module, _, node in _public_definitions()}
    assert set(ALLOWED) <= defined


def test_boundary_tests_cover_every_family():
    # test_boundary.py runs its value and derivative checks over ALL_FAMILIES
    tree = ast.parse((ROOT / "tests" / "test_boundary.py").read_text())
    (families,) = [ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign) and node.targets[0].id == "ALL_FAMILIES"]
    assert {family for family, _ in families} == set(boundary.FAMILIES)
