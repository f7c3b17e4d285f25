"""Every public top-level function and class of src/rscam has a caller.

A name is reached when some other top-level statement of src/rscam (outside
__init__.py, which only re-exports) or some perfbench/*.py file refers to it:
by name, as an attribute or in an import, and in perfbench also as a string,
since its tracer looks its targets up by name.  A name that only the tests
reach belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# solve_scan_time is the documented scalar call of solve_scan_times, a batch of one.
ALLOWED = {"solve_scan_time"}


def references(tree: ast.AST, strings: bool = False) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_name_has_a_caller():
    perfbench = set().union(*(references(ast.parse(path.read_text()), strings=True)
                              for path in (ROOT / "perfbench").glob("*.py")))
    statements = [(path.name, node, references(node))
                  for path in sorted((ROOT / "src" / "rscam").glob("*.py"))
                  if path.name != "__init__.py"
                  for node in ast.parse(path.read_text()).body]
    unreached = [f"{module}:{node.name}" for module, node, _ in statements
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not node.name.startswith("_")
                 and node.name not in ALLOWED | perfbench
                 and not any(node.name in names for _, other, names in statements
                             if other is not node)]
    assert not unreached, f"public names with no caller in src/ or perfbench/: {unreached}"
