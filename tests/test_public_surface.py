"""Every public top-level function and class of src/rscam has a caller,
every defaulted setting a caller that sets it, and every public field a reader.

A name is reached when some other top-level statement of src/rscam (outside
__init__.py, which only re-exports) or some perfbench/*.py file refers to it:
by name, as an attribute or in an import, and in perfbench also as a string,
since its tracer looks its targets up by name.  A name that only the tests
reach belongs in the tests.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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
                 and node.name not in perfbench
                 and not any(node.name in names for _, other, names in statements
                             if other is not node)]
    assert not unreached, f"public names with no caller in src/ or perfbench/: {unreached}"


# Defaulted parameters and fields that no call sets, kept on purpose: a list
# that callers fill is not a setting.
SETTINGS_ALLOWED = {"plotsvg:Panel.series"}


def settings(module: str, tree: ast.Module):
    """(label, callee name, position or None, keyword, is a dataclass field) of
    every defaulted parameter of a public function or method and every
    defaulted init field of a public dataclass."""
    def parameters(label, callee, fn: ast.FunctionDef, skip: int):
        args = fn.args.posonlyargs + fn.args.args
        for i, (arg, default) in enumerate(zip(args, [None] * (len(args) - len(fn.args.defaults))
                                                      + fn.args.defaults)):
            if default is not None and i >= skip:
                yield f"{module}:{label}({arg.arg})", callee, i - skip, arg.arg, False
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield f"{module}:{label}({arg.arg})", callee, None, arg.arg, False

    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            yield from parameters(node.name, node.name, node, 0)
        elif isinstance(node, ast.ClassDef):
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                          and "init=False" not in ast.unparse(s.value or ast.Constant(0))]
                for i, s in enumerate(fields):
                    if s.value is not None:
                        yield f"{module}:{node.name}.{s.target.id}", node.name, i, s.target.id, True
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and (fn.name == "__init__"
                                                        or not fn.name.startswith("_")):
                    static = any(ast.unparse(d) == "staticmethod" for d in fn.decorator_list)
                    callee = node.name if fn.name == "__init__" else fn.name
                    yield from parameters(f"{node.name}.{fn.name}", callee, fn, 0 if static else 1)


def keywords(call: ast.Call) -> set[str] | None:
    """The keywords a call passes, also from ** of a dict display or of a dict
    comprehension over a tuple of names; None if they cannot be told."""
    names = set()
    for k in call.keywords:
        value = k.value
        if k.arg is not None:
            names.add(k.arg)
        elif isinstance(value, ast.Dict) and all(isinstance(key, ast.Constant)
                                                 for key in value.keys):
            names |= {key.value for key in value.keys}
        elif isinstance(value, ast.DictComp) and isinstance(value.generators[0].iter, ast.Tuple):
            names |= {e.value for e in value.generators[0].iter.elts}
        else:
            return None
    return names


def calls(tree: ast.AST):
    """(callee name, positional count, keywords) of every call; a starred
    argument may set any later position."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            yield name, math.inf if starred else len(node.args), keywords(node)


def test_every_setting_has_a_caller_that_sets_it():
    modules = [path for path in sorted((ROOT / "src" / "rscam").glob("*.py"))
               if path.name != "__init__.py"]
    trees = [ast.parse(path.read_text()) for path in modules + sorted(
        (ROOT / "perfbench").glob("*.py"))]
    found = [c for tree in trees for c in calls(tree)]

    def is_set(callee, position, keyword, field):
        """A call of callee sets it by position or keyword, or replace() sets the field."""
        return any((name == callee and ((position is not None and count > position)
                                        or keywords is None or keyword in keywords))
                   or (field and name == "replace" and (keywords is None or keyword in keywords))
                   for name, count, keywords in found)

    every = [(label, is_set(*where))
             for path, tree in zip(modules, trees)
             for label, *where in settings(path.stem, tree)]
    unset = [label for label, reached in every if not reached and label not in SETTINGS_ALLOWED]
    assert not unset, f"settings that no call in src/ or perfbench/ sets: {unset}"
    assert SETTINGS_ALLOWED <= {label for label, reached in every if not reached}


# Result fields that only the tests read, kept on purpose: bundle_adjust's cost
# trace, as the grid reports only the errors it ends at.  SfmSolution.poses,
# bundle_adjust's recovered cameras, is one too, but SfmProblem.poses is read.
FIELDS_ALLOWED = {"sfm:SfmSolution.cost_history"}


def members(module: str, tree: ast.Module):
    """(label, name) of every public field of a public dataclass and every
    public property of a public class."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        dataclass = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
        for s in node.body:
            if dataclass and isinstance(s, ast.AnnAssign):
                name = s.target.id
            elif isinstance(s, ast.FunctionDef) and any(
                    ast.unparse(d) == "property" for d in s.decorator_list):
                name = s.name
            else:
                continue
            if not name.startswith("_"):
                yield f"{module}:{node.name}.{name}", name


def test_every_public_field_is_read():
    """Some code in src/ or perfbench/*.py reads each public dataclass field and
    property, as an attribute or as a string (getattr).  The check goes by name,
    so a member that shares its name with one read elsewhere is not caught: a
    `framerate` field beside `ShutterParams.framerate`, or `SfmSolution.poses`
    beside `SfmProblem.poses`."""
    modules = [path for path in sorted((ROOT / "src" / "rscam").glob("*.py"))
               if path.name != "__init__.py"]
    trees = [ast.parse(path.read_text()) for path in modules]
    reads = set()
    perfbench = [ast.parse(path.read_text()) for path in (ROOT / "perfbench").glob("*.py")]
    for tree in trees + perfbench:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add(node.value)
    unread = {label for path, tree in zip(modules, trees)
              for label, name in members(path.stem, tree) if name not in reads}
    assert not unread - FIELDS_ALLOWED, \
        f"fields that no code in src/ or perfbench/ reads: {sorted(unread - FIELDS_ALLOWED)}"
    assert FIELDS_ALLOWED <= unread
