"""Module boundaries of the package: no module imports a private
(underscore) name from a sibling module, every function the benchmark
tracer wraps still exists, every public `linalg` function has a caller,
one function calls `mpmath.polyroots`, and four read the monodromy
generators."""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "abelint"
TRACER = ROOT / "perfbench" / "tracer.py"


def private_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            sibling = node.level > 0 or (node.module or "").startswith("abelint")
            for alias in node.names:
                if sibling and alias.name.startswith("_"):
                    found.append(f"{path.name}: {alias.name} from {node.module}")
    return found


def test_no_private_imports_across_modules():
    assert private_imports() == []


def polyroots_references(tree) -> int:
    return sum(isinstance(node, ast.Attribute) and node.attr == "polyroots"
               or isinstance(node, ast.Name) and node.id == "polyroots"
               for node in ast.walk(tree))


def test_one_function_calls_polyroots():
    """Every root finding goes through `numerics.fiber_roots`, whose
    fallback is the package's only `polyroots` call."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if polyroots_references(tree):
            found[path.stem] = polyroots_references(tree)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and polyroots_references(func):
                found[f"{path.stem}.{func.name}"] = polyroots_references(func)
    assert found == {"numerics": 1, "numerics.fiber_roots": 1}


def attribute_readers(attr: str) -> set[str]:
    """module.function for each innermost function in src that reads
    `<expr>.<attr>`."""
    found = set()

    def visit(node, module, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif (isinstance(node, ast.Attribute) and node.attr == attr
              and isinstance(node.ctx, ast.Load)):
            found.add(f"{module}.{func}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, func)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, None)
    return found


def test_four_functions_read_the_generators():
    """The branch labels come from the base fiber and the loop around
    infinity alone, and the divisor lattice from exact decomposition: the
    petal-loop permutations are read only where they are printed, drawn or
    put into a group."""
    assert attribute_readers("generators") == {
        "monodromy.product_in_petal_order", "monodromy.is_full_symmetric",
        "cycles.build_constellation", "serialize.monodromy_to_json"}


def tracer_lists():
    """The tracer's module-level list constants, read without importing it."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    return {target.id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and isinstance(node.value, ast.List)}


def test_tracer_names_resolve():
    """The tracer looks up each (module, function) it wraps with getattr, so
    a renamed or deleted function would crash every traced benchmark run."""
    lists = tracer_lists()
    wrapped = lists["SPANNED"] + lists["COUNTED"]
    assert wrapped
    missing = [f"{module}.{name}" for _, module, name in wrapped
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
    for module in lists["ALL_MODULES"]:
        importlib.import_module(module)


def linalg_references() -> set[str]:
    """Names the modules in src other than `linalg` read as `linalg.<name>`
    or import from it."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "linalg":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "linalg"):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                found.update(alias.name for alias in node.names)
    return found


def test_every_linalg_function_has_a_caller():
    """One elimination API: a public `linalg` function that no other module
    calls and the tracer does not wrap is a dead wrapper."""
    linalg = importlib.import_module("abelint.linalg")
    public = {name for name, obj in vars(linalg).items()
              if inspect.isfunction(obj) and obj.__module__ == linalg.__name__
              and not name.startswith("_")}
    lists = tracer_lists()
    traced = {name for _, module, name in lists["SPANNED"] + lists["COUNTED"]
              if module == linalg.__name__}
    assert sorted(public - linalg_references() - traced) == []
