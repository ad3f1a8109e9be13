"""Module boundaries of the package: no module imports a private
(underscore) name from a sibling module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "abelint"


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
