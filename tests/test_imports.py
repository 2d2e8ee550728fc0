"""Import hygiene: no carnotlab module imports another module's private
(underscore-prefixed) names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "carnotlab"

def _private_imports():
    """(file, module imported from, name) of every private name one
    carnotlab module imports from another by `from ... import`."""
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        package = ["carnotlab", *rel.parent.parts]
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            if module.split(".")[0] != "carnotlab":
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    yield rel.as_posix(), module, alias.name


def test_no_private_names_imported_across_modules():
    assert set(_private_imports()) == set()
