import ast
import sys
from pathlib import Path

import swapnet

DECLARED = {"numpy", "jsonschema"}          # pyproject's [project] dependencies


def test_package_imports_only_declared_dependencies():
    # every absolute import in the package is the standard library, swapnet
    # itself or a declared dependency
    found = {}
    for path in sorted(Path(swapnet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(path.name)
    allowed = set(sys.stdlib_module_names) | DECLARED | {"swapnet"}
    assert "numpy" in found
    assert {name: files for name, files in found.items() if name not in allowed} == {}
