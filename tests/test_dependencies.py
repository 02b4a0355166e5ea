import ast
import sys
from pathlib import Path

import swapnet

DECLARED = {"numpy"}          # pyproject's [project] dependencies


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


SETTABLE_VALUES = 73


def _has_default(stmt) -> bool:
    """An annotated class field with a default or a default_factory."""
    if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
        return False
    value = stmt.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return True


def test_settable_value_count_is_pinned():
    # every defaulted parameter (keyword-only ones included) and every class
    # field with a default is a value a caller can set; a new one changes
    # this pin
    count = 0
    for path in sorted(Path(swapnet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef):
                count += sum(_has_default(stmt) for stmt in node.body)
    assert count == SETTABLE_VALUES
