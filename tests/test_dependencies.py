"""The dependencies `pyproject.toml` declares are the ones the package imports."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def third_party_imports(package_dir: Path) -> set[str]:
    """Top-level names of the absolute imports in `package_dir`'s modules that
    are neither standard library nor the package itself."""
    names = set()
    for path in package_dir.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {package_dir.name}


def test_declared_dependencies_match_the_imports():
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    # every dependency here is imported under its distribution name
    names = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in declared}
    imported = third_party_imports(ROOT / "src" / "fusegcn")
    assert "numpy" in imported    # the walk found the package's imports
    assert names == imported
