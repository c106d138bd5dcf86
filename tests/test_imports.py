"""No module in src/ or tests/ imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source):
    """(line, name) of each imported name that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `from m import x as y` binds `y`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_sees_plain_dotted_and_aliased_imports():
    source = ("import os\nimport os.path as osp\nimport json.decoder\n"
              "from math import pi, tau as t\nprint(json.decoder, pi)\n")
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (4, "t")]


def test_no_unused_imports():
    paths = [path for tree in ("src", "tests")
             for path in sorted((ROOT / tree).rglob("*.py"))]
    # the walk reaches both trees
    assert {"sef.py", "test_imports.py"} <= {path.name for path in paths}
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in paths
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []
