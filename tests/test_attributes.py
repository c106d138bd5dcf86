"""No module in src/ reaches into an object's __dict__: what an object
holds is set at construction or by a cached property, never filled in
key by key behind its back."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def dict_uses(source):
    """The line of each use of ``__dict__``, as an attribute or a name."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "__dict__"
                  or isinstance(node, ast.Name) and node.id == "__dict__")


def test_scan_sees_attribute_and_name_uses():
    source = ("cache = self.__dict__.setdefault('c', {})\nvars(self)\n"
              "print(__dict__)\n")
    assert dict_uses(source) == [1, 3]


def test_src_never_touches_dict():
    paths = sorted((ROOT / "src").rglob("*.py"))
    # the walk reaches the package
    assert {"forest.py", "sef.py"} <= {path.name for path in paths}
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in paths
             for line in dict_uses(path.read_text(encoding="utf-8"))]
    assert found == []
