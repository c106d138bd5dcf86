"""Every private name that src/ defines is read somewhere in src/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def private(name):
    return name.startswith("_") and not name.endswith("__")


def defined_private_names(tree):
    """(line, name) of each module-level private function, class or
    constant, and each private method of a module-level class."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            found.extend((t.lineno, t.id) for target in targets
                         for t in ast.walk(target) if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            found.extend((item.lineno, f"{node.name}.{item.name}")
                         for item in node.body
                         if isinstance(item, (ast.FunctionDef,
                                              ast.AsyncFunctionDef)))
    return [(line, name) for line, name in found
            if private(name.rsplit(".", 1)[-1])]


def read_names(tree):
    """Every name the tree reads: a loaded name, an attribute, or a name
    imported with ``from ... import``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources):
    """(module, line, name) of each private name that no source reads;
    ``sources`` maps a module's name to its source."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return sorted((module, line, name) for module, tree in trees.items()
                  for line, name in defined_private_names(tree)
                  if name.rsplit(".", 1)[-1] not in read)


def test_scan_sees_functions_constants_classes_and_methods():
    sources = {
        "a": ("_CAP = 3\n_LEFT: int = 1\n"
              "def _helper():\n    return _CAP\n"
              "def _dead():\n    pass\n"
              "class _Box:\n"
              "    def _open(self):\n        return self._lid()\n"
              "    def _lid(self):\n        pass\n"
              "    def _spare(self):\n        pass\n"
              "    def __repr__(self):\n        return ''\n"
              "def public():\n    return _helper(), _Box()._open()\n"),
        "b": "from a import _dead\n",
    }
    assert unread_private_names(sources) == [
        ("a", 2, "_LEFT"), ("a", 12, "_Box._spare")]


def test_every_private_name_in_src_is_read():
    paths = sorted((ROOT / "src" / "exform").glob("*.py"))
    # the walk reaches the package's modules and their private names
    assert {"tilt.py", "_util.py"} <= {path.name for path in paths}
    sources = {path.stem: path.read_text(encoding="utf-8") for path in paths}
    assert sum(len(defined_private_names(ast.parse(source)))
               for source in sources.values()) > 100
    assert unread_private_names(sources) == []
