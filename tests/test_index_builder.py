"""A form's menu index is set in one place in src/: ``sef._validate``,
right after its first pass; no class defines ``_index``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _sets_index(node):
    """Whether the statement assigns an attribute named ``_index``, as a
    target or through ``setattr``."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
        targets = [node.target]
    elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        call = node.value
        return (isinstance(call.func, ast.Name) and call.func.id == "setattr"
                and len(call.args) > 1
                and isinstance(call.args[1], ast.Constant)
                and call.args[1].value == "_index")
    else:
        return False
    return any(isinstance(t, ast.Attribute) and t.attr == "_index"
               for target in targets for t in ast.walk(target))


def index_sets(tree):
    """(scope, line) of each statement that sets an attribute named
    ``_index``; the scope is the dotted name of the enclosing functions
    and classes, '' at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if _sets_index(child):
                found.append((scope, child.lineno))
            visit(child, scope)

    visit(tree, "")
    return found


def index_members(tree):
    """(class, line) of each definition named ``_index`` in a class body:
    a method, a property or a class attribute."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) \
                    else [item.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                names = []
            found.extend((node.name, item.lineno) for name in names
                         if name == "_index")
    return found


def test_scan_sees_each_way_to_set_or_define_an_index():
    source = ("class Form:\n"
              "    _index = None\n"
              "    @property\n"
              "    def _index(self):\n"
              "        return 1\n"
              "def build(form, forms):\n"
              "    form._index = 1\n"
              "    form._index, other = 1, 2\n"
              "    setattr(form, '_index', 1)\n"
              "    form.index = 1\n"
              "    _index = 3\n"
              "    for form._index in forms:\n"
              "        pass\n"
              "def _validate(form):\n"
              "    if form:\n"
              "        form.inner._index: int = 2\n")
    tree = ast.parse(source)
    assert index_sets(tree) == [("build", 7), ("build", 8), ("build", 9),
                                ("build", 12), ("_validate", 16)]
    assert index_members(tree) == [("Form", 2), ("Form", 4)]


def test_only_validation_sets_a_form_index():
    paths = sorted((ROOT / "src" / "exform").glob("*.py"))
    assert {"sef.py", "adapted.py"} <= {path.name for path in paths}
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in paths}
    assert [(module, scope) for module, tree in trees.items()
            for scope, _ in index_sets(tree)] == [("sef", "_validate")]
    assert {module: index_members(tree) for module, tree in trees.items()
            if index_members(tree)} == {}
