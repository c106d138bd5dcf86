"""The names the bench traces stay callable in exform.

``perfbench/spans.py`` wraps each (module, attribute) of its ``TARGETS``
by name; a refactor that drops or renames one fails here, not only in
the bench's own suite.  The file is read with ``ast``, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

from exform.order import Poset, dm_completion

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_targets():
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


@pytest.mark.parametrize("module, attr", traced_targets())
def test_traced_name_is_callable(module, attr):
    value = importlib.import_module(f"exform.{module}")
    for part in attr.split("."):
        value = getattr(value, part)
    assert callable(value)


def test_cut_count_reads_one_element_per_cut():
    # the bench counts cuts as len(dm_completion(p)[0].elements); the
    # 3-antichain has 5 cuts: the empty set, three points, everything
    result = dm_completion(Poset("abc", [(x, x) for x in "abc"]))
    assert len(result[0].elements) == 5
    assert result[0].elements == {frozenset(), frozenset("a"), frozenset("b"),
                                  frozenset("c"), frozenset("abc")}
