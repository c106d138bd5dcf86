"""Every exhaustive search takes its cap from EXFORM_BUDGET alone."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import exform
from exform.timing import TimingConfig

KNOBS = {"cap", "merge_cap", "stages", "samples"}
README = Path(__file__).resolve().parents[1] / "README.md"


def modules():
    for info in pkgutil.iter_modules(exform.__path__):
        yield info.name, importlib.import_module(f"exform.{info.name}")


def public_callables():
    for short, module in modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) \
                    or getattr(obj, "__module__", None) != module.__name__:
                continue
            yield f"{short}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{short}.{name}.{attr}", member


def test_no_search_takes_a_cap():
    names, found = set(), []
    for name, obj in public_callables():
        names.add(name)
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        found.extend(f"{name}({p})" for p in params if p in KNOBS)
    # the walk reaches the searches themselves
    assert {"forest.histories", "sef.strategies", "tilt.validate_grid",
            "play.check_wellposed_direct"} <= names
    assert found == []


def test_timing_config_has_no_vertical_cap():
    assert "vertical_cap" not in {f.name for f in dataclasses.fields(TimingConfig)}


def test_readme_cap_table_names_every_cap():
    # each row's last cell names one constant; both directions must hold
    rows = re.findall(r"^\|.*\| `(\w+\.\w+)` \|$", README.read_text(),
                      re.MULTILINE)
    caps = {f"{short}.{name}" for short, module in modules()
            for name in vars(module) if re.fullmatch(r"[A-Z0-9_]+_CAP", name)}
    assert len(rows) == len(set(rows))
    assert set(rows) == caps


def test_every_cap_is_read_through_budget():
    # a cap constant that no budget(...) call of its own module reads is
    # dead: merged away or replaced, it would linger in the README table
    unread = []
    for short, module in modules():
        read = {node.args[0].id for node in ast.walk(ast.parse(
                    inspect.getsource(module)))
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "budget"
                and node.args and isinstance(node.args[0], ast.Name)}
        unread.extend(f"{short}.{name}" for name in vars(module)
                      if re.fullmatch(r"[A-Z0-9_]+_CAP", name)
                      and name not in read)
    assert unread == []
