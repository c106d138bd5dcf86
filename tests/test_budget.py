"""Every exhaustive search takes its cap from EXFORM_BUDGET alone."""

import dataclasses
import importlib
import inspect
import pkgutil

import exform
from exform.timing import TimingConfig

KNOBS = {"cap", "merge_cap", "stages", "samples"}


def public_callables():
    for info in pkgutil.iter_modules(exform.__path__):
        module = importlib.import_module(f"exform.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) \
                    or getattr(obj, "__module__", None) != module.__name__:
                continue
            yield f"{info.name}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


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
