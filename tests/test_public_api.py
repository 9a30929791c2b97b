"""The shape of the package's public surface.

The bench tracer (bench/spans.py) wraps only plain functions, so a public
function hidden behind functools.cache or lru_cache would silently drop
out of the traced bench and its per-layer metrics.
"""

import importlib
import inspect

import pytest

MODULES = ("densities", "multiplier", "operators", "eigensolve", "analysis", "walk")


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_are_plain_functions_or_classes(name):
    mod = importlib.import_module(f"ballwalk.{name}")
    other = [
        f"{name}.{attr}: {type(obj).__name__}"
        for attr, obj in vars(mod).items()
        if not attr.startswith("_") and callable(obj)
        and getattr(obj, "__module__", None) == mod.__name__
        and not (inspect.isfunction(obj) or inspect.isclass(obj))
    ]
    assert not other, "\n".join(other)
