"""The shape of the package's public surface.

The bench tracer (bench/spans.py) wraps only plain functions, so a public
function hidden behind functools.cache or lru_cache would silently drop
out of the traced bench and its per-layer metrics. Every public name has
a caller in the package or the bench, apart from a few test references,
and every private module-level name has one in the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ballwalk"
# references the tests compare against, and the paper's one-step kernel
# and the report serializer, which the drivers themselves never call
TEST_REFERENCES = {"build_ball_average", "dense_reference", "step_sample", "to_json"}


def _public_definitions(tree):
    """Public module-level functions and classes, and their public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))


def _private_definitions(tree):
    """Private module-level functions, classes and assigned names (not dunders)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def _references(tree):
    """Every name used as a Name (not an assignment's target), an
    Attribute or an import (not a string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_public_name_has_a_caller_in_the_package_or_the_bench():
    # a public function only its own tests call is surface without a driver:
    # give it a caller or delete it
    parse = lambda path: ast.parse(path.read_text(), filename=str(path))
    defined = {name for path in SRC.glob("*.py") for name in _public_definitions(parse(path))}
    used = {name for path in [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py")]
            for name in _references(parse(path))}
    orphans = sorted(defined - used - TEST_REFERENCES)
    assert not orphans, "no caller in src/ or bench/: " + ", ".join(orphans)
    assert TEST_REFERENCES <= defined


def test_every_private_name_has_a_reference_in_the_package():
    # a private helper or constant that only tests reach is dead code that
    # its tests keep alive: when its last caller in src/ goes, it goes too
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SRC.glob("*.py")]
    defined = {name for tree in trees for name in _private_definitions(tree)}
    used = {name for tree in trees for name in _references(tree)}
    orphans = sorted(defined - used)
    assert not orphans, "no reference in src/: " + ", ".join(orphans)
