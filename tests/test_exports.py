import ast
import importlib
import inspect
from pathlib import Path

import pytest

MODULES = [
    "hampow",
    "hampow.absorber",
    "hampow.core",
    "hampow.density",
    "hampow.factor",
    "hampow.janson",
    "hampow.matcher",
    "hampow.pipeline",
    "hampow.randmodels",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    defined = sorted(
        n for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == name
    )
    unlisted = [n for n in defined if n not in module.__all__]
    assert not unlisted, f"{name} defines public {unlisted} outside __all__"


SRC = Path(__file__).resolve().parents[1] / "src" / "hampow"

def src_references() -> set[tuple[str, str, str | None]]:
    """(module, name, enclosing top-level definition) of each name src reads.

    A name counts where it is loaded or read as an attribute; definitions,
    imports and ``__all__`` entries do not count.  The package's
    ``__init__`` only re-exports, so it is skipped.
    """
    refs = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.add((f"hampow.{path.stem}", node.id, owner))
                elif isinstance(node, ast.Attribute):
                    refs.add((f"hampow.{path.stem}", node.attr, owner))
    return refs


def test_every_exported_name_has_a_caller_in_src():
    refs = src_references()
    unused = []
    for name in MODULES:
        module = importlib.import_module(name)
        for exported in module.__all__:
            # the package re-exports names that its modules define
            home = getattr(module, exported).__module__ if name == "hampow" else name
            if not any(
                n == exported and not (m == home and owner == exported) for m, n, owner in refs
            ):
                unused.append((name, exported))
    assert unused == []
