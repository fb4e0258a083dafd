import importlib
import inspect

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
