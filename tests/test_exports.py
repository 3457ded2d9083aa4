"""Every module's public names exist and are re-exported by the package."""

import importlib
import pkgutil

import pytest

import delsub

# The command-line front end exports no library names.
LIBRARY = [
    importlib.import_module(f"delsub.{info.name}")
    for info in pkgutil.iter_modules(delsub.__path__)
    if info.name != "cli"
]


def test_every_library_module_declares_its_names():
    assert LIBRARY
    for module in LIBRARY:
        assert module.__all__, f"{module.__name__} declares no __all__"


@pytest.mark.parametrize("module", LIBRARY, ids=lambda m: m.__name__)
def test_all_names_exist_and_are_reexported(module):
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name}"
        assert getattr(delsub, name, None) is getattr(module, name), (
            f"delsub does not re-export {module.__name__}.{name}"
        )
