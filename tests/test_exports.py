"""Every module's public names exist and are re-exported by the package."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


# Oracle-only routes: tests/oracles.py holds them, and no delsub module may.
MOVED_TO_ORACLES = {
    "vt_syndrome",
    "vt_syndrome_from_suffix_sums",
    "iter_corruptions",
    "bucket_counts",
    "classify_weight_delta",
    "WeightDeltaClass",
    "WeightWindowError",
}


def _demo_names() -> set[str]:
    """Each name a demos/*.py script imports from delsub, read from its syntax tree."""
    demos = Path(__file__).resolve().parent.parent / "demos"
    names = set()
    for demo in sorted(demos.glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "delsub":
                names.update(alias.name for alias in node.names)
    return names


def test_no_module_holds_an_oracle_route_and_demos_read_declared_names():
    for module in [delsub, *LIBRARY, importlib.import_module("delsub.cli")]:
        held = set(vars(module)) | set(getattr(module, "__all__", ()))
        assert not held & MOVED_TO_ORACLES, f"{module.__name__} holds {sorted(held & MOVED_TO_ORACLES)}"
    assert not hasattr(delsub, "__all__")  # the package re-exports its modules' __all__ only
    declared = set().union(*(module.__all__ for module in LIBRARY))
    names = _demo_names()
    assert names
    assert names <= declared, f"demos import undeclared {sorted(names - declared)}"


def _bench_worker_names() -> set[tuple[str, str]]:
    """(module, name) of each delsub.<module>.<name> chain and from-import in bench/worker.py.

    Read from the syntax tree, so the tracer's span names, which are
    strings such as "decoder.list_decode", stay out.
    """
    worker = Path(__file__).resolve().parent.parent / "bench" / "worker.py"
    names = set()
    for node in ast.walk(ast.parse(worker.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("delsub."):
            names.update((node.module, alias.name) for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "delsub"
        ):
            names.add((f"delsub.{node.value.attr}", node.attr))
    return names


def test_every_name_the_bench_worker_reads_resolves():
    """The benchmark runs the library through bench/worker.py: a name moved
    or renamed in delsub must not break it."""
    names = _bench_worker_names()
    assert ("delsub.decoder", "list_decode_brute") in names  # its decode check
    for module, name in sorted(names):
        assert hasattr(importlib.import_module(module), name), f"bench/worker.py reads {module}.{name}"
