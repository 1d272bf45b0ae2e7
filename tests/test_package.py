"""Package surface: the module list the package docstring gives, and
every name the bench imports."""

import ast
import importlib
import inspect
import pkgutil
import typing
from pathlib import Path

import snarklab

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_docstring_lists_exactly_the_submodules():
    _, listing = snarklab.__doc__.split("Submodules:\n")
    listed = [line.split()[0] for line in listing.splitlines() if line.strip()]
    assert sorted(listed) == sorted(m.name for m in pkgutil.iter_modules(snarklab.__path__))


def defined_callables():
    """Every function, class and method defined in the package's modules,
    with properties read through their getters and static and class
    methods through their functions."""
    for info in pkgutil.iter_modules(snarklab.__path__):
        module = importlib.import_module(f"snarklab.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                yield obj
                for member in vars(obj).values():
                    member = getattr(member, "fget", getattr(member, "__func__", member))
                    if inspect.isfunction(member):
                        yield member


def test_every_annotation_resolves():
    found = list(defined_callables())
    assert len(found) > 100
    for obj in found:
        typing.get_type_hints(obj)


def test_every_name_the_bench_imports_resolves():
    # the bench is outside the test paths, so a name removed from the
    # package would otherwise fail only when the benchmark runs
    imported = {
        (node.module, alias.name)
        for path in BENCH.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "snarklab"
        for alias in node.names
    }
    assert imported
    for module, name in sorted(imported):
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
