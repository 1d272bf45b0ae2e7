"""Package surface: the module list the package docstring gives."""

import importlib
import inspect
import pkgutil
import typing

import snarklab


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
