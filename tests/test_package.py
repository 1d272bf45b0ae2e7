"""Package surface: the module list the package docstring gives."""

import pkgutil

import snarklab


def test_docstring_lists_exactly_the_submodules():
    _, listing = snarklab.__doc__.split("Submodules:\n")
    listed = [line.split()[0] for line in listing.splitlines() if line.strip()]
    assert sorted(listed) == sorted(m.name for m in pkgutil.iter_modules(snarklab.__path__))
