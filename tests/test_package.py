"""Package surface: the module list the package docstring gives, every
name the bench imports, and what each module imports from the others."""

import ast
import importlib
import inspect
import pkgutil
import sys
import typing
from pathlib import Path

import snarklab

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
MODULES = sorted(Path(snarklab.__file__).parent.glob("*.py"))
ALLOWED_IMPORTS = sys.stdlib_module_names | {"snarklab"}


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


def test_every_dataclass_field_is_read():
    """Every field of every dataclass in the package is read somewhere.

    The census matches by name: a field counts as read when an attribute
    of that name is loaded anywhere in src/, bench/ or tests/, on any
    object. So a field that nothing reads hides behind a read field of
    the same name on another class, as FamilyRow.ring once hid behind
    FreeCompletion.ring."""
    trees = [ast.parse(p.read_text()) for d in ("src", "bench", "tests") for p in (ROOT / d).rglob("*.py")]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [
        (cls.name, stmt.target.id)
        for path in Path(snarklab.__file__).parent.glob("*.py")
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]
    assert len(fields) > 30
    assert [f"{cls}.{name}" for cls, name in fields if name not in read] == []


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so a production check written as
    # one would stop running there; raise explicitly instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(snarklab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_the_package_imports_only_the_standard_library():
    # numpy, scipy and networkx serve the tests; the package runs without them
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in ALLOWED_IMPORTS]
    assert found == []


def test_every_data_file_is_named_by_a_test_or_the_bench():
    # a package data file that no file under tests/ or bench/ names by its
    # full file name ships unread
    texts = [
        p.read_bytes()
        for d in ("tests", "bench")
        for p in (ROOT / d).rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
    ]
    data = Path(snarklab.__file__).parent / "data"
    assert [p.name for p in sorted(data.iterdir()) if not any(p.name.encode() in t for t in texts)] == []


def private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_another_modules_private_names():
    # an underscore name is its own module's business: none is imported
    # from another snarklab module, or read off one imported whole
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "snarklab"):
                for alias in node.names:
                    if node.module is None or node.module == "snarklab":
                        modules.add(alias.asname or alias.name)
                    elif private(alias.name):
                        found.append(f"{path.name}: {node.module}.{alias.name}")
            elif isinstance(node, ast.Import):
                modules.update(a.asname or a.name for a in node.names if a.name.split(".")[0] == "snarklab")
        found += [
            f"{path.name}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and private(node.attr)
        ]
    assert found == []


def test_every_imported_name_is_read():
    # a name a module imports and never reads is dead weight, and hides
    # which of its neighbours the module still needs
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [
            f"{path.name}: {name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
            for name in [alias.asname or alias.name.split(".")[0]]
            if name not in read
        ]
    assert found == []
