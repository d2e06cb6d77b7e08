"""Static checks of the package's imports; the repo has no linter to make them.

No module imports a name it never uses, and only ``synth`` and ``bench`` use
``numpy.random``.
"""

import ast
from pathlib import Path

import pytest

import rapidhare

MODULES = sorted(p for p in Path(rapidhare.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set[str]:
    """The names the module's imports bind; ``import a.b`` binds ``a``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported_names(tree) - used) == []


def numpy_random_references(tree: ast.Module) -> list[int]:
    """The lines that import ``numpy.random`` or name it as an attribute of numpy."""
    numpy_names = {
        a.asname or a.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "numpy"
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.random") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith("numpy.random") or (
                node.module == "numpy" and any(a.name == "random" for a in node.names)
            )
        else:
            hit = (
                isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names
            )
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "path",
    sorted(
        p for p in Path(rapidhare.__file__).parent.glob("*.py")
        if p.name not in ("synth.py", "bench.py")
    ),
    ids=lambda p: p.name,
)
def test_only_synth_and_bench_use_numpys_random_module(path):
    """Importing ``numpy.random`` costs about 6 MB of RSS; training has its own generator."""
    lines = numpy_random_references(ast.parse(path.read_text(encoding="utf-8")))
    assert [f"{path.name}:{line}" for line in lines] == []
