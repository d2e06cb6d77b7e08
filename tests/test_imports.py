"""Static checks of the package's imports and of its README; the repo has no linter to make them.

No module imports a name it never uses or defines one that nothing uses,
only ``synth`` and ``bench`` use ``numpy.random``, and the README names every
flag of every command and every value a flag takes from a fixed set.
"""

import argparse
import ast
import re
from pathlib import Path

import pytest

import rapidhare
from rapidhare.cli import build_parser

MODULES = sorted(p for p in Path(rapidhare.__file__).parent.glob("*.py") if p.name != "__init__.py")
PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
# Kept for the tests alone: the from-scratch reference the fast predictor is checked against.
TEST_ORACLES = {"predict_sequence_naive"}


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


def top_level_names(tree: ast.Module) -> set[str]:
    """The functions, classes and constants a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def used_names(tree: ast.Module) -> set[str]:
    """The names a module reads, the attributes it takes and the names it imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_every_defined_name_is_used():
    """Named by other code in the package or in perfbench; a re-export in ``__init__`` is no use."""
    used = set().union(*(used_names(ast.parse(p.read_text(encoding="utf-8"))) for p in MODULES + PERFBENCH))
    unused = [
        f"{path.name}:{name}"
        for path in MODULES
        for name in sorted(top_level_names(ast.parse(path.read_text(encoding="utf-8"))) - used)
        if name not in TEST_ORACLES
    ]
    assert unused == []


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


def long_flag_actions(parser: argparse.ArgumentParser) -> list[tuple[str, str, argparse.Action]]:
    """(command, flag, action) for every long flag of every subcommand, apart from ``--help``."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (name, flag, action)
        for name, sub in commands.choices.items()
        for action in sub._actions
        for flag in action.option_strings if flag.startswith("--") and flag != "--help"
    ]


README = Path(__file__).resolve().parents[1] / "README.md"


def named(word: str) -> bool:
    return bool(re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", README.read_text(encoding="utf-8")))


@pytest.mark.parametrize(
    "command, flag", [(command, flag) for command, flag, _ in long_flag_actions(build_parser())]
)
def test_the_readme_names_every_flag(command, flag):
    assert named(flag)


@pytest.mark.parametrize(
    "command, flag, choice",
    [
        (command, flag, choice)
        for command, flag, action in long_flag_actions(build_parser())
        for choice in action.choices or ()
    ],
)
def test_the_readme_names_every_choice(command, flag, choice):
    assert named(choice)
