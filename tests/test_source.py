"""Static checks over the package, script and test sources."""

import ast
import glob
import os

import pytest

TESTS = os.path.dirname(__file__)
SRC = os.path.join(TESTS, "..", "src", "rislink")
# __init__.py imports are the package's public surface, read by its users
MODULES = sorted(p for p in glob.glob(os.path.join(SRC, "*.py"))
                 if os.path.basename(p) != "__init__.py")
SCRIPTS_AND_TESTS = sorted(glob.glob(os.path.join(TESTS, "..", "scripts", "*.py"))
                           + glob.glob(os.path.join(TESTS, "*.py")))


def _source_id(path: str) -> str:
    """A package module by its file name; a script or test with its folder."""
    folder = os.path.basename(os.path.dirname(path))
    name = os.path.basename(path)
    return name if folder == "rislink" else f"{folder}/{name}"


def unused_imports(source: str) -> list[str]:
    """`line: name` of every name an import binds in `source` that no code reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in bound.items() if name not in read]


def test_the_check_sees_an_unused_import():
    source = ("import numpy as np\nfrom dataclasses import dataclass, field\n\n"
              "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(source) == ["2: field"]


@pytest.mark.parametrize("path", MODULES + SCRIPTS_AND_TESTS, ids=_source_id)
def test_every_import_is_used(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


@pytest.mark.parametrize("path", MODULES, ids=_source_id)
def test_only_the_link_draws_the_jitter(path):
    """`Scenario.phase_errors` is the one caller of `PhaseJitterModel.sample`."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "sample"]
    assert len(calls) == (1 if os.path.basename(path) == "link.py" else 0)


LINE_BUDGET = 1907  # ROADMAP north-star aim 2: new code is paid for by deletion


def test_the_package_stays_within_its_line_budget():
    total = 0
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    assert total <= LINE_BUDGET
