"""Static checks over the package, script and test sources."""

import ast
import glob
import os

import pytest

from rislink.experiments import SWEEP_KINDS

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


def foreign_private_reads(source: str) -> list[str]:
    """`line: expression` of every `_private` attribute read off an object other than
    `self` or `cls`: another class's or module's internals (dunders are not private)."""
    return [f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))]


def test_the_check_sees_a_foreign_private_read():
    source = ("class A:\n    def f(self, other):\n        self._x = other._y.append\n"
              "        return cls._z, other.__class__, mod.sub._w()\n")
    assert foreign_private_reads(source) == ["3: other._y", "4: mod.sub._w"]


@pytest.mark.parametrize("path", MODULES, ids=_source_id)
def test_no_module_reads_another_objects_internals(path):
    with open(path) as fh:
        assert foreign_private_reads(fh.read()) == []


def powers_of_ten(source: str) -> list[str]:
    """`line: expression` of every power of ten: `10 ** x`, also with the 10 wrapped in a
    one-argument call such as `np.float64(10.0)`, or `pow`/`math.pow`/`np.power(10, x)`."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base = node.left
        elif (isinstance(node, ast.Call) and node.args
              and ast.unparse(node.func) in ("pow", "math.pow", "np.power", "numpy.power")):
            base = node.args[0]
        else:
            continue
        while isinstance(base, ast.Call) and len(base.args) == 1:
            base = base.args[0]
        if isinstance(base, ast.Constant) and base.value == 10:
            hits.append(f"{node.lineno}: {ast.unparse(node)}")
    return hits


def test_the_check_sees_a_power_of_ten():
    source = ("a = 10.0 ** (db / 10.0)\nb = np.float64(10) ** x + 2 ** bits\n"
              "c = np.power(10, x), math.pow(10.0, y), 10 * x ** 2\n")
    assert powers_of_ten(source) == ["1: 10.0 ** (db / 10.0)", "2: np.float64(10) ** x",
                                     "3: np.power(10, x)", "3: math.pow(10.0, y)"]


@pytest.mark.parametrize("path", MODULES, ids=_source_id)
def test_only_the_link_turns_db_into_linear(path):
    """`link.from_db` is the one dB-to-linear rule: no other module raises 10 to a power."""
    with open(path) as fh:
        hits = powers_of_ten(fh.read())
    assert len(hits) == (1 if os.path.basename(path) == "link.py" else 0), hits


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """`line: expression` of every read of the process environment through `os`."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            hits.append(f"{node.lineno}: {ast.unparse(node)}")
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and _ENVIRONMENT & {alias.name for alias in node.names}):
            hits.append(f"{node.lineno}: {ast.unparse(node)}")
    return hits


def test_the_check_sees_an_environment_read():
    source = ("import os\nfrom os import getenv\n\n"
              "seed = os.environ.get('SEED', os.getenv('S'))\npath = os.path.join('a')\n")
    assert environment_reads(source) == ["2: from os import getenv", "4: os.environ",
                                         "4: os.getenv"]


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "*.py"))), ids=_source_id)
def test_no_module_reads_the_environment(path):
    """Every input comes from the command line, a config file or an argument."""
    with open(path) as fh:
        assert environment_reads(fh.read()) == []


def string_constants(source: str) -> list[str]:
    """`line: value` of every string constant in `source`, docstrings included."""
    return [f"{node.lineno}: {node.value}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def test_the_check_sees_a_string_constant():
    source = '"""Doc."""\nif job.kind == "gain" and n > 2:\n    f(b"raw", key="x")\n'
    assert string_constants(source) == ["1: Doc.", "2: gain", "3: x"]


def test_config_spells_no_sweep_kind():
    """`experiments.SWEEP_KINDS` is the kinds' vocabulary: config turns text into jobs and
    leaves each kind's fields to `SweepJob`, so it never names a kind."""
    with open(os.path.join(SRC, "config.py")) as fh:
        constants = string_constants(fh.read())
    assert [c for c in constants if c.split(": ", 1)[1] in SWEEP_KINDS] == []


def unit_splits(source: str) -> list[str]:
    """`function: expression` of every true division (`/`, not `//`) whose divisor names
    `n_units`, by the class and function it sits in."""
    hits = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                divisor = child.right if isinstance(child, ast.BinOp) else child.value
                if any(getattr(n, "id", getattr(n, "attr", None)) == "n_units"
                       for n in ast.walk(divisor)):
                    hits.append(f"{where}: {ast.unparse(child)}")
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, f"{where}.{child.name}".lstrip(".") if named else where)

    visit(ast.parse(source), "")
    return hits


def test_the_check_sees_a_split_over_the_units():
    source = ("def f(c, n_units):\n    return c / n_units, c // n_units, n_units / c\n\n"
              "class A:\n    def g(self, c):\n        c /= self.layout.n_units\n"
              "        return [x / (2 * n_units) for x in c], c / self.n_rows\n")
    assert unit_splits(source) == ["f: c / n_units", "A.g: c /= self.layout.n_units",
                                   "A.g: x / (2 * n_units)"]


def test_one_method_splits_an_array_current_over_the_units():
    """`Scenario.unit_gain_db` is the one place an array current is split evenly over
    the units, so a change to what a current means has one home."""
    hits = []
    for path in MODULES:
        with open(path) as fh:
            hits += [f"{_source_id(path)}: {hit}" for hit in unit_splits(fh.read())]
    assert [hit.split(": ")[:2] for hit in hits] == [["link.py", "Scenario.unit_gain_db"]], hits


LINE_BUDGET = 1907  # ROADMAP north-star aim 2: new code is paid for by deletion


def test_the_package_stays_within_its_line_budget():
    total = 0
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    assert total <= LINE_BUDGET
