"""The kernel's private names stay inside the kernel, the DEP has one caller,
the execution mode is read in one module, and data has one form.

Every module of the package other than ``kernel.py`` uses the kernel through
its public names only: no ``kernel._name`` attribute reads and no
``from .kernel import _name`` imports.  The extensive form is built only by
``lshaped.vrp``, the one solve of the recourse problem, and by the CLI's
``solve --method dep``.  Only ``execution.py`` compares an execution mode
(``ExecConfig.mode``) to a mode name, so the work-item rule has one home.
Only ``model.py`` imports ``scipy.sparse``: it converts sparse input to the
one dense form.  Only ``model.py`` resolves a scenario's default bounds and
row senses; every other reader takes them from the problem's
``ScenarioBatch``.  ``Scenario`` records are an input form: only the modules
that take them as input (``model``, ``fixtures``, ``sampling``) construct
one or turn records into a problem, so the solve modules, and the SMPS
reader, which writes its scenarios as arrays, see batches only.  Every field
of the solver and sampling configs and of ``LPInstance`` is set somewhere
outside the tests (the package or the benchmark); a setting only tests change
is a module constant instead, and an instance field only tests set is a
second form that goes.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stochlp"
KERNEL_MODULES = {"kernel", "stochlp.kernel"}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_kernel_uses(source):
    """(line, name) of every private kernel name that ``source`` reads or imports."""
    tree = ast.parse(source)
    aliases = set()         # local names bound to the kernel module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name in KERNEL_MODULES:
                    aliases.add(a.asname or a.name)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in KERNEL_MODULES:
                found += [(node.lineno, a.name) for a in node.names if _private(a.name)]
            elif module in ("", "stochlp"):
                aliases |= {a.asname or a.name for a in node.names if a.name == "kernel"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            value = node.value
            if isinstance(value, ast.Name) and value.id in aliases:
                found.append((node.lineno, node.attr))
            elif isinstance(value, ast.Attribute) and value.attr == "kernel" \
                    and isinstance(value.value, ast.Name) and value.value.id == "stochlp":
                found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "kernel.py"),
                         ids=lambda p: p.name)
def test_no_module_reaches_into_the_kernel(path):
    assert private_kernel_uses(path.read_text()) == []


def test_the_scan_sees_every_form_of_use():
    source = (
        "from . import kernel\n"
        "import stochlp.kernel as K\n"
        "from .kernel import solve_lp, _AT_LB\n"
        "from stochlp import kernel as kk\n"
        "kernel._FREE\n"
        "K._BASIC\n"
        "kk._slack_bounds([])\n"
        "stochlp.kernel._POOL_SIZE\n"
        "kernel.solve_lp\n"
        "kernel.__name__\n"
    )
    assert private_kernel_uses(source) == [
        (3, "_AT_LB"), (5, "_FREE"), (6, "_BASIC"), (7, "_slack_bounds"), (8, "_POOL_SIZE")]


DEP = "build_deterministic_equivalent"


def dep_users(source):
    """(line, innermost enclosing function) of every read of the DEP builder in ``source``."""
    tree = ast.parse(source)
    names = {DEP} | {a.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                     for a in node.names if a.name == DEP and a.asname}
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Name) and node.id in names \
                or isinstance(node, ast.Attribute) and node.attr == DEP:
            found.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return sorted(found)


def test_only_vrp_and_the_dep_method_build_the_dep():
    users = {(path.name, where) for path in PACKAGE.glob("*.py")
             for _, where in dep_users(path.read_text())}
    assert users == {("lshaped.py", "vrp"), ("cli.py", "cmd_solve")}


def test_the_dep_scan_sees_every_form_of_use():
    source = (
        "from .model import build_deterministic_equivalent\n"
        "from .model import build_deterministic_equivalent as dep\n"
        "def f(p):\n"
        "    return build_deterministic_equivalent(p)\n"
        "def g(p):\n"
        "    def inner():\n"
        "        return model.build_deterministic_equivalent(p)\n"
        "    return dep\n"
        "h = lambda p: dep(p)\n"
        "build_deterministic_equivalent\n"
    )
    assert dep_users(source) == [(4, "f"), (7, "inner"), (8, "g"), (9, "<lambda>"),
                                 (10, "<module>")]


def mode_comparisons(source):
    """Line of every comparison of a ``.mode`` attribute with a string or strings."""
    def text(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(text(e) for e in node.elts)
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(isinstance(n, ast.Attribute) and n.attr == "mode" for n in sides) \
                    and any(text(n) for n in sides):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "execution.py"),
                         ids=lambda p: p.name)
def test_only_execution_reads_the_mode(path):
    assert mode_comparisons(path.read_text()) == []


def test_the_mode_scan_sees_every_form_of_use():
    source = (
        "engine.mode != 'async'\n"
        "if cfg.execution.mode == \"sync\": pass\n"
        "x = 'async' == e.mode\n"
        "e.mode in ('serial', 'sync')\n"
        "e.mode is None\n"
        "e.kind == 'async'\n"
        "mode == 'async'\n"
    )
    assert mode_comparisons(source) == [1, 2, 3, 4]


def sparse_imports(source):
    """Line of every import of ``scipy.sparse`` or of a name from it in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [node.lineno for a in node.names if a.name.startswith("scipy.sparse")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("scipy.sparse") \
                    or module == "scipy" and any(a.name == "sparse" for a in node.names):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "model.py"),
                         ids=lambda p: p.name)
def test_only_the_model_imports_scipy_sparse(path):
    assert sparse_imports(path.read_text()) == []


def test_the_sparse_scan_sees_every_form_of_use():
    source = (
        "import scipy.sparse\n"
        "import scipy.sparse as sp\n"
        "from scipy import sparse\n"
        "from scipy.sparse import csc_matrix\n"
        "from scipy.sparse.linalg import splu\n"
        "import scipy.linalg.blas\n"
        "from scipy import linalg\n"
    )
    assert sparse_imports(source) == [1, 2, 3, 4, 5]


def default_resolutions(source):
    """(line, innermost enclosing function) of every ``.bounds(`` or ``.senses(`` call."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("bounds", "senses"):
            found.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_only_the_model_resolves_scenario_defaults():
    users = {(path.name, where) for path in PACKAGE.glob("*.py") if path.name != "model.py"
             for _, where in default_resolutions(path.read_text())}
    assert users == set()


def test_the_default_scan_sees_every_form_of_use():
    source = (
        "def f(p, sc):\n"
        "    return sc.bounds(p.shape)\n"
        "def g(p):\n"
        "    return [s.senses(p.shape) for s in p.scenarios]\n"
        "h = lambda sc, shape: sc.bounds(shape)[0]\n"
        "p.scenarios[0].senses(shape)\n"
        "sc.bounds\n"
        "senses(shape)\n"
        "p.batch.senses\n"
    )
    assert default_resolutions(source) == [(2, "f"), (4, "g"), (5, "<lambda>"),
                                           (6, "<module>")]


RECORD_PATH = {"Scenario", "stack_scenarios", "build_problem"}
RECORD_MODULES = {"model.py", "fixtures.py", "sampling.py"}


def record_uses(source):
    """(line, name) of every call that constructs a ``Scenario`` record or turns
    records into a batch or a problem, under its own name or an import alias."""
    tree = ast.parse(source)
    alias = {name: name for name in RECORD_PATH}
    alias.update((a.asname or a.name, a.name) for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for a in node.names if a.name in RECORD_PATH)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = alias.get(func.id) if isinstance(func, ast.Name) \
                else func.attr if isinstance(func, ast.Attribute) and func.attr in RECORD_PATH \
                else None
            if name is not None:
                found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name not in RECORD_MODULES),
                         ids=lambda p: p.name)
def test_only_the_record_modules_use_scenario_records(path):
    assert record_uses(path.read_text()) == []


def test_the_record_scan_sees_every_form_of_use():
    source = (
        "from .model import Scenario, stack_scenarios as stack\n"
        "from stochlp import model\n"
        "Scenario(probability=1.0, q=[1.0], T=[[1.0]], h=[1.0])\n"
        "stack(shape, records)\n"
        "model.build_problem(first, shape, records)\n"
        "def f(shape, records):\n"
        "    return model.stack_scenarios(shape, records)\n"
        "stack_scenarios(shape, records)\n"
        "Scenario\n"
        "InfeasibleScenario(3)\n"
        "p.batch.q\n"
    )
    assert record_uses(source) == [(3, "Scenario"), (4, "stack_scenarios"),
                                   (5, "build_problem"), (7, "stack_scenarios"),
                                   (8, "stack_scenarios")]


BENCH = PACKAGE.parents[1] / "perfbench"
CONFIGS = {"LShapedConfig": "lshaped.py", "PhConfig": "phedging.py",
           "ExecConfig": "execution.py", "SaaConfig": "sampling.py", "LPInstance": "model.py"}
# fields kept although only the tests set them, with the reason
TEST_ONLY = {("PhConfig", "linearize"): "the paper's linearized PH penalty (l1 or l-inf "
                                        "proximal term), an algorithm variant of its own"}


def config_fields(source, name):
    """The annotated fields of the class ``name`` defined in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return {s.target.id for s in node.body if isinstance(s, ast.AnnAssign)}
    raise LookupError(name)


def fields_set(source, name):
    """The names ``source`` sets as keywords of ``name(...)`` and ``replace(...)``
    calls or by assignment to an attribute not of ``self``.  Inside the class
    ``name`` only its ``cls(...)`` calls count, such as a parser's."""
    found = set()

    def visit(node, own):
        own = own or isinstance(node, ast.ClassDef) and node.name == name
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if callee == "cls" if own else callee in (name, "replace"):
                found.update(k.arg for k in node.keywords if k.arg)
        elif not own and isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for leaf in t.elts if isinstance(t, ast.Tuple) else [t]:
                    if isinstance(leaf, ast.Attribute) and not (
                            isinstance(leaf.value, ast.Name) and leaf.value.id == "self"):
                        found.add(leaf.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(ast.parse(source), False)
    return found


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_config_field_has_a_setter_outside_the_tests(name):
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    sources += [p.read_text() for p in sorted(BENCH.glob("*.py")) if not p.name.startswith("test_")]
    fields = config_fields((PACKAGE / CONFIGS[name]).read_text(), name)
    unset = fields - set().union(*(fields_set(s, name) for s in sources))
    assert unset == {f for c, f in TEST_ONLY if c == name}


def test_the_setter_scan_sees_every_form_of_use():
    source = (
        "class Cfg:\n"
        "    a: int = 1\n"
        "    b: int = 2\n"
        "    def __post_init__(self):\n"
        "        self.c = 3\n"
        "        Cfg(d=4)\n"
        "    @classmethod\n"
        "    def parse(cls, text):\n"
        "        return cls(e=5)\n"
        "cfg = Cfg(f=6)\n"
        "cfg.g = 7\n"
        "cfg.h += 8\n"
        "cfg.i, other.j = 9, 10\n"
        "replace(cfg, k=11)\n"
        "mod.Cfg(l=12)\n"
        "Other(m=13)\n"
        "self.n = 14\n"
    )
    assert fields_set(source, "Cfg") == set("efghijkl")
    assert config_fields(source, "Cfg") == {"a", "b"}
