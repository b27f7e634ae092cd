"""Every function or method defined in the package has a caller, every
exported name exists, and the functions that the benchmark's workloads never
enter are a known list.

A name counts as used where code uses it: as a variable (``name``), as an
attribute (``x.name``) or as a name imported by ``from ... import``.  The
code searched is the package, the tests, the benchmark harness and the
README's ``python`` blocks, plus the "Class.member" paths in the patch
tables of ``perfbench/trace.py``, read as ``module.Class.member``.  A name
that appears only in a string, a comment or prose is not used, and neither
is one named only in an ``__all__`` list or a re-export import of the
package's ``__init__``.  A module-level function counts as used only as its
bare name, as ``<module>.name`` or imported: so neither a method of the same
name (``x.name``) nor a function of another library (``np.linalg.name``)
hides it.  Dunder methods are called by Python itself and are not counted.

A name is a weak test of use: a test-only method hides behind any other
method of the same name.  So the workloads are also run, and the functions
they never enter are pinned by their place in the source.
"""
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twohilb"
TRACE = ROOT / "perfbench" / "trace.py"


def _defined_names() -> dict[str, set[str]]:
    """Each defined name with the modules that define it at module level
    (empty for a name defined only as a method or nested function)."""
    names = {}
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                modules = names.setdefault(node.name, set())
                if id(node) in top:
                    modules.add(path.stem)
    return {n: m for n, m in names.items() if not (n.startswith("__") and n.endswith("__"))}


class Uses:
    """The names a body of code uses: bare names and imported names, and
    attributes with the last name of what they are read from (None when that
    is not a name, as in ``f().name``)."""

    def __init__(self):
        self.bare: set[str] = set()
        self.attributes: set[tuple[str | None, str]] = set()

    def add(self, tree: ast.AST) -> "Uses":
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                self.bare.add(node.id)
            elif isinstance(node, ast.Attribute):
                owner = node.value
                self.attributes.add((getattr(owner, "id", getattr(owner, "attr", None)),
                                     node.attr))
            elif isinstance(node, ast.ImportFrom):
                self.bare.update(alias.name for alias in node.names)
        return self

    def use(self, name: str, modules: set[str]) -> bool:
        """Whether ``name``, defined at module level in ``modules`` (or only
        as a method when empty), is used."""
        return name in self.bare or any(
            attr == name and (not modules or owner in modules)
            for owner, attr in self.attributes)


def _code(path: Path) -> list[ast.AST]:
    """The code of a searched file, without the package's listing lines."""
    if path.suffix == ".md":
        blocks = re.findall(r"^```python\n(.*?)^```", path.read_text(), re.M | re.S)
        return [ast.parse(block) for block in blocks]
    tree = ast.parse(path.read_text())
    if path == PACKAGE / "__init__.py":
        # the re-export imports list names; they do not use them
        tree.body = [node for node in tree.body if not isinstance(node, ast.ImportFrom)]
    code = [tree]
    if path == TRACE:
        # each ("twohilb.module", "Class.member", ...) entry patches module.Class.member
        code += [ast.parse(f"{node.elts[0].value}.{node.elts[1].value}", mode="eval")
                 for node in ast.walk(tree) if isinstance(node, ast.Tuple)
                 and len(node.elts) >= 2
                 and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                         for e in node.elts[:2])
                 and node.elts[0].value.startswith("twohilb")]
    return code


def _uses(tops: tuple[str, ...]) -> Uses:
    """The uses in the files and directories ``tops`` under the root."""
    uses = Uses()
    for top in map(ROOT.joinpath, tops):
        for path in [top] if top.is_file() else sorted(top.rglob("*.py")):
            for tree in _code(path):
                uses.add(tree)
    return uses


def test_a_name_only_in_a_string_or_prose_is_unused():
    uses = Uses().add(ast.parse('''
"""Prose that names in_prose()."""
# in_comment()
label = "in_string" + "-in_string_suffix"
obj.method_use()
function_use()
from somewhere import imported_use
'''))
    for name in ("in_prose", "in_comment", "in_string", "in_string_suffix"):
        assert not uses.use(name, set()) and not uses.use(name, {"somewhere"})
    for name in ("method_use", "function_use", "imported_use"):
        assert uses.use(name, set())
    # a module-level function is not used by a method of the same name
    assert not uses.use("method_use", {"module"})
    assert uses.use("function_use", {"module"})


def test_every_defined_function_is_named_somewhere_else():
    uses = _uses(("README.md", "src", "tests", "perfbench"))
    uncalled = [name for name, modules in sorted(_defined_names().items())
                if not uses.use(name, modules)]
    assert uncalled == []


def _private_imports(tree: ast.AST) -> list[str]:
    """The underscore names that ``tree`` imports from a twohilb module, as
    ``module.name``: relative imports and ``twohilb.*`` ones count."""
    return [f"{node.module or ''}.{alias.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "twohilb")
            for alias in node.names if alias.name.startswith("_")]


def test_private_imports_are_found():
    tree = ast.parse("from .reps import RepCategory, _helper\n"
                     "from twohilb.linalg import _other\n"
                     "from __future__ import annotations\n"
                     "from numpy import _private\n")
    assert _private_imports(tree) == ["reps._helper", "twohilb.linalg._other"]


def test_no_module_imports_a_private_name_of_another():
    """A module that needs another module's underscore name knows its
    internals: the name should be public, or the code should move."""
    found = {path.stem: _private_imports(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem: names for stem, names in found.items() if names} == {}


@pytest.mark.parametrize("module", ["twohilb"] + sorted(
    f"twohilb.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem != "__init__"))
def test_every_exported_name_exists(module):
    """A stale ``__all__`` entry breaks ``from module import *``."""
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)] == []


def _functions() -> dict[tuple[str, int, str], str]:
    """Each non-dunder function of the package, nested ones too, keyed as its
    code object reports it: (file, first line, name), with the first line of
    a decorated definition at its first decorator.  Keying on the place and
    not on ``co_qualname`` keeps Python 3.10.  The values are qualified names,
    as ``module.Class.method`` or ``module.function.<locals>.helper``."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found[str(path), first, child.name] = f"{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)
    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


# Run in a fresh interpreter, so that what loading the package calls counts.
# The trace function sees only call events: it returns None, so no line of
# any frame is traced.
_REACH_PROBE = """
import contextlib, io, json, sys
import numpy  # loaded before the trace starts, which would slow it

package, workdir = sys.argv[1:]
entered = set()


def on_call(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(package):
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))


sys.settrace(on_call)
from perfbench.workloads import WORKLOADS
from twohilb import cli
for workload in WORKLOADS.values():
    w = workload()
    w.setup(3, workdir)
    for op in w.operations():
        # every operation passes: one that fails fails the probe, instead of
        # silently leaving the functions after its failure unentered
        op.run()
# the acceptance workload calls the checks, not the suite command around them
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["suite", "--format", "json"])
sys.settrace(None)
print(json.dumps(sorted(entered)))
"""

# The functions that no workload and not the suite command enters, each with
# the reason it stays.  Any other such function should join a criterion, the
# command line or a workload, or go.  A function that a workload starts to
# enter, or one that none does, changes this list.
UNREACHED = {
    "cli._tolerance": "the --tol validator, and no workload passes --tol",
    "groups.FiniteGroup.inverse": "perfbench/trace.py patches it",
    "reps.Adjunction.triangle_dev": "perfbench/trace.py patches it",
    "reps.Intertwiner.then": "composition with an endpoint check, used by the tests",
}


def test_unreached_functions_are_the_known_list(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    run = subprocess.run([sys.executable, "-c", _REACH_PROBE, str(PACKAGE), str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    entered = {tuple(key) for key in json.loads(run.stdout)}
    assert sorted(name for key, name in _functions().items()
                  if key not in entered) == sorted(UNREACHED)


def test_the_benchmark_tracer_installs():
    """``perfbench/trace.py`` wraps package functions by name, so renaming or
    deleting one would otherwise break only the traced benchmark run.  The
    install patches modules for good, so it runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    run = subprocess.run([sys.executable, "-c", "from perfbench.trace import Tracer\n"
                          "Tracer().install()"], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
