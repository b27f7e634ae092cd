"""Every function or method defined in the package has a caller, every
exported name exists, and the definitions that only the tests name are a
known list.

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
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twohilb"
TRACE = ROOT / "perfbench" / "trace.py"


def _defined_names(kinds=(ast.FunctionDef, ast.AsyncFunctionDef)) -> dict[str, set[str]]:
    """Each defined name with the modules that define it at module level
    (empty for a name defined only as a method or nested function)."""
    names = {}
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, kinds):
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


@pytest.mark.parametrize("module", ["twohilb"] + sorted(
    f"twohilb.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem != "__init__"))
def test_every_exported_name_exists(module):
    """A stale ``__all__`` entry breaks ``from module import *``."""
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)] == []


# Definitions that only the tests name: each one should join a criterion, the
# CLI or a workload, or go.  A new test-only definition, or one that gains a
# caller outside the tests, changes this list.
TEST_ONLY = [
    "frobenius_schur_indicator", "from_blocks", "from_model", "gelfand_hat",
    "hat_homomorphism_defect", "koszul_operator", "model_coords", "multiplicities",
    "tautological_point", "twisted",
]


def test_test_only_definitions_are_the_known_list():
    outside = _uses(("README.md", "src", "perfbench"))
    inside = _uses(("tests",))
    test_only = [name for name, modules in _defined_names(
                     (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)).items()
                 if not outside.use(name, modules) and inside.use(name, modules)]
    assert sorted(test_only) == TEST_ONLY
