"""Every function or method defined in the package has a caller, every
exported name exists, and the definitions that only the tests name are a
known list.

A method counts as used when its name appears, as a whole word, anywhere
in the package, the tests, the benchmark harness or the README other than
on a line that defines it.  A module-level function counts as used only
as its bare name or as ``<module>.name``, in both cases not preceded by
``.``: so neither a method of the same name (``x.name``) nor a function of
another library (``np.linalg.name``) hides it.  Dunder methods are called
by Python itself and are not counted.
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twohilb"


def _searched_files(tops=("src", "tests", "perfbench")) -> list[Path]:
    files = [ROOT / "README.md"]
    for top in tops:
        files += [p for p in (ROOT / top).rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts]
    return files


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


def _use(name: str, modules: set[str]) -> re.Pattern:
    if not modules:
        return re.compile(rf"\b{re.escape(name)}\b")
    prefixes = "|".join(re.escape(m) + r"\." for m in sorted(modules))
    return re.compile(rf"(?<![\w.])(?:{prefixes})?{re.escape(name)}\b")


def test_every_defined_function_is_named_somewhere_else():
    lines = [line for path in _searched_files()
             for line in path.read_text(errors="replace").splitlines()]
    uncalled = []
    for name, modules in sorted(_defined_names().items()):
        use = _use(name, modules)
        definition = re.compile(rf"\s*(async\s+)?def\s+{re.escape(name)}\b")
        if not any(use.search(line) and not definition.match(line) for line in lines):
            uncalled.append(name)
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
    "frobenius_schur_indicator", "gelfand_hat", "hat_homomorphism_defect",
    "koszul_operator", "tautological_point",
]


def _listing_lines(path: Path) -> set[int]:
    """Line numbers of the ``__all__`` lists of a package module, and of the
    re-export imports of the package's ``__init__``: naming a definition
    there does not use it."""
    tree = ast.parse(path.read_text())
    lines = set()
    for node in tree.body:
        listing = (isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "__all__" for t in node.targets))
        if listing or (path.name == "__init__.py" and isinstance(node, ast.ImportFrom)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def test_test_only_definitions_are_the_known_list():
    outside = []
    for path in _searched_files(tops=("src", "perfbench")):
        text = path.read_text(errors="replace").splitlines()
        skip = _listing_lines(path) if path.suffix == ".py" and PACKAGE in path.parents else set()
        outside += [line for number, line in enumerate(text, 1) if number not in skip]
    inside = [line for path in (ROOT / "tests").rglob("*.py")
              for line in path.read_text().splitlines()]
    test_only = []
    for name, modules in _defined_names((ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef)).items():
        use = _use(name, modules)
        definition = re.compile(rf"\s*(async\s+)?(def|class)\s+{re.escape(name)}\b")
        if (not any(use.search(line) and not definition.match(line) for line in outside)
                and any(use.search(line) for line in inside)):
            test_only.append(name)
    assert sorted(test_only) == TEST_ONLY
