"""Every function or method defined in the package has a caller.

A name counts as used when it appears, as a whole word, anywhere in the
package, the tests, the benchmark harness or the README other than on a
line that defines it.  Dunder methods are called by Python itself and are
not counted.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twohilb"


def _searched_files() -> list[Path]:
    files = [ROOT / "README.md"]
    for top in ("src", "tests", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts]
    return files


def _defined_names() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def test_every_defined_function_is_named_somewhere_else():
    lines = [line for path in _searched_files()
             for line in path.read_text(errors="replace").splitlines()]
    uncalled = []
    for name in sorted(_defined_names()):
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"\s*(async\s+)?def\s+{re.escape(name)}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            uncalled.append(name)
    assert uncalled == []
