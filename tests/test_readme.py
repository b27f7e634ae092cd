"""Every command of the README's CLI tour, run in process.

A line exits with 0 unless its comment says ``exits N``; a comment
``prints X`` must match the first line of the output.
"""
import re
import shlex
from pathlib import Path

import pytest

from twohilb.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_lines() -> list[str]:
    text = README.read_text()
    section = text.split("## CLI tour", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [line.strip() for line in block.splitlines() if line.strip().startswith("twohilb ")]


def test_tour_is_found():
    assert len(tour_lines()) >= 9


@pytest.mark.parametrize("line", tour_lines())
def test_tour_line(line, capsys):
    command, _, comment = line.partition("#")
    argv = shlex.split(command)[1:]
    want_code = int(m.group(1)) if (m := re.search(r"exits (\d+)", comment)) else 0
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    out, err = capsys.readouterr()
    assert code == want_code, err
    if m := re.search(r"prints (\S+)", comment):
        assert out.splitlines()[0] == m.group(1)
