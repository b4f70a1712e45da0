"""README's Library tour names only what its modules define, and its
Python examples run.

Each row of the tour table names a module and, in backticks, the
functions and classes it holds.  Every plain backticked identifier in a
row must be an attribute of that row's module, so a row that still
names a deleted function fails here.  Each ```python block of README is
executed as it stands, so an example whose asserts no longer hold fails
here too.
"""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_rows() -> list[tuple[str, list[str]]]:
    text = README.read_text(encoding="utf-8")
    tour = text.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    rows = [(m[1], re.findall(r"`([A-Za-z_]\w*)`", m[2]))
            for m in re.finditer(r"^\| `(\w+)`\s*\|(.*)\|$", tour, re.MULTILINE)]
    if not rows:
        raise ValueError(f"no Library tour table in {README}")
    return rows


ROWS = tour_rows()


@pytest.mark.parametrize("module, names", ROWS, ids=[module for module, _ in ROWS])
def test_library_tour_names_resolve(module, names):
    mod = importlib.import_module(f"noisebits.{module}")
    assert [n for n in names if not hasattr(mod, n)] == []


def python_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    if not blocks:
        raise ValueError(f"no Python example in {README}")
    return blocks


BLOCKS = python_blocks()


@pytest.mark.parametrize("code", BLOCKS, ids=range(len(BLOCKS)))
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {})
