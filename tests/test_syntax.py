"""Every Python file parses under the oldest grammar that pyproject.toml's
requires-python admits. This catches syntax only: a call into a library
function added after that version still passes here."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OLDEST = tuple(
    int(part)
    for part in re.search(
        r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()
    ).groups()
)
SOURCES = sorted(
    path.relative_to(ROOT)
    for folder in ("src", "tests", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
)


@pytest.mark.parametrize("path", SOURCES, ids=str)
def test_parses_under_the_oldest_python(path):
    ast.parse((ROOT / path).read_text(), str(path), feature_version=OLDEST)
