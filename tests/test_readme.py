"""The README's library example runs as written, and each public name it
lists is defined where it says."""

import contextlib
import importlib
import io
import re
from pathlib import Path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
LIBRARY_USE = README.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def test_library_use_block_runs():
    (block,) = re.findall(r"```python\n(.*?)```", LIBRARY_USE, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().strip()


def test_listed_names_are_in_their_modules():
    # Each item runs from its module to the ";" or "." that ends it.
    listed = re.findall(
        r"^- `(mmparareal\.\w+)`: (.*?)[;.]$", LIBRARY_USE, re.M | re.S
    )
    assert {module for module, _ in listed} == {
        f"mmparareal.{name}"
        for name in ("engine", "analysis", "systems", "propagators", "transfer")
    }
    for module, names in listed:
        for name in re.findall(r"`(\w+)`", names):
            assert hasattr(importlib.import_module(module), name), (module, name)
