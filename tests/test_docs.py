"""The ```python blocks of docs/language.md run as written, so the documented
library API cannot drift from the code."""

import re

import pytest

from conftest import REPO

TEXT = (REPO / "docs" / "language.md").read_text(encoding="utf-8")
# each block led by blank lines, so that a traceback gives its line in the file
BLOCKS = ["\n" * TEXT.count("\n", 0, m.start(1)) + m.group(1)
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.DOTALL | re.MULTILINE)]


def test_the_docs_have_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(block):
    exec(compile(block, "docs/language.md", "exec"), {})
