"""The Python examples of the documents run against the package as it is."""
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "PAPER.md")
FENCED_PYTHON = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def _blocks():
    for name in DOCS:
        for k, code in enumerate(FENCED_PYTHON.findall((ROOT / name).read_text())):
            yield pytest.param(code, id=f"{name}-{k}")


BLOCKS = list(_blocks())


def test_every_document_has_an_example():
    assert {b.id.split("-")[0] for b in BLOCKS} == set(DOCS)


@pytest.mark.parametrize("code", BLOCKS)
def test_example_runs(code):
    exec(compile(code, "<example>", "exec"), {"__name__": "__example__"})
