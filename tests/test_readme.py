"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.DOTALL | re.MULTILINE)


def test_readme_has_its_python_examples():
    assert len(BLOCKS) == 4


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # an example may write a file to the working directory
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"),
         {"__name__": "readme_example"})
