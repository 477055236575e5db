"""The README's library quick start runs as written, and its results schema is the CSV header."""

import re
from pathlib import Path

from lingcond.harness import CSV_HEADER

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_source() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs(capsys):
    exec(compile(quick_start_source(), str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_results_schema_is_the_csv_header():
    section = README.read_text().split("### Results schema", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    assert "".join(block.split()) == CSV_HEADER
