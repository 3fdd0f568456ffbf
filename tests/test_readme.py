"""The README's library quick start runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_source() -> str:
    """The ```python block under README's "Library quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library quick start'"
    return match.group(1)


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(quick_start_source(), str(README), "exec"), {"__name__": "__main__"})
    out = capsys.readouterr().out
    assert re.fullmatch(r"bit errors: \d+\n", out)
