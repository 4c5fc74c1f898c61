"""The README's library quickstart runs as written."""
from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[-1].endswith("replicates went extinct")
