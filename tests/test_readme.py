"""The README's Python examples run as written, from the repository root."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run(monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    monkeypatch.chdir(ROOT)
    for k, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {k}", "exec"), {})
        assert capsys.readouterr().out
