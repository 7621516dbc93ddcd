"""The README's Python examples run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_examples_run():
    blocks = re.findall(
        r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.MULTILINE | re.DOTALL
    )
    assert blocks
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for code in blocks:
        result = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, f"{code}\n{result.stderr}"
