"""Every narrated demo under demos/, and README's Python blocks, run to
completion against this package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rankmix

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(rankmix.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks, "README.md has no python blocks"
    env = dict(os.environ, PYTHONPATH=str(Path(rankmix.__file__).parent.parent))
    # one process, blocks in order: later blocks reuse names the earlier ones bind
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_public_names_resolve_once():
    assert len(set(rankmix.__all__)) == len(rankmix.__all__)
    for name in rankmix.__all__:
        assert getattr(rankmix, name) is not None, name
