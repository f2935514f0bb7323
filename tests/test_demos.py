"""Every narrated demo under demos/, README's Python blocks and its
command-line chain run to completion against this package, every public
name has a caller in the package or the demos, and every field of a public
dataclass has a reader in the package, the demos or the benchmark."""

import ast
import dataclasses
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import rankmix
from rankmix import ComponentSpec, MixtureSpec, cli, normal_utilities, write_mixture_spec

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(rankmix.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_demo_leaves_no_temporary_files(tmp_path):
    # the demo's CLI files go to a temporary directory that it removes
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(rankmix.__file__).parent.parent), TMPDIR=str(scratch))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "denoise_and_cluster.py")],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(scratch.iterdir()) == []


def test_readme_python_blocks_run(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks, "README.md has no python blocks"
    env = dict(os.environ, PYTHONPATH=str(Path(rankmix.__file__).parent.parent))
    # one process, blocks in order: later blocks reuse names the earlier ones bind
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_cli_chain_runs(tmp_path, monkeypatch, capsys):
    # README's generate -> denoise -> cluster -> evaluate lines, flags as printed
    stages = ("generate", "denoise", "cluster", "evaluate")
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    chain = [argv[1:] for argv in (shlex.split(line, comments=True) for block in blocks
                                   for line in block.splitlines())
             if argv[:1] == ["rankmix"] and argv[1] in stages]
    assert [argv[0] for argv in chain] == list(stages)
    monkeypatch.chdir(tmp_path)
    comps = [ComponentSpec.gaussian(normal_utilities(10, c), 0.3) for c in range(2)]
    write_mixture_spec("mix.txt", MixtureSpec(comps, [0.5, 0.5]))
    for argv in chain:
        assert cli.main(argv) == 0, argv
    risk = float(re.search(r"^risk=(.*)$", capsys.readouterr().out, re.M).group(1))
    assert 0.0 <= risk <= 1.0


def test_public_names_resolve_once():
    assert len(set(rankmix.__all__)) == len(rankmix.__all__)
    for name in rankmix.__all__:
        assert getattr(rankmix, name) is not None, name


def test_every_public_name_has_a_caller():
    # a definition is not a use: FunctionDef/ClassDef names are not Name nodes
    sources = [p for p in (ROOT / "src" / "rankmix").glob("*.py") if p.name != "__init__.py"] + DEMOS
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(set(rankmix.__all__) - used) == []


def test_every_public_field_has_a_reader():
    # a field nothing reads is a result nobody uses; reads are attribute
    # accesses (x.field), matched by name only, so this is a lower bound
    sources = [*(ROOT / "src" / "rankmix").glob("*.py"), *DEMOS, *(ROOT / "perfbench").glob("*.py")]
    read = {
        node.attr
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute)
    }
    classes = [getattr(rankmix, name) for name in rankmix.__all__]
    unread = [
        f"{cls.__name__}.{field.name}"
        for cls in classes
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        for field in dataclasses.fields(cls)
        if field.name not in read
    ]
    assert unread == []
