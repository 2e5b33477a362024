"""The workflow's CLI steps, run as CI runs them, on this source tree.

Each step's `run: |` block is taken from .github/workflows/tests.yml by
its indentation and run by bash with -e and pipefail in a fresh
directory. Shims first on PATH run `diffgraph` as this tree's
`diffgraph.cli` and `python` as the interpreter running the tests.
"""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def run_blocks(text: str) -> dict:
    """Step name -> the script of its `run: |` block: the lines below it
    indented deeper than `run:`, blank lines included, dedented."""
    blocks, name, lines = {}, None, text.splitlines()
    for i, line in enumerate(lines):
        key, indent = line.strip(), len(line) - len(line.lstrip())
        if key.startswith("- name: "):
            name = key[len("- name: "):]
        elif key == "run: |":
            body = []
            for below in lines[i + 1:]:
                if below.strip() and len(below) - len(below.lstrip()) <= indent:
                    break
                body.append(below)
            blocks[name] = textwrap.dedent("\n".join(body)) + "\n"
    return blocks


def test_run_blocks_are_read_by_indentation():
    text = ("    - name: One\n      run: |\n        a\n\n          b\n    - name: Two\n"
            "      run: c\n    - name: Three\n      run: |\n        d\n")
    assert run_blocks(text) == {"One": "a\n\n  b\n", "Three": "d\n"}


@pytest.mark.parametrize("step", ["Installed console script", "README CLI example",
                                  "Full n=16 table as a graph"])
def test_step_passes(step, tmp_path):
    script = run_blocks(WORKFLOW.read_text())[step]
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, command in (("diffgraph", "-m diffgraph.cli "), ("python", "")):
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {command}"$@"\n')
        shim.chmod(0o755)
    shutil.copy(ROOT / "README.md", tmp_path)  # the README step reads ../README.md from readme/
    (tmp_path / "step.sh").write_text(script)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run(["bash", "--noprofile", "--norc", "-e", "-o", "pipefail", "step.sh"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, f"{step} failed:\n{done.stdout[-4000:]}\n{done.stderr[-4000:]}"
