"""The demos run to completion, and they, the benchmark and README's code
import only names spagraph has.

Each demo runs in its own subprocess, so a renamed attribute fails here as
well as a deleted import. The benchmark and README's python blocks are only
parsed: each one's `spagraph` imports are resolved.
"""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted(ROOT.glob("demos/*.py"))
SOURCES = DEMOS + sorted(ROOT.glob("perfbench/*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                           re.M | re.S)


def test_demo_imports_exist():
    assert SOURCES and README_BLOCKS
    named = [(source.name, source.read_text(encoding="utf-8")) for source in SOURCES]
    named += [(f"README.md python block {i}", text) for i, text in enumerate(README_BLOCKS, 1)]
    for name, text in named:
        tree = ast.parse(text, filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spagraph":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (
                        f"{name} imports {alias.name} from {node.module}, which has no such name"
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "spagraph":
                        importlib.import_module(alias.name)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # files a demo writes (into the working or the temp directory) land in
    # tmp_path, and none may be left there
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path),
           "SPA_JOBS": "1"}
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert not sorted(tmp_path.iterdir()), "the demo left files behind"
