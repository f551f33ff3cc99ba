"""The demos and the benchmark import only names that spagraph has.

Nothing is executed: each file is parsed and its `spagraph` imports are
resolved, so deleting a name they use fails here first.
"""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py"))


def test_demo_imports_exist():
    assert SOURCES
    for source in SOURCES:
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spagraph":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (
                        f"{source.name} imports {alias.name} from {node.module}, which has no such name"
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "spagraph":
                        importlib.import_module(alias.name)
