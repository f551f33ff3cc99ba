"""The demos import only names that spagraph has; no demo is executed."""

import ast
import importlib
import pathlib

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demo_imports_exist():
    assert DEMOS
    for demo in DEMOS:
        tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spagraph":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (
                        f"{demo.name} imports {alias.name} from {node.module}, which has no such name"
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "spagraph":
                        importlib.import_module(alias.name)
