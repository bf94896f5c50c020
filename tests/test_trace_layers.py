"""The layer names the benchmark tracer wraps still exist on the package."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_layers():
    """``LAYERS`` from perfbench/spans.py, read as a literal without importing it."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "LAYERS"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS list in {SPANS}")


def test_every_traced_layer_resolves():
    layers = traced_layers()
    assert layers
    for span, module_name, attr, _ in layers:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            assert cls is not None, f"{span}: {module_name}.{cls_name} is gone"
            assert method in vars(cls), f"{span}: {module_name}.{attr} is gone"
        else:
            assert callable(getattr(module, attr, None)), \
                f"{span}: {module_name}.{attr} is gone"
