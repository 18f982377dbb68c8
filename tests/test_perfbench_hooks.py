"""The benchmark's tracer wraps qzeta callables by name: every name it lists
must exist where it looks for it, or a traced benchmark run fails."""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_tables():
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("FUNCTIONS", "METHODS"):
                tables[name] = ast.literal_eval(node.value)
    return tables["FUNCTIONS"], tables["METHODS"]


def test_traced_functions_exist_on_their_modules():
    functions, _ = tracer_tables()
    assert functions
    for module, name, _label in functions:
        assert callable(getattr(importlib.import_module(f"qzeta.{module}"), name))


def test_traced_methods_are_in_their_class_dict():
    _, methods = tracer_tables()
    assert methods
    for module, cls_name, attrs, _label in methods:
        cls = getattr(importlib.import_module(f"qzeta.{module}"), cls_name)
        for attr in attrs:
            assert attr in cls.__dict__, f"{cls_name}.{attr}"
