"""One error model: exit codes 1 and 3 come only from SclLabError classes,
and invalid input is the only ValueError."""

import ast
import importlib
import inspect
from pathlib import Path

import scl_lab

SOURCES = sorted(Path(scl_lab.__file__).parent.glob("*.py"))


def test_no_bare_runtime_error_is_raised():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(target, ast.Name) and target.id == "RuntimeError":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_value_error_carries_exit_one_or_three():
    classes = set()
    for path in SOURCES:
        module = importlib.import_module(f"scl_lab.{path.stem}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                classes.add(obj)
    assert any(getattr(c, "exit_code", None) == 3 for c in classes)
    bad = [c.__name__ for c in classes
           if issubclass(c, ValueError) and getattr(c, "exit_code", 2) in (1, 3)]
    assert bad == []
