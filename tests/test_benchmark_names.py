"""Every package name the benchmark calls or traces exists.

The benchmark's sources under ``perfbench/`` are read and parsed, never
imported, so a name the package drops fails here rather than as a crashed
benchmark run.
"""

import ast
import importlib
from pathlib import Path

import haar_riesz

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def parse(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def test_workload_names_are_package_attributes():
    tree = parse("workloads.py")
    aliases = [
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "haar_riesz"
    ]
    assert aliases == ["hr"]
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "hr"
    }
    assert {"build_gram", "psd_certificate", "search_extremal"} <= names
    assert sorted(name for name in names if not hasattr(haar_riesz, name)) == []


def test_traced_functions_resolve_in_their_modules():
    tables = {
        target.id: ast.literal_eval(node.value)
        for node in parse("tracer.py").body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED")
    }
    assert set(tables) == {"SPANNED", "COUNTED"}
    pairs = tables["SPANNED"] + tables["COUNTED"]
    assert ("gram", "psd_certificate") in pairs
    missing = [
        (module, function)
        for module, function in pairs
        if not callable(
            getattr(importlib.import_module(f"haar_riesz.{module}"), function, None)
        )
    ]
    assert missing == []
