"""Exactness as a property of the source: no float can enter the package's
arithmetic, and every cache is bounded."""

import ast
from pathlib import Path

import pytest

import fareylattice

SOURCES = sorted(Path(fareylattice.__file__).parent.glob("*.py"))
# the functions of math that take and return ints; every other name of math is a float
INT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def float_uses(tree: ast.AST) -> list[str]:
    """Where the tree divides with /, writes a float or complex literal, names
    float, or reads a float name of math, as 'line: what'."""
    found = []
    for node in ast.walk(tree):
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            what = "true division"
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            what = f"literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            what = "the name float"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INT_MATH):
            what = f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            what = ", ".join(f"math.{a.name}" for a in node.names if a.name not in INT_MATH)
        if what:
            found.append(f"{node.lineno}: {what}")
    return found


def unbounded_caches(tree: ast.AST) -> list[str]:
    """Where the tree uses functools.lru_cache without a maxsize other than
    None, or imports or reads functools.cache."""
    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if sizes and not (isinstance(sizes[0], ast.Constant) and sizes[0].value is None):
                bounded.add(id(node.func))
    found = []
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, ast.alias) and node.name == "cache" else None)
        if name == "cache" or (name == "lru_cache" and id(node) not in bounded):
            found.append(f"{node.lineno}: {name}")
    return found


def audit(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    return float_uses(tree) + unbounded_caches(tree)


def test_every_module_is_audited():
    assert {p.name for p in SOURCES} >= {"cli.py", "identities.py", "sequences.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_and_no_unbounded_cache(path):
    assert audit(path) == []


@pytest.mark.parametrize("source,found", [
    ("x = a / b", ["1: true division"]),
    ("x /= 2", ["1: true division"]),
    ("x = a // b", []),
    ("x = 0.5", ["1: literal 0.5"]),
    ("x = 2j", ["1: literal 2j"]),
    ("x = float(a)", ["1: the name float"]),
    ("import math\nx = math.sqrt(a)", ["2: math.sqrt"]),
    ("import math\nx = math.isqrt(a)", []),
    ("from math import comb, log2", ["1: math.log2"]),
    ("from functools import lru_cache\n@lru_cache\ndef f(): pass", ["2: lru_cache"]),
    ("import functools\n@functools.lru_cache()\ndef f(): pass", ["2: lru_cache"]),
    ("@lru_cache(maxsize=None)\ndef f(): pass", ["1: lru_cache"]),
    ("@lru_cache(maxsize=128)\ndef f(): pass", []),
    ("@lru_cache(64)\ndef f(): pass", []),
    ("from functools import cache", ["1: cache"]),
])
def test_audit_finds(tmp_path, source, found):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert audit(path) == found
