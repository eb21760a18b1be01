"""Every module-level function and class of the package has a caller.

A name counts as referenced when it appears as a name, an attribute or an
imported name anywhere in `src/`, `tests/` or `scripts/`, except inside its
own definition (recursion keeps nothing alive).
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rgflab"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "scripts"]


def _names(tree) -> Counter:
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
    return out


def dead_definitions() -> list:
    refs = Counter()
    for top in SEARCHED:
        for path in sorted(top.rglob("*.py")):
            refs += _names(ast.parse(path.read_text(), str(path)))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if refs[node.name] - _names(node)[node.name] <= 0:
                    dead.append(f"{path.stem}.{node.name}")
    return dead


def test_no_dead_definitions():
    assert dead_definitions() == []
