"""Every module-level function and class of the package, and every
non-dunder method and property of a module-level class, has a caller.

A name counts as referenced when it appears as a name, an attribute or an
imported name anywhere in `src/`, `tests/` or `scripts/`, except inside its
own definition (recursion keeps nothing alive).  Methods are counted by
attribute name, so a method shares its references with every other
definition of that name.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rgflab"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "scripts"]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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
            if not isinstance(node, DEFINITIONS):
                continue
            found = [(f"{path.stem}.{node.name}", node)]
            if isinstance(node, ast.ClassDef):
                found += [(f"{path.stem}.{node.name}.{m.name}", m) for m in node.body
                          if isinstance(m, DEFINITIONS) and not m.name.startswith("__")]
            for label, defn in found:
                if refs[defn.name] - _names(defn)[defn.name] <= 0:
                    dead.append(label)
    return dead


def test_no_dead_definitions():
    assert dead_definitions() == []
