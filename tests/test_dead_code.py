"""Every module-level function and class of the package, and every
non-dunder method and property of a module-level class, has a caller; and
every option of them is set by some caller, and every parameter is read.

A name counts as referenced when it appears as a name, an attribute or an
imported name anywhere in `src/`, `tests/` or `scripts/`, except inside its
own definition (recursion keeps nothing alive).  Methods are counted by
attribute name, so a method shares its references with every other
definition of that name.

An option (a parameter with a default) counts as set when some call in the
same trees passes it, by keyword or by position, with anything but a
literal equal to its default; a call with `*args` or `**kwargs` may pass
anything.  Calls match a function and a method by the called name, and
`__init__` by the class name.  A parameter counts as read when its name is
loaded in the body; methods defined on more than one class implement a
shared interface, so their signatures are exempt from that rule.

Every module-level function and class, public or private, must also be
referenced from `src/` itself, by a load in its module outside a function
that binds the name, a `from .module import name`, or `module.name` after
`from . import module`: one that only tests reference is a test helper,
and lives in `tests/`.  The package's `__init__` imports its exports, so
those are the allow-list of paper layers.  No module imports a name it
never loads (`__init__` re-exports and `__future__` aside).

A dataclass field counts as dead when no attribute of that name is loaded
anywhere in the same trees and, for a field with a default, no
construction (a call by the class name, or a `replace` keyword) passes it
anything but a literal equal to its default.  Fields, like methods, are
counted by attribute name; a load off `args`, the parsed command line, reads
a flag and counts for no field.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter, defaultdict
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


def _loads(node, local=frozenset(), out=None) -> Counter:
    """Loads of each name under `node`, except inside a function that binds
    the name, as a parameter or by assignment, anywhere in it."""
    out = Counter() if out is None else out
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        local = local | {n.arg if isinstance(n, ast.arg) else n.id for n in ast.walk(node)
                         if isinstance(n, ast.arg) or isinstance(getattr(n, "ctx", None), ast.Store)
                         and isinstance(n, ast.Name)}
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
        out[node.id] += 1
    for child in ast.iter_child_nodes(node):
        _loads(child, local, out)
    return out


def helpers_for_tests_only(package=PACKAGE, source=ROOT / "src") -> list:
    """Module-level functions and classes of `package` that no reference
    under `source` binds to outside their own definition."""
    modules = {path.stem: ast.parse(path.read_text(), str(path))
               for path in sorted(package.glob("*.py"))}
    refs = Counter()
    for path in sorted(source.rglob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        aliases = {}
        for node in nodes:
            if not isinstance(node, ast.ImportFrom):
                continue
            top, _, rest = (node.module or "").partition(".")
            mod = (node.module or "") if node.level else rest if top == package.name else None
            for a in node.names if mod is not None else ():
                if mod:
                    refs[mod, a.name] += 1
                elif a.name in modules:
                    aliases[a.asname or a.name] = a.name
        refs.update((aliases[n.value.id], n.attr) for n in nodes if isinstance(n, ast.Attribute)
                    and getattr(n.value, "id", None) in aliases)
    found = []
    for stem, tree in modules.items():
        loads = _loads(tree)
        for node in tree.body:
            if (isinstance(node, DEFINITIONS) and not node.name.startswith("__")
                    and refs[stem, node.name] + loads[node.name] - _loads(node)[node.name] <= 0):
                found.append(f"{stem}.{node.name}")
    return found


def test_no_definition_serves_only_tests():
    assert helpers_for_tests_only() == []


PLANTED_HELPERS = """
def _used(x):
    return x + 1


def _only_tested(x):
    return x * 2


def _recursive(n):
    return 0 if n == 0 else _recursive(n - 1)


class Exported:
    def run(self, x):
        return _used(x)

    def shadow(self, tested):
        return tested


def tested(x):
    return x - 1
"""


def test_helpers_for_tests_only_fire_on_a_planted_module(tmp_path):
    # `_only_tested` and the public `tested` are referenced from a test file
    # alone, and `_recursive` only from its own body; `_used` has a caller
    # in its module, and `Exported` is exported by the package's `__init__`
    source = tmp_path / "src"
    package = source / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .planted import Exported\n")
    (package / "planted.py").write_text(PLANTED_HELPERS)
    (tmp_path / "test_planted.py").write_text(
        "from pkg.planted import _only_tested, tested\n"
        "def test_it():\n"
        "    assert _only_tested(2) == tested(5) == 4\n")
    # a parameter or a local variable of that name binds to nothing of
    # `planted`, in its own module or in another
    (source / "shadow.py").write_text(
        "def run(_only_tested):\n"
        "    tested = _only_tested + 1\n"
        "    return tested\n")
    assert helpers_for_tests_only(package, source) == [
        "planted._only_tested", "planted._recursive", "planted.tested"]
    (source / "caller.py").write_text(
        "from pkg import planted\n"
        "from pkg.planted import tested\n"
        "def run():\n"
        "    return planted._only_tested(1) + planted._recursive(3) + tested(0)\n")
    assert helpers_for_tests_only(package, source) == []


def unused_imports(searched=SEARCHED) -> list:
    """"dir/file.py:line name" for each name a module imports and never loads."""
    found = []
    for path in sorted(p for top in searched for p in top.rglob("*.py")
                       if p.name != "__init__.py"):
        tree = ast.parse(path.read_text(), str(path))
        loaded = _loads(tree)
        found += [f"{path.parent.name}/{path.name}:{node.lineno} {name}"
                  for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for name in (a.asname or a.name.partition(".")[0] for a in node.names)
                  if not loaded[name]]
    return found


def test_no_unused_imports():
    assert unused_imports() == []


def test_unused_imports_fire_on_a_planted_module(tmp_path):
    # `json` and the local `path` are never loaded (`gcd` binds `g`, and
    # `os.path` binds `os`); `__init__` only re-exports
    (tmp_path / "__init__.py").write_text("from .planted import run\n")
    (tmp_path / "planted.py").write_text(
        "from __future__ import annotations\nimport json\nimport os.path\n"
        "from math import gcd as g\ndef run(x):\n    from os import path\n"
        "    return os.sep + str(g(x, 2))\n")
    assert unused_imports([tmp_path]) == [f"{tmp_path.name}/planted.py:{line} {name}"
                                          for line, name in ((2, "json"), (6, "path"))]


def _callee(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _is_default(value, default) -> bool:
    return (isinstance(value, ast.Constant) and isinstance(default, ast.Constant)
            and type(value.value) is type(default.value) and value.value == default.value)


def _sets(call, index, name, default) -> bool:
    """Whether `call` passes the option `name` (at position `index`, None
    for keyword-only) with anything but its literal default."""
    for kw in call.keywords:
        if kw.arg is None:
            return True
        if kw.arg == name:
            return not _is_default(kw.value, default)
    for i, arg in enumerate(call.args if index is not None else ()):
        if isinstance(arg, ast.Starred):
            return True
        if i == index:
            return not _is_default(arg, default)
    return False


def _options(fn, offset):
    """(name, call position or None, default node) per option of `fn`."""
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    for k, (p, d) in enumerate(zip(pos[first:], a.defaults)):
        yield p.arg, first + k - offset, d
    for p, d in zip(a.kwonlyargs, a.kw_defaults):
        if d is not None:
            yield p.arg, None, d


def _signatures():
    """(label, definition, called name, leading bound parameters, shared)
    for every module-level function and every method, `__init__` included,
    of a module-level class."""
    trees = [(path.stem, ast.parse(path.read_text(), str(path)))
             for path in sorted(PACKAGE.glob("*.py"))]
    defined = Counter(m.name for _, tree in trees for node in tree.body
                      if isinstance(node, ast.ClassDef)
                      for m in node.body if isinstance(m, ast.FunctionDef))
    for stem, tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{stem}.{node.name}", node, node.name, 0, False
            if not isinstance(node, ast.ClassDef):
                continue
            for m in node.body:
                if not isinstance(m, ast.FunctionDef) or \
                        (m.name.startswith("__") and m.name != "__init__"):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in m.decorator_list)
                called = node.name if m.name == "__init__" else m.name
                yield (f"{stem}.{node.name}.{m.name}", m, called, 0 if static else 1,
                       defined[m.name] > 1)


def _calls_and_loads(searched) -> tuple:
    """The calls in `searched` by called name, and the attribute names loaded
    there, except off `args`: a parsed command line reads its flags, so
    `args.M` reads no report's `M`."""
    calls = defaultdict(list)
    loaded = set()
    for top in searched:
        for path in sorted(top.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call):
                    calls[_callee(node)].append(node)
                elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                      and getattr(node.value, "id", None) != "args"):
                    loaded.add(node.attr)
    return calls, loaded


def option_creep() -> list:
    calls, _ = _calls_and_loads(SEARCHED)
    found = []
    for label, fn, called, offset, shared in _signatures():
        for name, index, default in _options(fn, offset):
            if not any(_sets(c, index, name, default) for c in calls[called]):
                found.append(f"{label}({name}=) is never set")
        if shared:
            continue
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        a = fn.args
        for p in (a.posonlyargs + a.args)[offset:] + a.kwonlyargs:
            if p.arg not in read:
                found.append(f"{label}({p.arg}) is never read")
    return found


def test_no_option_creep():
    assert option_creep() == []


def _is_dataclass(cls) -> bool:
    for d in cls.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if (getattr(f, "id", None) or getattr(f, "attr", None)) == "dataclass":
            return True
    return False


def _field_default(value):
    """The default node of a field's assigned value, None without one;
    for `field(default_factory=...)` the call itself, which no literal
    equals."""
    if not (isinstance(value, ast.Call) and _callee(value) == "field"):
        return value
    for kw in value.keywords:
        if kw.arg == "default":
            return kw.value
        if kw.arg == "default_factory":
            return value
    return None


def unused_fields(package=PACKAGE, searched=SEARCHED) -> list:
    calls, loaded = _calls_and_loads(searched)
    found = []
    for path in sorted(package.glob("*.py")):
        for cls in ast.parse(path.read_text(), str(path)).body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            fields = [f for f in cls.body
                      if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
            for index, f in enumerate(fields):
                name = f.target.id
                if name in loaded:
                    continue
                default = None if f.value is None else _field_default(f.value)
                if default is None or not (
                        any(_sets(c, index, name, default) for c in calls[cls.name])
                        or any(_sets(c, None, name, default) for c in calls["replace"])):
                    found.append(f"{path.stem}.{cls.name}.{name}")
    return found


def test_no_unused_fields():
    assert unused_fields() == []


PLANTED = """
from dataclasses import dataclass, field


@dataclass
class Report:
    count: int
    origin: str
    note: str = ""
    tags: list = field(default_factory=list)
    level: int = 0
    extra: list = field(default_factory=list)
    label: str = field(default="x")


def make(args):
    first = Report(1, "a", "", level=2)
    second = Report(2, "b", "", label="y")
    return first.count + len(second.extra) + args.origin
"""


def test_unused_fields_fire_on_a_planted_module(tmp_path):
    # `origin` has no default and is never read (`args.origin` is a flag),
    # `note` is set only to its default and `tags` never, and neither is read
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "planted.py").write_text(PLANTED)
    assert unused_fields(package, [tmp_path]) == [
        "planted.Report.origin", "planted.Report.note", "planted.Report.tags"]
    (tmp_path / "reader.py").write_text(
        "import dataclasses\n"
        "def show(report):\n"
        "    return dataclasses.replace(report, tags=['a']).note + report.origin\n")
    assert unused_fields(package, [tmp_path]) == []


def test_traced_entry_points_exist():
    # the benchmark's tracer wraps these by name, from outside the trees
    # searched above, so a deleted one would break only the traced run
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for modname, attr, _ in tracer.TARGETS:
        owner = importlib.import_module("rgflab." + modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{modname}.{attr}")
    assert tracer.TARGETS and missing == []




TRACED_PASS = """import json, sys, rgflab.cli as cli, tracer
t = tracer.Tracer()
t.install()
codes = [cli.main(argv + ["--output", "out.jsonl"]) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(t.counts), sorted(set(t.names))]))
"""


def test_traced_pass_reads_every_counter(tmp_path):
    # a small pass under the tracer, in a fresh interpreter since `install`
    # rebinds the package's functions: every counter it reads off a result
    # (pair lists, ball sizes, words, triples, quadruples) is there
    argvs = [["experiment", "theorem-b", "--seed", "11", "--radius", "2", "--triples", "50",
              "--geodesics", "20", "--curve-samples", "10", "--words", "5"],
             ["delta-estimate", "--seed", "3", "--points", "6", "--qmax", "10"]]
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT / 'perfbench'}")
    codes, counts, names = json.loads(subprocess.run(
        [sys.executable, "-c", TRACED_PASS, json.dumps(argvs)], cwd=tmp_path, env=env,
        capture_output=True, text=True, check=True).stdout)
    assert codes == [0, 0] and {"farey.slope_set_distance", "bassserre.build_ball"} <= set(names)
    assert {"bassserre.qi_certificate.pairs", "bassserre.ball.vertices",
            "bassserre.free_product_check.words_checked", "projections.behrstock_scan.triples",
            "hypgraph.estimate_delta.quadruples"} <= set(counts)
