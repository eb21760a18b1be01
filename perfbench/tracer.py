"""Span tracing for the benchmark, applied from outside the program.

A `Tracer` wraps selected public functions of `rgflab` and records one span
(name, start, end, parent) per call in flat in-memory arrays.  The spans are
written to a file once the traced pass is over; `aggregate` turns a span file
back into per-name call counts, inclusive time and self time (a span's
duration minus the time its direct child spans cover).

Only layer entry points are wrapped.  Per-matrix and per-slope primitives
(`act`, `MappingClass.mul`, `annular_projection`) run millions of times and
are deliberately left alone, so tracing overhead stays a small share.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  An attribute "Class.method" patches the
# class, so every instance is traced.
TARGETS = [
    ("farey", "farey_distance", "farey.farey_distance"),
    ("farey", "slope_set_distance", "farey.slope_set_distance"),
    ("farey", "annular_distance", "farey.annular_distance"),
    ("farey", "farey_geodesic", "farey.farey_geodesic"),
    ("hypgraph", "estimate_delta", "hypgraph.estimate_delta"),
    ("hypgraph", "FareyOracle.dist", "hypgraph.oracle_dist"),
    ("projections", "estimate_constants", "projections.estimate_constants"),
    ("projections", "behrstock_scan", "projections.behrstock_scan"),
    ("projections", "bgit_scan", "projections.bgit_scan"),
    ("projections", "TorusAnnuli.proj_dist", "projections.proj_dist"),
    ("projections", "persistence_check", "projections.persistence_check"),
    ("subgroups", "enumerate_ball", "subgroups.enumerate_ball"),
    ("subgroups", "group_is_finite", "subgroups.group_is_finite"),
    ("raag", "normal_form", "raag.normal_form"),
    ("bassserre", "tree_distance", "bassserre.tree_distance"),
    ("bassserre", "qi_certificate", "bassserre.qi_certificate"),
    ("bassserre", "build_ball", "bassserre.build_ball"),
    ("bassserre", "phi", "bassserre.phi"),
    ("bassserre", "free_product_check", "bassserre.free_product_check"),
    ("bassserre", "loxodromic_scan", "bassserre.loxodromic_scan"),
    ("constructions", "twist_orbit_family", "constructions.twist_orbit_family"),
    ("constructions", "check_separated", "constructions.check_separated"),
    ("constructions", "check_misaligned", "constructions.check_misaligned"),
    ("constructions", "definite_distance_scan", "constructions.definite_distance_scan"),
    ("constructions", "gromov_bound_scan", "constructions.gromov_bound_scan"),
    ("constructions", "conjugate_twist_family", "constructions.conjugate_twist_family"),
    ("cli", "main", "cli.main"),
]


def _group_key(args, kwargs):
    group = args[0] if args else kwargs["group"]
    length = args[1] if len(args) > 1 else kwargs.get("length")
    return (tuple(g.entries() for g in group.generators),
            group.budget if length is None else length)


class Tracer:
    """Records spans and work counts for one traced pass."""

    def __init__(self):
        self.names: list = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack = [-1]
        self.counts = defaultdict(int)
        self._balls_seen = set()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[i] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        counts = self.counts
        if name == "subgroups.enumerate_ball":
            def note(args, kwargs, result):
                key = _group_key(args, kwargs)
                if key in self._balls_seen:
                    counts[name + ".repeats"] += 1
                self._balls_seen.add(key)
        elif name == "hypgraph.estimate_delta":
            def note(args, kwargs, result):
                counts[name + ".quadruples"] += result.quadruples_scanned
        elif name == "projections.behrstock_scan":
            def note(args, kwargs, result):
                counts[name + ".triples"] += result.scanned
        elif name == "bassserre.qi_certificate":
            def note(args, kwargs, result):
                counts[name + ".pairs"] += len(result.pairs)
        elif name == "bassserre.build_ball":
            def note(args, kwargs, result):
                counts["bassserre.ball.vertices"] += len(result.adjacency)
        elif name == "bassserre.free_product_check":
            def note(args, kwargs, result):
                counts[name + ".words_checked"] += result.words_checked
        else:
            note = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if note is not None:
                note(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every target at every `rgflab` module that binds it.

        `cli`, `bassserre`, `constructions` and `projections` import names
        with `from ... import`, so each binding is replaced, not only the
        defining one.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "rgflab" or n.startswith("rgflab."))]
        for modname, attr, name in TARGETS:
            owner = sys.modules["rgflab." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            orig = getattr(owner, attr)
            traced = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)

    def dump(self, path) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        ids = array("q", (index[n] for n in self.names))
        with open(path, "wb") as fh:
            fh.write((json.dumps({"names": table, "spans": len(ids)}) + "\n").encode())
            for arr in (ids, self.starts, self.ends, self.parents):
                arr.tofile(fh)


def load(path):
    """Read a span file back as (names, ids, starts, ends, parents)."""
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        n = head["spans"]
        out = []
        for code in ("q", "d", "d", "q"):
            arr = array(code)
            arr.fromfile(fh, n)
            out.append(arr)
    return (head["names"], *out)


def aggregate(path) -> dict:
    """{span name: {"calls", "incl_s", "self_s"}} from a span file."""
    names, ids, starts, ends, parents = load(path)
    n = len(ids)
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in names}
    for i in range(n):
        rec = out[names[ids[i]]]
        dur = ends[i] - starts[i]
        rec["calls"] += 1
        rec["incl_s"] += dur
        rec["self_s"] += dur - child[i]
    return out
