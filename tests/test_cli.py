import argparse
import ast
import csv
import hashlib
import inspect
import io
import json
import os
import random
import re
import shlex
import signal
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

from rgflab.cli import NO_VERDICT, PASS, FAIL, USAGE, build_parser, emit_csv, \
    family_from_json, family_to_json, main
from rgflab.constructions import slope_at_distance
from rgflab import cli, constructions
from rgflab.bassserre import FactorSpec, PairCounts, qi_report
from rgflab.farey import (INFINITY, MappingClass, Slope, act, bounded_vertices, farey_distance,
                          twist_about)
from rgflab.subgroups import MatrixGroup, canonical_reducing_system
from oracles import BfsOracle, is_geodesic, random_slope


@pytest.fixture
def family_file(tmp_path):
    a = Slope(0, 1)
    fam = [FactorSpec.twist("A", a, budget=2),
           FactorSpec.twist("B", slope_at_distance(a, 6), budget=2),
           FactorSpec.twist("C", slope_at_distance(a, 12), budget=2)]
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family_to_json(fam)))
    return str(path)


def run(argv, tmp_path, name="out.jsonl"):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    return code, lines, out


def run_farey(action, a, b, out):
    """Exit code and records of `farey action a b`; the slopes go after
    `--`, so a negative one is not read as an option."""
    code = main(["farey", action, "--output", str(out), "--", str(a), str(b)])
    return code, [json.loads(l) for l in out.read_text().splitlines()]


class TestFareyCommands:
    def test_dist(self, tmp_path):
        code, lines, _ = run(["farey", "dist", "1/0", "5/8"], tmp_path)
        assert code == PASS
        assert lines[1] == {"record": "farey-dist", "a": "1/0", "b": "5/8", "distance": 3}

    def test_geodesic(self, tmp_path):
        code, lines, _ = run(["farey", "geodesic", "0/1", "5/8"], tmp_path)
        assert code == PASS
        assert lines[1] == {"record": "farey-geodesic", "a": "0/1", "b": "5/8", "length": 3,
                            "vertices": ["0/1", "1/2", "2/3", "5/8"]}

    def test_usage_error(self):
        assert main(["farey", "dist", "1/0"]) == USAGE

    def test_distance_beyond_any_bfs_box(self, tmp_path):
        # 1000/1001 lies outside every denominator box a BFS check can afford
        code, lines, _ = run(["farey", "dist", "1/0", "1000/1001"], tmp_path)
        assert code == PASS and lines[1]["distance"] == 2

    @pytest.mark.parametrize("action", ["dist", "geodesic"])
    def test_huge_entries(self, action, tmp_path):
        b = act(twist_about(Slope(5, 8), 200), Slope(1, 3))
        code, lines = run_farey(action, INFINITY, b, tmp_path / "o.jsonl")
        assert code == PASS
        rec = lines[1]
        if action == "dist":
            assert rec == {"record": "farey-dist", "a": "1/0", "b": str(b),
                           "distance": farey_distance(INFINITY, b)}
        else:
            path = [Slope.parse(v) for v in rec["vertices"]]
            assert set(rec) == {"record", "a", "b", "length", "vertices"}
            assert path[0] == INFINITY and path[-1] == b and is_geodesic(path)

    def test_against_bfs_oracle_and_path_check(self, tmp_path):
        """The independent twins of the Farey kernels at the command line: on
        a seeded sample of pairs, `farey dist` is the BFS distance at two
        denominator bounds, and each `farey geodesic` path is a geodesic."""
        rng = random.Random(41)
        verts = bounded_vertices(7)
        oracles = BfsOracle(14), BfsOracle(28)
        for i in range(40):
            a, b = rng.sample(verts, 2)
            code, lines = run_farey("dist", a, b, tmp_path / f"d{i}.jsonl")
            assert code == PASS
            assert [o.distance(a, b) for o in oracles] == [lines[1]["distance"]] * 2, (a, b)
            code, lines = run_farey("geodesic", a, b, tmp_path / f"g{i}.jsonl")
            path = [Slope.parse(v) for v in lines[1]["vertices"]]
            assert code == PASS and path[0] == a and path[-1] == b
            assert is_geodesic(path) and len(path) - 1 == lines[1]["length"], (a, b)

    @pytest.mark.parametrize("action, field, value", [("dist", "distance", 2),
                                                      ("geodesic", "length", 2)])
    def test_negative_slopes_after_double_dash(self, action, field, value, tmp_path):
        # argparse reads a leading -1/2 as an option; after `--` it is a slope
        code, lines = run_farey(action, "-1/2", "1/3", tmp_path / "o.jsonl")
        assert code == PASS and lines[1][field] == value

    def test_module_entry_point(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}")
        done = subprocess.run([sys.executable, "-m", "rgflab", "farey", "dist", "1/0", "5/8"],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == PASS, done.stderr
        rec = json.loads(done.stdout.splitlines()[1])
        assert (rec["record"], rec["distance"]) == ("farey-dist", 3)


BAD_SLOPE_ROWS = [
    # (id, argv, the malformed slope)
    ("letters", ["farey", "dist", "abc", "1/2"], "abc"),
    ("zero-vector", ["farey", "dist", "0/0", "1/2"], "0/0"),
    ("second-argument", ["farey", "geodesic", "1/2", "1/x"], "1/x"),
]


@pytest.mark.parametrize("argv, bad", [r[1:] for r in BAD_SLOPE_ROWS],
                         ids=[r[0] for r in BAD_SLOPE_ROWS])
def test_malformed_slope_is_usage_error(argv, bad, family_file, tmp_path, capsys):
    out = tmp_path / "o.jsonl"
    argv = [family_file if tok == "FAMILY" else tok for tok in argv]
    assert main(argv + ["--output", str(out)]) == USAGE
    assert f"bad slope {bad!r}" in capsys.readouterr().err
    assert not out.exists()


# a flag the action does not take, refused by argparse before any work
CSV_REFUSED = "rgflab: error: unrecognized arguments: --format csv"


def betas_refused(name: str) -> str:
    return (f"usage error: bad family file {name}: "
            "ValueError(\"unknown family key 'betas', not one of factors\")")


BAD_INPUT_ROWS = [
    # (id, argv, last stderr line starts with); FAMILY is a valid family
    # file, the other capitalized tokens malformed ones (BAD_FAMILIES)
    ("kappa-zero", ["tree", "qi", "--family", "FAMILY", "--kappa", "0"],
     "rgflab tree qi: error: argument --kappa: must be at least 1, got 0"),
    ("kappa-negative", ["tree", "qi", "--family", "FAMILY", "--kappa", "-2"],
     "rgflab tree qi: error: argument --kappa: must be at least 1, got -2"),
    ("oracle-bound-zero", ["farey", "dist", "1/2", "3/4", "--oracle-bound", "0"],
     "rgflab: error: unrecognized arguments: --oracle-bound 0"),
    ("oracle-bound-negative", ["farey", "dist", "1/2", "3/4", "--oracle-bound", "-3"],
     "rgflab: error: unrecognized arguments: --oracle-bound -3"),
    ("dprime-5", ["experiment", "prop91", "--dprime", "5", "--seed", "1"],
     "rgflab experiment prop91: error: argument --dprime: must be at least 9, got 5"),
    ("D-7", ["experiment", "example92", "--D", "7", "--seed", "1"],
     "rgflab experiment example92: error: argument --D: must be at least 8, got 7"),
    ("truncated-family", ["tree", "qi", "--family", "TRUNCATED"],
     "usage error: bad family file TRUNCATED: JSONDecodeError("),
    ("determinant-2", ["cert", "separated", "--family", "DET2"],
     "usage error: bad family file DET2: ValueError('determinant must be 1')"),
    ("family-missing-key", ["tree", "build", "--family", "NOGENS"],
     "usage error: bad family file NOGENS: KeyError('generators')"),
    ("self-loop-edge", ["raag", "components", "--vertices", "2", "--edges", "[[0,0]]"],
     "usage error: bad --edges '[[0,0]]': ValueError('bad edge (0, 0)')"),
    ("truncated-edges", ["raag", "components", "--vertices", "2", "--edges", "[[0,1"],
     "usage error: bad --edges '[[0,1': JSONDecodeError("),
    ("edge-not-a-pair", ["raag", "nf", "--vertices", "2", "--edges", "[1]"],
     "usage error: bad --edges '[1]': TypeError("),
    # a float vertex ended in a TypeError traceback, and JSON true passed as
    # vertex 1 and was printed as a component [0, true]
    ("edge-float-vertex-components",
     ["raag", "components", "--vertices", "3", "--edges", "[[0,2.0]]"],
     "usage error: bad --edges '[[0,2.0]]': ValueError('bad edge (0, 2.0)')"),
    ("edge-fraction-vertex-nf", ["raag", "nf", "--vertices", "3", "--edges", "[[0,1.5]]"],
     "usage error: bad --edges '[[0,1.5]]': ValueError('bad edge (0, 1.5)')"),
    ("edge-bool-vertex-components",
     ["raag", "components", "--vertices", "3", "--edges", "[[0,true]]"],
     "usage error: bad --edges '[[0,true]]': ValueError('bad edge (0, True)')"),
    ("edge-bool-vertex-nf", ["raag", "nf", "--vertices", "3", "--edges", "[[0,true]]"],
     "usage error: bad --edges '[[0,true]]': ValueError('bad edge (0, True)')"),
    # a string vertex read like the valid edge (0, 1)
    ("edge-string-vertex", ["raag", "components", "--vertices", "2", "--edges", '[["0",1]]'],
     "usage error: bad --edges '[[\"0\",1]]': ValueError(\"bad edge ('0', 1)\")"),
    # a relation has at least two syllables: a smaller budget searched
    # nothing and still reported "no_relation": true
    ("free-product-budget-negative",
     ["tree", "free-product", "--family", "FAMILY", "--budget", "-3"],
     "rgflab tree free-product: error: argument --budget: must be at least 2, got -3"),
    ("free-product-budget-0", ["tree", "free-product", "--family", "FAMILY", "--budget", "0"],
     "rgflab tree free-product: error: argument --budget: must be at least 2, got 0"),
    ("free-product-budget-1", ["tree", "free-product", "--family", "FAMILY", "--budget", "1"],
     "rgflab tree free-product: error: argument --budget: must be at least 2, got 1"),
    ("experiment-budget-1", ["experiment", "theorem-b", "--budget", "1", "--seed", "1"],
     "rgflab experiment theorem-b: error: argument --budget: must be at least 2, got 1"),
    ("radius-negative", ["tree", "build", "--family", "FAMILY", "--radius", "-1"],
     "rgflab tree build: error: argument --radius: must be at least 0, got -1"),
    ("radius-not-an-integer", ["tree", "build", "--family", "FAMILY", "--radius", "abc"],
     "rgflab tree build: error: argument --radius: bad integer 'abc'"),
    ("max-length-2", ["persistence", "check", "--max-length", "2", "--seed", "1"],
     "rgflab persistence check: error: argument --max-length: must be at least 3, got 2"),
    # were tracebacks (ValueError from build_ball and the family builder)
    ("experiment-radius-negative", ["experiment", "prop91", "--radius", "-1", "--seed", "1"],
     "rgflab experiment prop91: error: argument --radius: must be at least 0, got -1"),
    ("window-0", ["experiment", "prop91", "--window", "0", "--seed", "1"],
     "rgflab experiment prop91: error: argument --window: must be at least 1, got 0"),
    # an empty scan passed: "violations": 0, or a loxodromic scan over no words
    ("sequences-0", ["persistence", "check", "--sequences", "0", "--seed", "1"],
     "rgflab persistence check: error: argument --sequences: must be at least 1, got 0"),
    ("sequences-negative", ["persistence", "check", "--sequences", "-2", "--seed", "1"],
     "rgflab persistence check: error: argument --sequences: must be at least 1, got -2"),
    ("words-negative", ["experiment", "theorem-b", "--words", "-1", "--seed", "1"],
     "rgflab experiment theorem-b: error: argument --words: must be at least 1, got -1"),
    # Gromov products and projection distances are never negative, so
    # A <= 0, D <= 0 or L <= 0 certified every family
    ("cert-A-negative", ["cert", "misaligned", "--family", "FAMILY", "--A", "-5"],
     "rgflab cert misaligned: error: argument --A: must be at least 1, got -5"),
    ("cert-D-negative", ["cert", "separated", "--family", "FAMILY", "--D", "-1"],
     "rgflab cert separated: error: argument --D: must be at least 1, got -1"),
    ("cert-L-0", ["cert", "displacing", "--family", "FAMILY", "--L", "0"],
     "rgflab cert displacing: error: argument --L: must be at least 1, got 0"),
    # constants estimated from no samples were reported as evidence
    ("curve-samples-0", ["experiment", "theorem-b", "--curve-samples", "0", "--seed", "1"],
     "rgflab experiment theorem-b: error: argument --curve-samples: must be at least 1, got 0"),
    # the Behrstock level is proven, not sampled, so theorem-b reads no
    # triple count; `constants estimate` keeps its --triples
    ("experiment-triples-0", ["experiment", "theorem-b", "--triples", "0", "--seed", "1"],
     "rgflab: error: unrecognized arguments: --triples 0"),
    ("experiment-geodesics-0", ["experiment", "theorem-b", "--geodesics", "0", "--seed", "1"],
     "rgflab experiment theorem-b: error: argument --geodesics: must be at least 1, got 0"),
    ("constants-triples-0", ["constants", "estimate", "--triples", "0", "--seed", "1"],
     "rgflab constants estimate: error: argument --triples: must be at least 1, got 0"),
    ("constants-geodesics-0", ["constants", "estimate", "--geodesics", "0", "--seed", "1"],
     "rgflab constants estimate: error: argument --geodesics: must be at least 1, got 0"),
    # a delta computed from no quadruples was reported as "delta": 0
    ("max-quadruples-0", ["delta-estimate", "--max-quadruples", "0", "--seed", "1"],
     "rgflab delta-estimate: error: argument --max-quadruples: must be at least 1, got 0"),
    ("max-quadruples-negative", ["delta-estimate", "--max-quadruples", "-5", "--seed", "1"],
     "rgflab delta-estimate: error: argument --max-quadruples: must be at least 1, got -5"),
    # below four points there is no quadruple: "delta": 0 from "quadruples": 0
    ("points-3", ["delta-estimate", "--points", "3", "--seed", "1"],
     "rgflab delta-estimate: error: argument --points: must be at least 4, got 3"),
    # bounds below any system's (M = 0, B = 1) made every hypothesis hold
    # vacuously and the check pass with "violations": 0
    ("persistence-M-negative", ["persistence", "check", "--M", "-1", "--seed", "1"],
     "rgflab persistence check: error: argument --M: must be at least 0, got -1"),
    ("persistence-B-0", ["persistence", "check", "--B", "0", "--seed", "1"],
     "rgflab persistence check: error: argument --B: must be at least 1, got 0"),
    # a factor budget of 0 enumerates no factor elements: prop91 passed on a
    # 3-pair QI certificate, theorem-b and example92 failed with a traceback
    # or an empty-factor certificate
    ("prop91-factor-budget-0", ["experiment", "prop91", "--factor-budget", "0", "--seed", "1"],
     "rgflab experiment prop91: error: argument --factor-budget: must be at least 1, got 0"),
    ("theorem-b-factor-budget-0",
     ["experiment", "theorem-b", "--factor-budget", "0", "--seed", "1"],
     "rgflab experiment theorem-b: error: argument --factor-budget: must be at least 1, got 0"),
    ("example92-factor-budget-0",
     ["experiment", "example92", "--factor-budget", "0", "--seed", "1"],
     "rgflab experiment example92: error: argument --factor-budget: must be at least 1, got 0"),
    ("family-factor-budget-0-free-product", ["tree", "free-product", "--family", "BUDGET0"],
     "usage error: bad family file BUDGET0: ValueError('factor budget must be at least 1, got 0')"),
    ("family-factor-budget-0-qi", ["tree", "qi", "--family", "BUDGET0"],
     "usage error: bad family file BUDGET0: ValueError('factor budget must be at least 1, got 0')"),
    # a budget of 1.5 ran the budget-2 search and exited 0
    ("family-factor-budget-fraction", ["tree", "free-product", "--family", "BUDGETHALF"],
     "usage error: bad family file BUDGETHALF: "
     "ValueError('factor budget must be an integer, got 1.5')"),
    ("family-factor-budget-bool", ["tree", "qi", "--family", "BUDGETBOOL"],
     "usage error: bad family file BUDGETBOOL: "
     "ValueError('factor budget must be an integer, got True')"),
    # int() truncated these entries: the full twists ran, and free-product
    # exited 0 with a relation
    ("family-generator-fraction", ["tree", "free-product", "--family", "GENFRACTION"],
     "usage error: bad family file GENFRACTION: "
     "ValueError('matrix entries must be four integers, got [1, 1.9, 0, 1]')"),
    ("family-generator-bool", ["tree", "free-product", "--family", "GENBOOL"],
     "usage error: bad family file GENBOOL: "
     "ValueError('matrix entries must be four integers, got [1, 0, True, 1]')"),
    # no coset image was well defined, and qi passed with the benchmark OK
    ("family-boundary-moved", ["tree", "qi", "--family", "MOVED", "--radius", "3"],
     "usage error: bad family file MOVED: "
     "ValueError('factor A has boundary 0/1, not its canonical reducing system 1/0')"),
    # the boundary is derived from the generators, so a declared one that
    # differs is refused by every action, ping-pong included
    ("family-boundary-moved-pingpong", ["cert", "pingpong", "--family", "MOVED"],
     "usage error: bad family file MOVED: "
     "ValueError('factor A has boundary 0/1, not its canonical reducing system 1/0')"),
    # a finite factor has no reducing system, so no coset image
    ("family-periodic-qi", ["tree", "qi", "--family", "PERIODIC", "--radius", "2"],
     "usage error: bad family file PERIODIC: "
     "ValueError('factor S has no canonical reducing system')"),
    # the coset images were empty: qi reported the benchmark OK from an
    # all-zero envelope, and misaligned passed as vacuous
    ("family-boundary-empty-qi", ["tree", "qi", "--family", "EMPTYBOUNDARY", "--radius", "2"],
     "usage error: bad family file EMPTYBOUNDARY: "
     "ValueError('factor B has boundary none, not its canonical reducing system 0/1')"),
    ("family-boundary-empty-misaligned", ["cert", "misaligned", "--family", "EMPTYBOUNDARY"],
     "usage error: bad family file EMPTYBOUNDARY: "
     "ValueError('factor B has boundary none, not its canonical reducing system 0/1')"),
    # -I alone has no nontrivial element, so its fans were empty: free-product
    # reported "no_relation": true from 4 words and qi passed
    ("family-central-free-product", ["tree", "free-product", "--family", "CENTRAL"],
     "usage error: bad family file CENTRAL: "
     "ValueError('factor A has boundary 1/0, not its canonical reducing system none')"),
    ("family-central-qi", ["tree", "qi", "--family", "CENTRAL", "--radius", "3"],
     "usage error: bad family file CENTRAL: "
     "ValueError('factor A has boundary 1/0, not its canonical reducing system none')"),
    # on the torus a curve system is one slope
    ("family-two-slope-boundary", ["tree", "qi", "--family", "TWOSLOPE"],
     "usage error: bad family file TWOSLOPE: ValueError(\"the boundary of factor S must be "
     "one slope, got ['0/1', '1/0']\")"),
    # a factor's displacing curve is its boundary, the one slope it fixes, so
    # a family file names none: a `betas` list, whatever it holds, is refused
    ("family-two-slope-beta", ["cert", "displacing", "--family", "BETAPAIR"],
     betas_refused("BETAPAIR")),
    ("family-empty-beta", ["cert", "displacing", "--family", "EMPTYBETA"],
     betas_refused("EMPTYBETA")),
    # a one-character string has length 1, and read as the slope 0/1 or as
    # no boundary
    ("family-string-boundary", ["cert", "separated", "--family", "STRBOUNDARY"],
     "usage error: bad family file STRBOUNDARY: "
     "ValueError(\"the boundary of factor B must be one slope, got '0'\")"),
    ("family-empty-string-boundary", ["cert", "pingpong", "--family", "BLANKBOUNDARY"],
     "usage error: bad family file BLANKBOUNDARY: "
     "ValueError(\"the boundary of factor S must be one slope, got ''\")"),
    ("family-string-beta", ["cert", "displacing", "--family", "STRBETA"],
     betas_refused("STRBETA")),
    # no factor: build and qi were `need at least one factor` tracebacks, the
    # four certificates exited 3 and free-product passed on 0 words
    ("family-no-factors-build", ["tree", "build", "--family", "NOFACTORS"],
     "usage error: bad family file NOFACTORS: ValueError('a family needs at least one factor')"),
    ("family-no-factors-qi", ["tree", "qi", "--family", "NOFACTORS"],
     "usage error: bad family file NOFACTORS: ValueError('a family needs at least one factor')"),
    ("family-no-factors-free-product", ["tree", "free-product", "--family", "NOFACTORS"],
     "usage error: bad family file NOFACTORS: ValueError('a family needs at least one factor')"),
    ("family-no-factors-pingpong", ["cert", "pingpong", "--family", "NOFACTORS"],
     "usage error: bad family file NOFACTORS: ValueError('a family needs at least one factor')"),
    # a short betas list was an IndexError traceback in the displacing scan,
    # and a long one was cut short
    ("family-betas-short", ["cert", "displacing", "--family", "SHORTBETAS"],
     betas_refused("SHORTBETAS")),
    ("family-betas-long", ["tree", "qi", "--family", "LONGBETAS"], betas_refused("LONGBETAS")),
    # any other key outside the schema would be read as absent too
    ("family-unknown-key", ["cert", "separated", "--family", "UNKNOWNKEY"],
     "usage error: bad family file UNKNOWNKEY: "
     "ValueError(\"unknown family key 'factor', not one of factors\")"),
    ("family-unknown-factor-key", ["tree", "build", "--family", "FACTORKEY"],
     "usage error: bad family file FACTORKEY: ValueError(\"unknown factor key 'power', "
     "not one of name, generators, boundary, budget\")"),
    # was a `need D' > 8` traceback
    ("theorem-b-delta-negative", ["experiment", "theorem-b", "--delta", "-5", "--seed", "1"],
     "rgflab experiment theorem-b: error: argument --delta: must be at least 0, got -5"),
    ("raag-vertices-negative", ["raag", "components", "--vertices", "-3"],
     "rgflab raag components: error: argument --vertices: must be at least 0, got -3"),
    # the displacing scan reads its candidate annuli exactly, so it takes no
    # shell bound
    ("shell-bound-negative",
     ["cert", "displacing", "--family", "FAMILY", "--shell-bound", "-1"],
     "rgflab: error: unrecognized arguments: --shell-bound -1"),
    # only three command forms write a pair table: the others printed JSON
    # and exited 0 under --format csv
    ("csv-farey-dist", ["farey", "dist", "1/0", "5/8", "--format", "csv"], CSV_REFUSED),
    ("csv-delta-estimate", ["delta-estimate", "--seed", "1", "--points", "6", "--qmax", "8",
                            "--format", "csv"], CSV_REFUSED),
    ("csv-tree-build", ["tree", "build", "--family", "FAMILY", "--radius", "2",
                        "--format", "csv"], CSV_REFUSED),
    ("csv-example92", ["experiment", "example92", "--seed", "7", "--format", "csv"], CSV_REFUSED),
    ("csv-from-config", ["delta-estimate", "--seed", "1", "--points", "6", "--qmax", "8",
                         "--config", "CSVCONFIG"],
     "usage error: unknown config key 'format' for delta-estimate"),
    # flags another action of the command reads: these exited 0 and echoed
    # the flag, at a threshold the run never checked
    ("ignored-prop91-D", ["experiment", "prop91", "--seed", "7", "--D", "30"],
     "rgflab: error: unrecognized arguments: --D 30"),
    ("ignored-tree-build-kappa", ["tree", "build", "--family", "FAMILY", "--kappa", "3"],
     "rgflab: error: unrecognized arguments: --kappa 3"),
    ("ignored-pingpong-L", ["cert", "pingpong", "--family", "FAMILY", "--L", "5"],
     "rgflab: error: unrecognized arguments: --L 5"),
    ("ignored-geodesic-oracle-bound", ["farey", "geodesic", "1/0", "5/8", "--oracle-bound", "8"],
     "rgflab: error: unrecognized arguments: --oracle-bound 8"),
    ("ignored-components-word", ["raag", "components", "--vertices", "2", "--word", "x1"],
     "rgflab: error: unrecognized arguments: --word x1"),
    # an action that draws nothing at random recorded the seed as if it
    # fixed the run
    ("seed-on-farey-dist", ["farey", "dist", "1/0", "5/8", "--seed", "3"],
     "rgflab: error: unrecognized arguments: --seed 3"),
    ("ignored-prop91-D-from-config", ["experiment", "prop91", "--seed", "7", "--config", "D30CONFIG"],
     "usage error: unknown config key 'D' for experiment prop91"),
    # a flag between the command and its action
    ("shared-flag-before-action", ["tree", "--family", "FAMILY", "qi"],
     "rgflab tree: error: argument action: invalid choice: 'FAMILY'"),
]

BAD_FAMILIES = {
    # config files, not families: one asks for a pair table, one for a
    # threshold prop91 does not read
    "CSVCONFIG": json.dumps({"format": "csv"}),
    "D30CONFIG": json.dumps({"D": 30}),
    "TRUNCATED": '{"factors": [',
    "DET2": json.dumps({"factors": [{"name": "A", "generators": [[2, 0, 0, 1]],
                                     "boundary": ["1/0"]}]}),
    "NOGENS": json.dumps({"factors": [{"name": "A", "boundary": ["1/0"]}]}),
    # the full-twist pair with factor budget 0: free-product reported
    # "no_relation": true from 0 words, qi passed on 1 pair
    "BUDGET0": json.dumps({"factors": [
        {"name": "A", "generators": [[1, 1, 0, 1]], "boundary": ["1/0"], "budget": 0},
        {"name": "B", "generators": [[1, 0, 1, 1]], "boundary": ["0/1"], "budget": 0}]}),
    "BUDGETHALF": json.dumps({"factors": [
        {"name": "A", "generators": [[1, 1, 0, 1]], "boundary": ["1/0"], "budget": 1.5},
        {"name": "B", "generators": [[1, 0, 1, 1]], "boundary": ["0/1"], "budget": 1.5}]}),
    "BUDGETBOOL": json.dumps({"factors": [
        {"name": "A", "generators": [[1, 1, 0, 1]], "boundary": ["1/0"], "budget": True},
        {"name": "B", "generators": [[1, 0, 1, 1]], "boundary": ["0/1"], "budget": 2}]}),
    "GENFRACTION": json.dumps({"factors": [
        {"name": "A", "generators": [[1, 1.9, 0, 1]], "boundary": ["1/0"]},
        {"name": "B", "generators": [[1, 0, 1, 1]], "boundary": ["0/1"]}]}),
    "GENBOOL": json.dumps({"factors": [
        {"name": "A", "generators": [[1, 1, 0, 1]], "boundary": ["1/0"]},
        {"name": "B", "generators": [[1, 0, True, 1]], "boundary": ["0/1"]}]}),
    # twists about 1/0 and 0/1 with the boundaries swapped
    "MOVED": json.dumps({"factors": [
        {"name": "A", "generators": [[1, 2, 0, 1]], "boundary": ["0/1"]},
        {"name": "B", "generators": [[1, 0, 2, 1]], "boundary": ["1/0"]}]}),
    # the shear pair with no boundary for its second factor
    "EMPTYBOUNDARY": json.dumps({"factors": [
        {"name": "A", "generators": [[1, 2, 0, 1]], "boundary": ["1/0"]},
        {"name": "B", "generators": [[1, 0, 2, 1]], "boundary": []}]}),
    # -I, which fixes every slope, beside the twist about 0/1
    "CENTRAL": json.dumps({"factors": [
        {"name": "A", "generators": [[-1, 0, 0, -1]], "boundary": ["1/0"]},
        {"name": "B", "generators": [[1, 0, 1, 1]], "boundary": ["0/1"]}]}),
    # a finite factor swapping 1/0 and 0/1 beside twists about 2/1 and -1/3
    "TWOSLOPE": json.dumps({"factors": [
        {"name": "S", "generators": [[0, -1, 1, 0]], "boundary": ["0/1", "1/0"], "budget": 2},
        {"name": "T", "generators": [[-1, 4, -1, 3]], "boundary": ["2/1"], "budget": 2},
        {"name": "U", "generators": [[4, 1, -9, -2]], "boundary": ["-1/3"], "budget": 2}]}),
    # the swap of 1/0 and 0/1, of order 4, beside the twist about 0/1
    "PERIODIC": json.dumps({"factors": [
        {"name": "S", "generators": [[0, -1, 1, 0]], "boundary": []},
        {"name": "T", "generators": [[1, 0, 1, 1]], "boundary": ["0/1"]}]}),
    "BETAPAIR": json.dumps({"factors": [
        {"name": "A", "generators": [[1, 2, 0, 1]], "boundary": ["1/0"]}],
        "betas": [["1/0", "0/1"]]}),
    "EMPTYBETA": json.dumps({"factors": [
        {"name": "A", "generators": [[1, 2, 0, 1]], "boundary": ["1/0"]}],
        "betas": [[]]}),
    "NOFACTORS": json.dumps({"factors": []}),
    # the full twists about 1/0 and 0/1, with 0/1 as the string "0"
    # (`cert separated` exited 1 on it, with a displacing curve 1/1 given as
    # the string "0" as well, both read as 0/1)
    "STRBOUNDARY": json.dumps({"factors": [
        {"name": "A", "generators": [[1, 1, 0, 1]], "boundary": ["1/0"]},
        {"name": "B", "generators": [[1, 0, 1, 1]], "boundary": "0"}]}),
    "STRBETA": json.dumps({"factors": [
        {"name": "A", "generators": [[1, 1, 0, 1]], "boundary": ["1/0"]},
        {"name": "B", "generators": [[1, 0, 1, 1]], "boundary": ["0/1"]}],
        "betas": [["1/1"], "0"]}),
    # the swap of 1/0 and 0/1, of order 4, whose empty string read as no
    # boundary, beside the twist about 0/1
    "BLANKBOUNDARY": json.dumps({"factors": [
        {"name": "S", "generators": [[0, -1, 1, 0]], "boundary": ""},
        {"name": "T", "generators": [[1, 0, 1, 1]], "boundary": ["0/1"]}]}),
    # the shear pair with one displacing curve, and one twist with two
    "SHORTBETAS": json.dumps({"factors": [
        {"name": "A", "generators": [[1, 2, 0, 1]], "boundary": ["1/0"]},
        {"name": "B", "generators": [[1, 0, 2, 1]], "boundary": ["0/1"]}],
        "betas": [["1/1"]]}),
    "LONGBETAS": json.dumps({"factors": [
        {"name": "A", "generators": [[1, 2, 0, 1]], "boundary": ["1/0"]}],
        "betas": [["0/1"], ["1/1"]]}),
    # the shear pair with the family key misspelt, and a factor with a power
    "UNKNOWNKEY": json.dumps({"factor": [
        {"name": "A", "generators": [[1, 2, 0, 1]], "boundary": ["1/0"]},
        {"name": "B", "generators": [[1, 0, 2, 1]], "boundary": ["0/1"]}]}),
    "FACTORKEY": json.dumps({"factors": [
        {"name": "A", "generators": [[1, 1, 0, 1]], "boundary": ["1/0"], "power": 2}]}),
}


@pytest.mark.parametrize("argv, err_start", [r[1:] for r in BAD_INPUT_ROWS],
                         ids=[r[0] for r in BAD_INPUT_ROWS])
def test_bad_input_is_usage_error(argv, err_start, family_file, tmp_path, capsys):
    files = {"FAMILY": family_file}
    for name, text in BAD_FAMILIES.items():
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(text)
    out = tmp_path / "o.jsonl"
    assert main([files.get(tok, tok) for tok in argv] + ["--output", str(out)]) == USAGE
    err = capsys.readouterr().err
    for name, path in files.items():
        err_start = err_start.replace(name, path)
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(err_start)
    if err_start.startswith("usage error:"):
        assert len(err.splitlines()) == 1
    assert not out.exists()


def subparsers(parser: argparse.ArgumentParser) -> dict:
    """The parsers of `parser`'s subcommands by name, or {} when it has none."""
    found = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return found[0].choices if found else {}


def action_parsers() -> dict:
    """The parser of every command action, by its prog (`rgflab tree qi`)."""
    found = {}
    for command in cli.COMMANDS:
        parser = subparsers(build_parser(command))[command]
        for action in subparsers(parser).values() or [parser]:
            found[action.prog] = action
    return found


def test_every_integer_flag_has_a_least_value():
    # every integer is a valid seed; any other bare `int` flag accepts
    # values (0, negatives) that make scans empty or certificates vacuous
    parsers = action_parsers()
    assert len(parsers) == 17
    bare = sorted({opt for sub in parsers.values() for action in sub._actions
                   if action.type is int and "--seed" not in action.option_strings
                   for opt in action.option_strings})
    assert bare == []


# read by `main`, not by the handlers
MAIN_FLAGS = {"help", "config", "output", "format"}


def loaded_args(func) -> set:
    """The `args.<name>` loads of `func`, and of every `cli` function it
    passes `args` to."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args" and isinstance(node.ctx, ast.Load)):
            names.add(node.attr)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
            names |= loaded_args(getattr(cli, node.func.id))
    return names


def unread_flags(parser: argparse.ArgumentParser) -> list:
    """The flags and positionals of an action's parser that its handler
    never reads."""
    loaded = loaded_args(parser.get_default("func"))
    return sorted(a.dest for a in parser._actions
                  if a.dest not in MAIN_FLAGS and a.dest not in loaded)


def test_every_flag_is_read():
    # a flag the handler drops exits 0 and is echoed as if it were checked
    assert {prog: unread_flags(p) for prog, p in action_parsers().items()
            if unread_flags(p)} == {}


def test_unread_flag_guard_fires():
    parser = argparse.ArgumentParser(prog="rgflab cert pingpong")
    parser.add_argument("--family")
    parser.add_argument("--planted", type=int)
    parser.set_defaults(func=cli.cmd_cert_pingpong)
    assert unread_flags(parser) == ["planted"]


def test_csv_is_refused_before_the_run(monkeypatch, tmp_path, capsys):
    def run_started(*args, **kw):
        raise RuntimeError("example92 ran")
    for module in (cli, constructions):
        monkeypatch.setattr(module, "conjugate_twist_family", run_started)
    argv = ["experiment", "example92", "--seed", "7"]
    with pytest.raises(RuntimeError, match="example92 ran"):
        main(argv)
    out = tmp_path / "o.jsonl"
    assert main(argv + ["--format", "csv", "--output", str(out)]) == USAGE
    assert capsys.readouterr().err.splitlines()[-1] == CSV_REFUSED
    assert not out.exists()


class CommandHung(BaseException):
    """Raised by the alarm; not an Exception, so no handler in main swallows it."""


@pytest.fixture
def deadline():
    """Fail a command that does not return within 30 s instead of hanging."""
    def expire(signum, frame):
        raise CommandHung("the command did not return within 30 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


SLOPE_SAMPLE_ROWS = [
    # (id, argv, exit code, last stderr line starts with); sampled slope
    # sets draw q <= qmax and |p| <= qmax until they hold --points slopes
    ("points-exceed-slopes", ["delta-estimate", "--points", "50", "--qmax", "1"], USAGE,
     "usage error: --points 50 exceeds the 4 slopes with q <= 1 and |p| <= 1 (--qmax)"),
    ("points-exceed-counted", ["delta-estimate", "--points", "9", "--qmax", "2"], USAGE,
     "usage error: --points 9 exceeds the 8 slopes with q <= 2 and |p| <= 2 (--qmax)"),
    ("points-equal-q1-slopes", ["delta-estimate", "--points", "4", "--qmax", "1"], PASS, None),
    ("points-equal-counted", ["delta-estimate", "--points", "8", "--qmax", "2"], PASS, None),
    ("points-zero", ["delta-estimate", "--points", "0"], USAGE,
     "rgflab delta-estimate: error: argument --points: must be at least 4, got 0"),
    ("delta-qmax-zero", ["delta-estimate", "--qmax", "0"], USAGE,
     "rgflab delta-estimate: error: argument --qmax: must be at least 1, got 0"),
    ("delta-qmax-negative", ["delta-estimate", "--qmax", "-1"], USAGE,
     "rgflab delta-estimate: error: argument --qmax: must be at least 1, got -1"),
    ("constants-qmax-zero", ["constants", "estimate", "--qmax", "0"], USAGE,
     "rgflab constants estimate: error: argument --qmax: must be at least 1, got 0"),
    ("experiment-qmax-zero", ["experiment", "theorem-b", "--qmax", "0"], USAGE,
     "rgflab experiment theorem-b: error: argument --qmax: must be at least 1, got 0"),
]


@pytest.mark.parametrize("argv, code, err_start", [r[1:] for r in SLOPE_SAMPLE_ROWS],
                         ids=[r[0] for r in SLOPE_SAMPLE_ROWS])
def test_sampled_slope_set_returns(argv, code, err_start, deadline, tmp_path, capsys):
    out = tmp_path / "o.jsonl"
    assert main(argv + ["--seed", "1", "--output", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == PASS:
        rec = json.loads(out.read_text().splitlines()[1])
        assert rec["points"] == int(argv[2]) and rec["exhaustive"]
        return
    assert err.splitlines()[-1].startswith(err_start)
    assert not out.exists()


BAD_PATH_ROWS = [
    # (id, argv, stderr); DIR is an existing directory, FAMILY a valid
    # family file
    ("family-is-directory", ["tree", "build", "--family", "DIR"],
     "usage error: cannot read family file DIR: [Errno 21] Is a directory: 'DIR'"),
    ("family-missing", ["tree", "build", "--family", "DIR/none.json"],
     "usage error: cannot read family file DIR/none.json: [Errno 2] No such file or "
     "directory: 'DIR/none.json'"),
    ("output-is-directory", ["farey", "dist", "1/0", "5/8", "--output", "DIR"],
     "usage error: cannot write report DIR: [Errno 21] Is a directory: 'DIR'"),
    ("output-parent-missing", ["farey", "dist", "1/0", "5/8", "--output", "DIR/no/o.jsonl"],
     "usage error: cannot write report DIR/no/o.jsonl: [Errno 2] No such file or "
     "directory: 'DIR/no/o.jsonl'"),
    ("csv-output-is-directory", ["tree", "qi", "--family", "FAMILY", "--radius", "1",
                                 "--format", "csv", "--output", "DIR"],
     "usage error: cannot write report DIR: [Errno 21] Is a directory: 'DIR'"),
]


@pytest.mark.parametrize("argv, err", [r[1:] for r in BAD_PATH_ROWS],
                         ids=[r[0] for r in BAD_PATH_ROWS])
def test_bad_path_is_usage_error(argv, err, family_file, tmp_path, capsys):
    d = str(tmp_path / "d")
    os.mkdir(d)
    files = {"FAMILY": family_file}
    argv = [files.get(tok, tok.replace("DIR", d)) for tok in argv]
    assert main(argv) == USAGE
    assert capsys.readouterr().err.splitlines() == [err.replace("DIR", d)]
    assert os.listdir(d) == []


# valid factors (twists about 1/0, 0/1, 2/1 and -1/3, the shear pair, and a
# finite factor that only ping-pong accepts), and wrong-typed values
FUZZ_FACTORS = [
    {"name": "A", "generators": [[1, 1, 0, 1]], "boundary": ["1/0"]},
    {"name": "B", "generators": [[1, 0, 1, 1]], "boundary": ["0/1"], "budget": 1},
    {"name": "C", "generators": [[1, 2, 0, 1]], "boundary": ["1/0"]},
    {"name": "D", "generators": [[1, 0, 2, 1]], "boundary": ["0/1"]},
    {"name": "T", "generators": [[-1, 4, -1, 3]], "boundary": ["2/1"], "budget": 1},
    {"name": "U", "generators": [[4, 1, -9, -2]], "boundary": ["-1/3"], "budget": 1},
    {"name": "S", "generators": [[0, -1, 1, 0]], "boundary": []},
]
FUZZ_JUNK = [None, 0, -1, 1.5, True, "", "x", "1/0", "0/0", [], [[]], {}, [1, 2],
             ["1/0", "0/1"], ["1/x"], [[1, 1, 0]], [["a"]], [[1, 1, 0, 1], [1, 0, 1, 1]],
             {"name": "A"}]
FUZZ_ACTIONS = [["tree", "build", "--radius", "2"], ["tree", "qi", "--radius", "2"],
                ["tree", "free-product", "--budget", "3"], ["cert", "separated"],
                ["cert", "misaligned"], ["cert", "displacing"],
                ["cert", "pingpong"]]


def fuzz_family(rng: random.Random):
    """A family document: valid factors, some with a field dropped or given a
    wrong type, an empty or junk factor list, and betas of any length, a key
    outside the schema."""
    if rng.random() < 0.05:
        return rng.choice(FUZZ_JUNK)
    factors = []
    for _ in range(rng.choice([0, 1, 2, 2, 3])):
        fd = dict(rng.choice(FUZZ_FACTORS))
        if rng.random() < 0.2:
            key = rng.choice(["name", "generators", "boundary", "budget"])
            if rng.random() < 0.3:
                fd.pop(key, None)
            else:
                fd[key] = rng.choice(FUZZ_JUNK)
        factors.append(fd if rng.random() < 0.95 else rng.choice(FUZZ_JUNK))
    doc = {"factors": factors if rng.random() < 0.95 else rng.choice(FUZZ_JUNK)}
    if rng.random() < 0.05:
        del doc["factors"]
    if rng.random() < 0.4:
        n = max(0, len(factors) + rng.choice([-1, 0, 0, 1]))
        doc["betas"] = [[rng.choice(["1/0", "0/1", "1/1", "2/1"])] for _ in range(n)]
        if n and rng.random() < 0.3:
            doc["betas"][rng.randrange(n)] = rng.choice(FUZZ_JUNK)
    return doc


def test_family_fuzz_exits_with_a_documented_code(tmp_path, capsys):
    # seeded documents, each on one family action in turn: every call
    # returns an exit code of the CLI, and none raises; a document with
    # betas is a usage error
    rng = random.Random(26)
    family, out = tmp_path / "family.json", str(tmp_path / "o.jsonl")
    betas = 0
    for case in range(300):
        doc = fuzz_family(rng)
        family.write_text(json.dumps(doc))
        action = FUZZ_ACTIONS[case % len(FUZZ_ACTIONS)]
        code = main(action + ["--family", str(family), "--output", out])
        assert code in (PASS, FAIL, USAGE, NO_VERDICT), (case, action, family.read_text())
        if isinstance(doc, dict) and "betas" in doc:
            betas += 1
            assert code == USAGE, (case, action, family.read_text())
    assert betas > 100
    assert "Traceback" not in capsys.readouterr().err


# --- the exit-code contract under a seeded fuzz of every action ------------

# the record fields whose value false marks a failed check; a persistence
# summary's `violations` count above 0 marks one too, and exit 1 needs one
CHECK_FIELDS = {"ok", "window_ok", "fails_at_2", "separation_ok", "conclusions_ok",
                "benchmark_half_dT_minus_4", "kappa_given_ok", "separated_at_D",
                "misaligned_at_A", "no_relation", "all_loxodromic"}
FUZZ_ODD_VERTICES = [0.0, 1.0, 2.5, True, None, "0", [0]]
FUZZ_WORD_TOKENS = ["x1", "x2^-1", "x3^2", "x1^0", "x2^+3"]
FUZZ_BAD_TOKENS = ["x0", "x9", "y1", "x1^", "x1^a", "x1^2.0"]


def failed_check(records) -> bool:
    def failed(rec):
        return any(v is False if k in CHECK_FIELDS else isinstance(v, dict) and failed(v)
                   for k, v in rec.items()) or rec.get("violations", 0) > 0
    return any(failed(rec) for rec in records)


def action_flags():
    """(command words, flags) of every action in `cli.COMMANDS`."""
    return [([command] + ([action] if action else []), flags)
            for command, (_, actions) in cli.COMMANDS.items()
            for action, (_, flags) in actions.items()]


def least_value(convert) -> int:
    """The least value an integer flag's type accepts."""
    for value in range(-1, 20):
        try:
            convert(str(value))
            return value
        except argparse.ArgumentTypeError:
            pass
    raise AssertionError("no least value below 20")


def fuzz_value(name: str, kw: dict, rng: random.Random, families: list, dirt: float):
    """A value for flag `name` drawn from its kind, valid or near the edge of
    valid, or with probability `dirt` junk."""
    kind = kw.get("type")
    if rng.random() < dirt:
        return rng.choice(["", "x", "1.5", "1e3", "[", "-"])
    if "choices" in kw:
        return rng.choice([*kw["choices"], "xml"])
    if kind is cli._slope_arg:
        return rng.choice([f"{rng.randint(-5, 5)}/{rng.randint(-2, 5)}", str(rng.randint(-9, 9)),
                           "1/0", "-1/0", "355/113", "1/2/3", " 3/4"])
    if kind is int:
        return str(rng.randint(-3, 40))
    if kind is not None:
        return str(least_value(kind) + rng.choice([-1, 0, 1, 2]) if rng.random() < dirt
                   else least_value(kind) + rng.choice([0, 1, 2, 3]))
    if name == "--edges":
        edges = rng.sample([[0, 1], [1, 2], [0, 2], [2, 3]], rng.randrange(4))
        if edges and rng.random() < 0.5:
            rng.choice(edges)[rng.randrange(2)] = rng.choice(FUZZ_ODD_VERTICES)
        if rng.random() >= dirt:
            return json.dumps(edges)
        return rng.choice([json.dumps(edges)[:-1], json.dumps({"e": edges}),
                           json.dumps([e[:1] for e in edges]), json.dumps([e + e for e in edges])])
    if name == "--word":
        return " ".join(rng.choice(FUZZ_BAD_TOKENS if rng.random() < dirt else FUZZ_WORD_TOKENS)
                        for _ in range(rng.randrange(4)))
    if name == "--family":
        return rng.choice(families)
    raise AssertionError(f"no fuzz kind for {name}")


def fuzz_argv(words, flags, rng: random.Random, families: list, conf) -> list:
    """argv for the action: each optional flag present with probability 0.8,
    now and then an unknown flag or no required one, and some values moved
    to a `--config` file, in a clean case as they are and in a dirty one with
    a JSON type of their own."""
    argv, config = list(words), {}
    dirt = rng.choice([0, 0, 0.05, 0.3])
    for name, kw in flags.items():
        if rng.random() < (dirt if kw.get("required") or not name.startswith("--") else 0.2):
            continue
        value = fuzz_value(name, kw, rng, families, dirt)
        if name.startswith("--") and rng.random() < 0.15:
            config[name[2:].replace("-", "_")] = rng.choice(
                [[value], {"v": value}, True, None, 2.5, 7] if rng.random() < dirt else [value])
        elif name.startswith("--"):
            argv.append(f"{name}={value}")
        else:
            argv.append(value)
    if rng.random() < dirt:
        argv.append("--bogus")
    if config:
        conf.write_text(json.dumps(config))
        argv += ["--config", str(conf)]
    return argv


@pytest.mark.parametrize("words, flags", action_flags(),
                         ids=["-".join(words) for words, _ in action_flags()])
def test_exit_code_fuzz(words, flags, family_file, tmp_path, capsys):
    # seeded argv for each action from its flags' kinds, run in process: an
    # exit code of the contract and no traceback, and exit 1 only with a
    # record whose check failed
    one, junk = tmp_path / "one.json", tmp_path / "junk.json"
    one.write_text(json.dumps(ONE_TWIST))
    junk.write_text('{"factors": [{"name": 1}]}')
    families = [family_file, str(one), str(junk), str(tmp_path / "missing.json")]
    rng = random.Random(" ".join(words))
    for case in range(30):
        argv = fuzz_argv(words, flags, rng, families, tmp_path / "conf.json")
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (PASS, FAIL, USAGE, NO_VERDICT) and "Traceback" not in err, (argv, err)
        if code == FAIL:
            if not out.startswith("{"):    # a CSV run writes no records
                main(argv + ["--format", "json"])
                out = capsys.readouterr().out
            assert failed_check(json.loads(line) for line in out.splitlines()), (argv, out)


class TestSeedHandling:
    def test_seed_required_for_sampled(self, tmp_path, monkeypatch):
        # the environment is no source of the seed
        monkeypatch.setenv("RGFLAB_SEED", "5")
        assert main(["delta-estimate", "--points", "8", "--qmax", "10"]) == USAGE

    def test_seed_from_config(self, tmp_path):
        # a required flag may come from the config file alone
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"seed": 5}))
        code, lines, _ = run(["delta-estimate", "--points", "8", "--qmax", "10",
                              "--config", str(conf)], tmp_path)
        assert code == PASS and lines[0]["seed"] == lines[1]["seed"] == 5


class TestRaagCommands:
    def test_nf(self, tmp_path):
        code, lines, _ = run(["raag", "nf", "--vertices", "2", "--word", "x1^0 x2"],
                             tmp_path)
        assert code == PASS and lines[1]["normal_form"] == "x2"

    def test_nf_report_is_pinned(self, tmp_path):
        """Byte for byte, a report whose word reorders, drops a zero
        exponent, cancels and merges."""
        text = "x3 x2 x4^-2 x1 x2^-1 x4 x3^2 x2 x1^-1 x4^0 x2 x2^-1 x3^-1 x3^3"
        edges = "[[0,1],[1,2],[2,3]]"
        code, _, out = run(["raag", "nf", "--vertices", "4", "--edges", edges,
                            "--word", text], tmp_path)
        assert code == PASS
        assert out.read_text() == (
            f'{{"action": "nf", "command": "raag", "edges": "{edges}", "record": "config", '
            f'"vertices": 4, "word": "{text}"}}\n'
            f'{{"input": "{text}", "normal_form": '
            f'"x2 x3 x4^-2 x1 x2^-1 x3^2 x4 x1^-1 x2 x3^2", "record": "raag-nf"}}\n')

    def test_empty_normal_form_prints_one(self, tmp_path):
        code, lines, _ = run(["raag", "nf", "--vertices", "2", "--word", "x1 x2 x2^-1 x1^-1"],
                             tmp_path)
        assert code == PASS and lines[1]["normal_form"] == "1"

    def test_generator_out_of_range_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o.jsonl"
        assert main(["raag", "nf", "--vertices", "2", "--word", "x1 x3",
                     "--output", str(out)]) == USAGE
        assert capsys.readouterr().err.splitlines() == [
            "usage error: generator x3 outside graph with 2 vertices"]
        assert not out.exists()

    @pytest.mark.parametrize("text", ["x0", "y1", "x1^", "x1^2^3", "xa"])
    def test_bad_syllable_is_usage_error(self, text, capsys):
        assert main(["raag", "nf", "--vertices", "2", "--word", text]) == USAGE
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_components(self, tmp_path):
        code, lines, _ = run(["raag", "components", "--vertices", "4",
                              "--edges", "[[0,1],[2,3]]"], tmp_path)
        assert lines[1]["components"] == [[0, 1], [2, 3]]


class TestTreeAndCert(object):
    def test_tree_build(self, family_file, tmp_path):
        code, lines, _ = run(["tree", "build", "--family", family_file,
                              "--radius", "2"], tmp_path)
        assert code == PASS
        assert lines[1]["record"] == "tree-ball" and lines[1]["type1"] == 3

    def test_tree_qi_writes_csv(self, family_file, tmp_path):
        code, lines, out = run(["tree", "qi", "--family", family_file,
                                "--radius", "2"], tmp_path)
        assert code == PASS
        csv_text = (tmp_path / "out.jsonl.csv").read_text()
        assert csv_text.splitlines()[0] == "d_T,d_S"

    def test_csv_bytes_across_pieces(self, tmp_path):
        """Groups of equal rows longer than a piece give the bytes of
        `csv.writer` on the sorted rows."""
        pairs = PairCounts({(4, 3): 8192, (2, 1): 2 * 8192 + 5, (2, 0): 1, (6, 9): 8191})
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["d_T", "d_S"])
        writer.writerows(sorted(pairs.elements()))
        emit_csv(pairs, str(tmp_path / "t.csv"))
        assert (tmp_path / "t.csv").read_bytes() == want.getvalue().encode()

    def test_csv_memory_is_bounded(self):
        """Ten million equal rows go out in pieces, never as one string of
        about 50 MB."""
        tracemalloc.start()
        try:
            emit_csv(PairCounts({(2, 1): 10 ** 7}), os.devnull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_pair_counts_past_index_size(self, monkeypatch):
        """2**70 pairs, past what `len` can return: the verdict reads
        `bool` and the qi-certificate record reads `total()`."""
        huge = PairCounts({(2, 1): 2 ** 70, (4, 3): 1})
        with pytest.raises(OverflowError):
            len(huge)
        assert huge and not PairCounts() and not PairCounts({(2, 1): 0})
        assert (cli._verdict(True, huge), cli._verdict(False, huge)) == (PASS, FAIL)
        monkeypatch.setattr(cli, "qi_certificate",
                            lambda factors, radius, kappa: qi_report(huge, kappa))
        rep, rec = cli._qi_certificate([], 3)
        assert rep.pairs is huge and rep.benchmark_ok
        assert (rec["pairs"], rec["kappa_witness"]) == (2 ** 70 + 1, 1)

    @pytest.mark.parametrize("argv", [
        ["tree", "qi", "--family", "FAMILY"],
        ["experiment", "prop91", "--radius", "4", "--seed", "7"],
        ["experiment", "theorem-b", "--radius", "2", "--seed", "11"]])
    def test_qi_certificate_builds_no_ball(self, argv, family_file, tmp_path, monkeypatch):
        """The scan walks coset types, so only `tree build` builds a ball."""
        argv = [family_file if tok == "FAMILY" else tok for tok in argv]
        code, _, out = run(argv, tmp_path, "a.jsonl")

        def no_ball(factors, radius):
            raise AssertionError("build_ball called")
        monkeypatch.setattr(cli, "build_ball", no_ball)
        assert run(argv, tmp_path, "b.jsonl")[0] == code
        assert out.read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        assert Path(f"{out}.csv").read_bytes() == (tmp_path / "b.jsonl.csv").read_bytes()

    def test_tree_qi_kappa_failure_exits_one(self, tmp_path):
        # adjacent twist factors: image curves collide, so kappa = 1
        # cannot hold and the failure report carries the envelope witness
        fam = [FactorSpec.twist("A", INFINITY, budget=2),
               FactorSpec.twist("B", Slope(0, 1), budget=2)]
        path = tmp_path / "adjacent.json"
        path.write_text(json.dumps(family_to_json(fam)))
        code, lines, _ = run(["tree", "qi", "--family", str(path),
                              "--radius", "3", "--kappa", "1"], tmp_path)
        assert code == FAIL
        assert lines[1]["kappa_given_ok"] is False
        assert lines[1]["envelope"]       # witness data accompanies the failure

    def test_tree_free_product(self, family_file, tmp_path):
        code, lines, _ = run(["tree", "free-product", "--family", family_file,
                              "--budget", "4"], tmp_path)
        assert code == PASS and lines[1]["no_relation"]

    def test_cert_separated(self, family_file, tmp_path):
        code, lines, _ = run(["cert", "separated", "--family", family_file,
                              "--D", "5"], tmp_path)
        assert code == PASS and lines[1]["min"] >= 5

    def test_cert_separated_fails_with_witness(self, family_file, tmp_path):
        code, lines, _ = run(["cert", "separated", "--family", family_file,
                              "--D", "50"], tmp_path)
        assert code == FAIL
        assert lines[1]["min"] < 50 and lines[1]["matrix"]

    def test_cert_misaligned(self, family_file, tmp_path):
        code, lines, _ = run(["cert", "misaligned", "--family", family_file,
                              "--A", "1"], tmp_path)
        assert lines[1]["record"] == "cert-misaligned"

    def test_cert_displacing_fails_on_miss(self, family_file, tmp_path):
        # the scan reads every annulus next to each curve, so a miss is a failure
        code, lines, _ = run(["cert", "displacing", "--family", family_file,
                              "--L", "90"], tmp_path)
        assert code == FAIL
        assert lines[1]["misses"] and all(t[4] < 90 for t in lines[1]["misses"])

    @pytest.mark.parametrize("generator, power, code, windows, pair", [
        # the e=2 shear pair is free (Sanov); full twists are not
        ([1, 2, 0, 1], 2, PASS, ["[-1, 1]", "[-1, 1]"], None),
        ([1, 1, 0, 1], 1, NO_VERDICT, ["[-1/2, 1/2]", "[-1/2, 1/2]"], [0, 1]),
        ([2, 1, 1, 1], 2, NO_VERDICT, [], None),        # a pseudo-Anosov factor
    ], ids=["shear-pair", "full-twists", "pseudo-anosov"])
    def test_cert_pingpong(self, generator, power, code, windows, pair, tmp_path):
        fam = [FactorSpec("A", MatrixGroup.of(generator)),
               FactorSpec.twist("B", Slope(0, 1), power=power)]
        path = tmp_path / "family.json"
        path.write_text(json.dumps(family_to_json(fam)))
        got, lines, _ = run(["cert", "pingpong", "--family", str(path)], tmp_path)
        assert got == code
        rec = lines[1]
        assert (rec["record"], rec["certified"], rec["windows"], rec["failing_pair"]) == (
            "cert-pingpong", code == PASS, windows, pair)
        assert (rec["reason"] is None) == (code == PASS)

    def test_missing_family_file(self):
        assert main(["cert", "separated", "--family", "/nonexistent.json"]) == USAGE


# one twist about 1/0, and the shear pair
ONE_TWIST = {"factors": [{"name": "A", "generators": [[1, 1, 0, 1]], "boundary": ["1/0"]}]}
SHEAR = {"factors": [{"name": "A", "generators": [[1, 2, 0, 1]], "boundary": ["1/0"]},
                     {"name": "B", "generators": [[1, 0, 2, 1]], "boundary": ["0/1"]}]}
SCAN_FAMILIES = {
    "ONE": ONE_TWIST,
    "SHEAR": SHEAR,
}

NO_VERDICT_ROWS = [
    # (id, argv, exit code, record, fields that show why); an empty scan is
    # no verdict, and a failed check still exits 1
    ("qi-one-factor", ["tree", "qi", "--family", "ONE", "--radius", "4"], NO_VERDICT,
     "qi-certificate", {"pairs": 0, "benchmark_half_dT_minus_4": True}),
    ("qi-radius-0", ["tree", "qi", "--family", "SHEAR", "--radius", "0"], NO_VERDICT,
     "qi-certificate", {"pairs": 0}),
    # the shear pair generates Gamma(2): free, but A B^-1 has trace -2, an
    # accidental parabolic, so it is not RGF; the finite-radius benchmark
    # check first fails at radius 8
    ("qi-shear-radius-8", ["tree", "qi", "--family", "SHEAR", "--radius", "8"], FAIL,
     "qi-certificate", {"benchmark_half_dT_minus_4": False}),
    ("displacing-one-factor", ["cert", "displacing", "--family", "ONE"], NO_VERDICT,
     "cert-displacing", {"min_margin": None, "misses": [], "ok": True}),
    ("separated-one-factor", ["cert", "separated", "--family", "ONE"], NO_VERDICT,
     "cert-separated", {"min": None, "ok": True}),
    ("misaligned-two-factors", ["cert", "misaligned", "--family", "SHEAR"], NO_VERDICT,
     "cert-misaligned", {"vacuous": True, "ok": True}),
    ("prop91-radius-0", ["experiment", "prop91", "--seed", "7", "--radius", "0"], NO_VERDICT,
     "qi-certificate", {"pairs": 0}),
    ("theorem-b-radius-0", ["experiment", "theorem-b", "--seed", "11", "--radius", "0"],
     NO_VERDICT, "qi-certificate", {"pairs": 0}),
    # every sampled curve lies within 3 of the boundary, so the K scan checked
    # nothing and A and D came from no sample; these exited 0
    ("theorem-b-no-far-curve",
     ["experiment", "theorem-b", "--seed", "4", "--curve-samples", "1", "--radius", "2"],
     NO_VERDICT, "theorem-b-constants", {"K_emp": 1, "Kp_emp": 0, "A": 6, "D": 39}),
    ("theorem-b-two-near-curves",
     ["experiment", "theorem-b", "--seed", "10", "--curve-samples", "2"],
     NO_VERDICT, "theorem-b-constants", {"K_emp": 1, "Kp_emp": 0, "A": 6, "D": 39}),
    # at qmax 1 no sampled geodesic projects to its site, so M is a maximum
    # over nothing; these exited 0
    ("constants-no-projecting-geodesic",
     ["constants", "estimate", "--qmax", "1", "--seed", "6", "--triples", "5",
      "--geodesics", "5"],
     NO_VERDICT, "constants", {"M_emp": 0, "samples": {"B": [2, 2], "M": [0, 0],
                                                       "c": ["100/99", "99/98"]}}),
    ("theorem-b-no-projecting-geodesic",
     ["experiment", "theorem-b", "--seed", "1", "--qmax", "1", "--geodesics", "1",
      "--radius", "1", "--curve-samples", "1"],
     NO_VERDICT, "theorem-b-constants", {"M_emp": 0}),
]


@pytest.mark.parametrize("argv, code, record, fields", [r[1:] for r in NO_VERDICT_ROWS],
                         ids=[r[0] for r in NO_VERDICT_ROWS])
def test_no_verdict_unless_a_check_failed(argv, code, record, fields, tmp_path):
    files = {}
    for name, doc in SCAN_FAMILIES.items():
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    got, lines, _ = run([files.get(tok, tok) for tok in argv], tmp_path)
    assert got == code
    rec = next(line for line in lines if line["record"] == record)
    assert {k: rec[k] for k in fields} == fields


def test_readme_commands_parse(tmp_path):
    # every `rgflab ...` line of the README's CLI section names only actions
    # and flags that exist; nothing runs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    family = tmp_path / "fam.json"
    family.write_text(json.dumps(ONE_TWIST))
    lines = [line for line in section.splitlines() if line.startswith("rgflab ")]
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        args = build_parser(argv[0]).parse_args(
            [str(family) if tok == "fam.json" else tok for tok in argv])
        assert args.command == argv[0]
    assert len(lines) >= 17


# a flag's least value and default in the README's table, and the
# words the table writes for a default that is not an integer
FLAG_CELL = re.compile(r"`(--[\w-]+)`(?: ≥ (\d+))?( \(required\))?(?: \[(`\[\]`|[^\]]*)\])?")
TABLE_DEFAULTS = {"none": None, "empty": "", "`[]`": "[]"}


def test_readme_flag_table_matches_the_parsers():
    # one row per action, each naming the action's positionals and every
    # flag, and each integer flag's least value and default as `_int_flag`
    # gives them
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| action | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        words, cell = line.strip("| ").split(" | ")
        command, *rest = words.strip("`").split()
        action = None if None in cli.COMMANDS[command][1] else rest.pop(0)
        rows[command, action] = rest, cell
    actions = {(c, a): flags for c, (_, acts) in cli.COMMANDS.items()
               for a, (_, flags) in acts.items()}
    assert len(rows) == len(actions) == 17 and rows.keys() == actions.keys()
    for key, (positionals, cell) in rows.items():
        flags = actions[key]
        assert positionals == [f for f in flags if not f.startswith("--")], key
        named = {m[1]: m.groups()[1:] for m in FLAG_CELL.finditer(cell)}
        assert named.keys() == {f for f in flags if f.startswith("--")}, key
        for name, (least, required, default) in named.items():
            kw = flags[name]
            assert bool(required) == kw.get("required", False), name
            convert = kw.get("type")
            if getattr(convert, "__qualname__", "").startswith("_int_flag."):
                lo = int(least)
                assert convert(str(lo)) == lo, name
                with pytest.raises(argparse.ArgumentTypeError):
                    convert(str(lo - 1))
            else:
                assert least is None, name
            if default is not None:
                want = TABLE_DEFAULTS[default] if default in TABLE_DEFAULTS else int(default)
                assert kw["default"] == want, name


VERTICES_6 = bounded_vertices(6)


def seeded_factor(rng: random.Random) -> list:
    """The generators of a seeded factor: nonzero powers of the twist about a
    slope, each now and then times -I, and now and then beside -I, a twist
    about another slope or a pseudo-Anosov."""
    alpha = rng.choice(VERTICES_6) if rng.random() < 0.8 else random_slope(rng, 99)
    minus = MappingClass(-1, 0, 0, -1)
    gens = [twist_about(alpha, rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(rng.randint(1, 2))]
    gens = [minus.mul(g) if rng.random() < 0.3 else g for g in gens]
    extra = rng.random()
    if extra < 0.15:
        gens.append(minus)
    elif extra < 0.25:
        gens.append(twist_about(rng.choice(VERTICES_6), 1))
    elif extra < 0.3:
        gens.append(MappingClass(2, 1, 1, 1))
    return gens


class TestFamilyJson:
    def test_round_trip(self):
        fam = [FactorSpec.twist("A", INFINITY, budget=3),
               FactorSpec("F", MatrixGroup.of([0, -1, 1, 0]))]
        doc = family_to_json(fam)
        assert doc.keys() == {"factors"}
        assert [f["boundary"] for f in doc["factors"]] == [["1/0"], []]
        back = family_from_json(json.loads(json.dumps(doc)))
        assert back == fam
        assert [f.boundary for f in back] == [INFINITY, None]

    def test_a_factor_fixes_only_its_boundary(self):
        # the lemma behind naming no displacing curve: every slope with q, |p|
        # <= 6 that every enumerated element of an accepted factor fixes is
        # its boundary, so the boundary is the one displacing curve there is
        rng = random.Random(40)
        checked = 0
        for i in range(400):
            gens = seeded_factor(rng)
            boundary = canonical_reducing_system(MatrixGroup.of(*gens))
            doc = {"factors": [{"name": f"H{i}", "generators": [list(g.entries()) for g in gens],
                                "boundary": [] if boundary is None else [str(boundary)],
                                "budget": rng.randint(1, 2)}]}
            [factor] = family_from_json(doc)
            if factor.boundary is None:
                continue
            checked += 1
            fixed = {s for s in VERTICES_6 if all(act(h, s) == s for h in factor.elements)}
            assert fixed == {factor.boundary}.intersection(VERTICES_6), gens
        assert checked >= 300


class TestPersistenceAndConstants:
    def test_persistence_check(self, tmp_path):
        code, lines, _ = run(["persistence", "check", "--sequences", "10",
                              "--max-length", "6", "--seed", "2"], tmp_path)
        assert code == PASS
        assert lines[-1]["record"] == "persistence-summary"
        assert lines[-1]["violations"] == 0

    def test_constants_estimate(self, tmp_path):
        code, lines, _ = run(["constants", "estimate", "--triples", "150",
                              "--geodesics", "80", "--qmax", "150", "--seed", "2"],
                             tmp_path)
        rec = lines[1]
        assert rec["c_emp"] == 1 and rec["B_emp"] >= 1 and rec["M_emp"] >= 2

    def test_triples_draw_nothing(self, tmp_path):
        # the B samples are proven, not drawn (`projections.behrstock_scan`),
        # so `--triples` changes no byte of the `constants` record
        bodies = []
        for n in ("1", "10000"):
            out = tmp_path / f"triples-{n}.jsonl"
            assert main(["constants", "estimate", "--seed", "0", "--triples", n,
                         "--output", str(out)]) == PASS
            config, body = out.read_bytes().split(b"\n", 1)
            assert json.loads(config)["triples"] == int(n)
            assert json.loads(body)["record"] == "constants"
            bodies.append(body)
        assert bodies[0] == bodies[1]


class TestExperiments:
    def test_theorem_b(self, tmp_path):
        code, lines, _ = run(["experiment", "theorem-b", "--seed", "5",
                              "--radius", "2", "--words", "10",
                              "--curve-samples", "15", "--geodesics", "80",
                              "--qmax", "150"], tmp_path)
        assert code == PASS
        by_rec = {l["record"]: l for l in lines}
        assert by_rec["theorem-b-constants"]["Kp_within_closed_form"]
        assert by_rec["free-product"]["no_relation"]
        assert by_rec["loxodromic-scan"]["all_loxodromic"]

    def test_example92(self, tmp_path):
        code, lines, _ = run(["experiment", "example92", "--D", "8", "--seed", "3"],
                             tmp_path)
        assert code == PASS
        by_rec = {l["record"]: l for l in lines}
        assert by_rec["example92-separation"]["ok"]
        assert by_rec["example92-misalignment"]["fails_at_2"]
        assert by_rec["example92-relation"]["found"]

    @pytest.mark.parametrize("budget, code", [(2, NO_VERDICT), (3, NO_VERDICT), (4, PASS)])
    def test_example92_relation_search_out_of_budget(self, budget, code, tmp_path):
        # separation holds and misalignment fails at every budget; a search
        # that finds no relation within its budget disproves nothing, so it
        # gives no verdict, where it exited 1
        got, lines, _ = run(["experiment", "example92", "--seed", "7", "--budget", str(budget)],
                            tmp_path)
        by_rec = {l["record"]: l for l in lines}
        assert got == code
        assert by_rec["example92-separation"]["ok"]
        assert by_rec["example92-misalignment"]["fails_at_2"]
        assert by_rec["example92-relation"]["found"] == (code == PASS)

    def test_prop91_small(self, tmp_path):
        code, lines, _ = run(["experiment", "prop91", "--dprime", "12",
                              "--window", "3", "--radius", "2", "--seed", "3"],
                             tmp_path)
        assert code == PASS
        by_rec = {l["record"]: l for l in lines}
        assert by_rec["prop91-separation"]["window_ok"]

    def test_config_file(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"seed": 9, "points": 8, "qmax": 10}))
        out = tmp_path / "o.jsonl"
        code = main(["delta-estimate", "--config", str(conf), "--output", str(out)])
        assert code == PASS
        rec = [json.loads(l) for l in out.read_text().splitlines()][1]
        assert rec["seed"] == 9 and rec["points"] == 8


DELTA = ["delta-estimate"]

CONFIG_ROWS = [
    # (id, command words and flags, FAMILY standing for a family file,
    #  config file text or None for a missing file, extra flags, exit code,
    #  points in the report, or the start of the last stderr line of a usage
    #  error, the only line unless argparse's, CONF standing for the file's path)
    ("missing-file", DELTA, None, [], USAGE, "usage error: cannot read config CONF: [Errno 2]"),
    ("truncated-json", DELTA, '{"seed": 9, "poi', [], USAGE,
     "usage error: cannot read config CONF: Unterminated string"),
    ("unknown-key", DELTA, '{"seed": 9, "bogus": 1}', [], USAGE,
     "usage error: unknown config key 'bogus' for delta-estimate"),
    ("unknown-key-names-the-action", ["tree", "build", "--family", "FAMILY"], '{"kappa": 3}',
     [], USAGE, "usage error: unknown config key 'kappa' for tree build"),
    ("json-list", DELTA, "[9, 8]", [], USAGE, "usage error: config CONF must hold a JSON object"),
    # a value is parsed as its flag's token, so argparse checks the choice
    ("value-not-a-choice", ["tree", "qi", "--family", "FAMILY"], '{"format": "xml"}',
     [], USAGE, "rgflab tree qi: error: argument --format: invalid choice: 'xml'"),
    # only the actions that draw at random take a seed
    ("seed-on-tree-qi", ["tree", "qi", "--family", "FAMILY"], '{"seed": 9}', [], USAGE,
     "usage error: unknown config key 'seed' for tree qi"),
    # the command line's --config always won, so this key was read by nothing
    ("config-key", DELTA, '{"seed": 9, "config": "other.json"}', [], USAGE,
     "usage error: config key 'config': a config file cannot name another"),
    # the displacing scan takes no shell bound, from the file either
    ("shell-bound-key", ["cert", "displacing", "--family", "FAMILY"], '{"shell_bound": 40}',
     [], USAGE, "usage error: unknown config key 'shell_bound' for cert displacing"),
    ("flag-overrides-file", DELTA, '{"seed": 9, "points": 8, "qmax": 10}', ["--points", "6"],
     PASS, 6),
    ("file-values-echoed", DELTA, '{"seed": 9, "points": 8, "qmax": 10}', [], PASS, 8),
]


class TestConfigFile:
    @pytest.mark.parametrize("command, text, flags, code, want", [r[1:] for r in CONFIG_ROWS],
                             ids=[r[0] for r in CONFIG_ROWS])
    def test_config_rows(self, tmp_path, capsys, family_file, command, text, flags, code, want):
        conf = tmp_path / "conf.json"
        if text is not None:
            conf.write_text(text)
        out = tmp_path / "o.jsonl"
        command = [family_file if tok == "FAMILY" else tok for tok in command]
        assert main([*command, "--config", str(conf), *flags, "--output", str(out)]) == code
        if code == USAGE:
            err = capsys.readouterr().err.splitlines()
            assert err[-1].startswith(want.replace("CONF", str(conf)))
            if want.startswith("usage error:"):
                assert len(err) == 1
            assert not out.exists()
            return
        config, rec = [json.loads(l) for l in out.read_text().splitlines()]
        assert rec["points"] == want and rec["seed"] == 9
        # the config record holds the values the run used: the command
        # line's where it set one, the file's, and the defaults
        assert config == {"record": "config", "command": "delta-estimate", "seed": 9,
                          "points": want, "qmax": 10, "max_quadruples": 200000}

    @pytest.mark.parametrize("command, required, flags", [
        (["tree", "qi"], {"family": "FAMILY"}, ["--radius", "2"]),
        (["raag", "components"], {"vertices": 4}, ["--edges", "[[0,1],[2,3]]"])])
    def test_required_flag_from_config(self, tmp_path, family_file, command, required, flags):
        # the path is read before the parse, so the file can give a required
        # flag, and the report is the one the command line gives
        required = {k: family_file if v == "FAMILY" else v for k, v in required.items()}
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(required))
        from_file, from_flags = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main([*command, "--config", str(conf), *flags, "--output", str(from_file)]) == PASS
        given = [f"--{k}={v}" for k, v in required.items()]
        assert main([*command, *given, *flags, "--output", str(from_flags)]) == PASS
        assert from_file.read_bytes() == from_flags.read_bytes()

    def test_shared_flag_before_subcommand_is_usage_error(self, tmp_path):
        out = tmp_path / "o.jsonl"
        code = main(["--output", str(out), "delta-estimate", "--seed", "3",
                     "--points", "6", "--qmax", "8"])
        assert code == USAGE and not out.exists()


def test_report_to_stdout_without_output(tmp_path, capsys):
    argv = ["farey", "dist", "1/0", "5/8"]
    assert main(argv) == PASS
    captured = capsys.readouterr()
    _, _, out = run(argv, tmp_path)
    assert captured.err == ""
    assert captured.out == out.read_text()
    assert json.loads(captured.out.splitlines()[1])["distance"] == 3


class TestConfigEcho:
    """The `config` record holds the parsed flags without where the report
    goes, whichever form of a flag the parser accepted, and whether a value
    came from the command line or a config file."""

    def test_output_path_not_echoed(self, tmp_path):
        reports = []
        for flags in (["--output={}"], ["--out", "{}"], ["--outp={}"], ["--output", "{}"]):
            out = tmp_path / f"run{len(reports)}" / "o.jsonl"
            out.parent.mkdir()
            argv = ["farey", "dist", "1/0", "5/8"] + [f.format(out) for f in flags]
            assert main(argv) == PASS
            reports.append(out.read_bytes())
        assert len(set(reports)) == 1
        assert json.loads(reports[0].splitlines()[0]) == {
            "record": "config", "command": "farey", "action": "dist", "a": "1/0", "b": "5/8"}

    def test_config_output_key_not_echoed(self, tmp_path):
        # the key routes the report, and its value, like --output's, is not
        # part of the record
        conf, routed, given = (tmp_path / n for n in ("conf.json", "a.jsonl", "b.jsonl"))
        values = {"seed": 9, "points": 6, "qmax": 8}
        conf.write_text(json.dumps({**values, "output": str(routed)}))
        assert main(["delta-estimate", "--config", str(conf)]) == PASS
        assert json.loads(routed.read_text().splitlines()[0]) == {
            "record": "config", "command": "delta-estimate", "max_quadruples": 200000, **values}
        assert main(["delta-estimate", "--config", str(conf), "--output", str(given)]) == PASS
        assert given.read_bytes() == routed.read_bytes()

    def test_config_path_not_echoed(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"seed": 9, "points": 6, "qmax": 8}))
        from_file, from_flags = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["delta-estimate", f"--conf={conf}", "--points", "6",
                     "--out", str(from_file)]) == PASS
        assert main(["delta-estimate", "--qmax=8", "--seed", "9", "--points", "6",
                     "--output", str(from_flags)]) == PASS
        assert from_file.read_bytes() == from_flags.read_bytes()
        assert json.loads(from_file.read_text().splitlines()[0]) == {
            "record": "config", "command": "delta-estimate", "seed": 9, "points": 6, "qmax": 8,
            "max_quadruples": 200000}


class TestConfigParsesAsFlags:
    """`--config` values are parsed as flags ahead of the command line's own,
    by the one parser that `build_parser` builds per process."""

    def test_parser_is_built_once(self):
        # one parser per known command name, and one for every other argv
        main(["farey", "dist", "1/0"])
        main(["no-such-command"])
        misses = build_parser.cache_info().misses
        assert main(["farey", "dist", "1/0"]) == USAGE
        assert main(["another-unknown"]) == main(["--seed", "3"]) == main([]) == USAGE
        assert build_parser("farey") is build_parser("farey")
        assert build_parser.cache_info().misses == misses <= len(cli.COMMANDS) + 1

    def test_config_does_not_leak_into_the_next_call(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"points": 8, "qmax": 10, "max_quadruples": 10}))
        flags = ["--seed", "1", "--max-quadruples", "10"]
        assert run(["delta-estimate", "--config", str(conf), *flags], tmp_path, "a.jsonl")[0] == PASS
        code, lines, _ = run(["delta-estimate", *flags], tmp_path, "b.jsonl")
        assert code == PASS and (lines[1]["points"], lines[1]["qmax"]) == (40, 50)

    def test_overridden_value_is_still_checked(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"seed": 9, "points": 2}))
        out = tmp_path / "o.jsonl"
        assert main(["delta-estimate", "--config", str(conf), "--points", "6",
                     "--output", str(out)]) == USAGE
        assert capsys.readouterr().err.splitlines()[-1] == (
            "rgflab delta-estimate: error: argument --points: must be at least 4, got 2")
        assert not out.exists()

    def test_negative_seed_is_one_token(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"seed": -5, "points": 6, "qmax": 8}))
        code, lines, _ = run(["delta-estimate", "--config", str(conf)], tmp_path)
        assert code == PASS and lines[0]["seed"] == lines[1]["seed"] == -5


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            code = main(["experiment", "example92", "--D", "8", "--seed", "3",
                         "--output", str(out)])
            assert code == PASS
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_sampled_scan_determinism(self, tmp_path):
        outs = []
        for name in ("c.jsonl", "d.jsonl"):
            out = tmp_path / name
            main(["delta-estimate", "--points", "10", "--qmax", "12",
                  "--seed", "4", "--output", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# A fixed family file: three separated twist factors
TREE_FAMILIES = {
    "three-twist": {"factors": [
        {"name": "A", "generators": [[1, 0, -1, 1]], "boundary": ["0/1"], "budget": 2},
        {"name": "B", "generators": [[2031, 4900, -841, -2029]], "boundary": ["-70/29"],
         "budget": 2},
        {"name": "C", "generators": [[79570261, 192099600, -32959081, -79570259]],
         "boundary": ["-13860/5741"], "budget": 2}]},
}

# sha256 of the `tree build` report, the `tree qi` report and the `tree qi`
# CSV at radius 4, each report without its `config` record
TREE_DIGESTS = {
    "three-twist": ("512cd197ed683ad8d55eed0c9507b72318e41d9269fdf246dcdad2ab0b93a756",
                    "e422cfb35444623a6769ff69d17ec390b6c20daed22db3ae8c106bf3284cfddb",
                    "90ccd0b54b11203773071600a3ee7027b2e8d17f119f84ba4427c70557cbea25"),
}


@pytest.mark.parametrize("name", sorted(TREE_FAMILIES))
def test_tree_layer_reports_are_pinned(name, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(TREE_FAMILIES[name]))
    flags = ["--family", str(path), "--radius", "4"]
    build, qi = tmp_path / "build.jsonl", tmp_path / "qi.jsonl"
    assert main(["tree", "build", *flags, "--output", str(build)]) == PASS
    assert main(["tree", "qi", *flags, "--output", str(qi)]) == PASS
    blobs = [build.read_bytes(), qi.read_bytes(), (tmp_path / "qi.jsonl.csv").read_bytes()]
    for blob in blobs[:2]:
        assert json.loads(blob.split(b"\n", 1)[0])["record"] == "config"
    blobs[:2] = [blob.split(b"\n", 1)[1] for blob in blobs[:2]]
    assert tuple(hashlib.sha256(b).hexdigest() for b in blobs) == TREE_DIGESTS[name]


# Geometry-layer runs at small sizes: constants at a seed whose fresh sample
# agrees (exit 0) and at one where it demands more (exit 3), the four-point
# scan, persistence, and the two Farey actions
GEOMETRY_RUNS = {
    "constants-stable": (["constants", "estimate", "--seed", "0", "--triples", "300",
                          "--geodesics", "60"], PASS),
    "constants-unstable": (["constants", "estimate", "--seed", "1", "--triples", "300",
                            "--geodesics", "60"], NO_VERDICT),
    "delta": (["delta-estimate", "--seed", "3", "--points", "14", "--qmax", "30"], PASS),
    "persistence": (["persistence", "check", "--seed", "2", "--sequences", "20"], PASS),
    "farey-dist": (["farey", "dist", "3/8", "13/5"], PASS),
    "farey-geodesic": (["farey", "geodesic", "2/7", "1393/985"], PASS),
}

# sha256 of each report without its `config` record
GEOMETRY_DIGESTS = {
    "constants-stable": "b4a5db4f63fd7891180ab452bd39b133ae78b12444292c9f0c69bd600fafa283",
    "constants-unstable": "fd7c74dc6188e712fdecbfdbc0436f227060121a6170f820cf8005e1571156e8",
    "delta": "837b3c3b33a1e54ab9043745b6ed73796a0c0fcdb71a8fa3403e5c5cfc2a0331",
    "farey-dist": "f6e146137bbcc04af5f549f61882f7d61ed2862280f3bc94a308a520f6ca0865",
    "farey-geodesic": "735083029cfe75efd489acfee78bbf423b5abceebba6537a9b324d5c21a1a0f3",
    "persistence": "f11aa09ff7e7a69a4f7fd86617c6e2da276c2f1198fa72dc1f53c27e9e3d7567",
}


@pytest.mark.parametrize("name", sorted(GEOMETRY_RUNS))
def test_geometry_layer_reports_are_pinned(name, tmp_path):
    argv, code = GEOMETRY_RUNS[name]
    out = tmp_path / "report.jsonl"
    assert main(argv + ["--output", str(out)]) == code
    config, body = out.read_bytes().split(b"\n", 1)
    assert json.loads(config)["record"] == "config"
    assert hashlib.sha256(body).hexdigest() == GEOMETRY_DIGESTS[name]


# The two family experiments at small sizes: prop91 with its pair table,
# and example92 with a relation found (exit 0) and out of budget (exit 3)
EXPERIMENT_RUNS = {
    "prop91": (["experiment", "prop91", "--seed", "7", "--radius", "4"], PASS),
    "example92-found": (["experiment", "example92", "--D", "8", "--seed", "7",
                         "--budget", "8"], PASS),
    "example92-out-of-budget": (["experiment", "example92", "--D", "8", "--seed", "7",
                                 "--budget", "3"], NO_VERDICT),
}

# sha256 of each report without its `config` record, then of its CSV, if any
EXPERIMENT_DIGESTS = {
    "prop91": ("9dd88e8704b1c64b21da5a74259dcffde146821f3ce3de3c7ae0e91a70bb9daa",
               "0ff3e750cdf23f84636da4f1c833034c774bf1120768974bf085c09c4f90db1c"),
    "example92-found": ("2cf8443739dd29ca4cd478df7bad77d66ac3a491b2beb87902ae41963e3e111e",),
    "example92-out-of-budget": (
        "41bc25998a002b96bfdb63d1172580cadf91e41687d121fe7197cb7ba7072617",),
}


@pytest.mark.parametrize("name", sorted(EXPERIMENT_RUNS))
def test_experiment_reports_are_pinned(name, tmp_path):
    argv, code = EXPERIMENT_RUNS[name]
    out = tmp_path / "report.jsonl"
    assert main(argv + ["--output", str(out)]) == code
    config, body = out.read_bytes().split(b"\n", 1)
    assert json.loads(config)["record"] == "config"
    blobs = [body]
    csv_path = tmp_path / "report.jsonl.csv"
    if csv_path.exists():
        blobs.append(csv_path.read_bytes())
    assert tuple(hashlib.sha256(b).hexdigest() for b in blobs) == EXPERIMENT_DIGESTS[name]


def _replayed_certs(records, D, A, tmp_path):
    """The `cert separated` and `cert misaligned` records of the report's
    `family-json` family, at thresholds D and A."""
    path = tmp_path / "family.json"
    path.write_text(json.dumps(records["family-json"]["family"]))
    flags = ["--family", str(path)]
    _, sep, _ = run(["cert", "separated", *flags, "--D", str(D)], tmp_path, "sep.jsonl")
    _, mis, _ = run(["cert", "misaligned", *flags, "--A", str(A)], tmp_path, "mis.jsonl")
    return sep[1], mis[1]


def test_prop91_replays_through_the_certificates(tmp_path):
    code, lines, _ = run(["experiment", "prop91", "--seed", "7", "--radius", "2"], tmp_path)
    assert code == PASS
    by_rec = {l["record"]: l for l in lines}
    D = by_rec["prop91-family"]["D"]
    sep, mis = _replayed_certs(by_rec, D, D, tmp_path)
    got = by_rec["prop91-separation"]
    assert (sep["min"], sep["matrix"], sep["ok"]) == (got["min"], got["matrix"], got["ok"])
    got = by_rec["prop91-misalignment"]
    assert (mis["min"], mis["ok"]) == (got["min"], got["ok"])


def test_example92_replays_through_the_certificates(tmp_path):
    _, lines, _ = run(["experiment", "example92", "--seed", "7"], tmp_path)
    by_rec = {l["record"]: l for l in lines}
    sep, mis = _replayed_certs(by_rec, 8, 2, tmp_path)
    got = by_rec["example92-separation"]
    assert (sep["min"], sep["ok"]) == (got["min"], got["ok"])
    got = by_rec["example92-misalignment"]
    assert (mis["min"], not mis["ok"]) == (got["min"], got["fails_at_2"])
