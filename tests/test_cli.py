import argparse
import hashlib
import json
import os
import shlex
import signal
from pathlib import Path

import pytest

from rgflab.cli import NO_VERDICT, PASS, FAIL, USAGE, build_parser, family_from_json, \
    family_to_json, main
from rgflab.constructions import FamilySpec, slope_at_distance
from rgflab.bassserre import FactorSpec
from rgflab.farey import INFINITY, Slope
from rgflab.subgroups import MatrixGroup


@pytest.fixture
def family_file(tmp_path):
    a = Slope(0, 1)
    fam = FamilySpec([FactorSpec.twist("A", a, budget=2),
                      FactorSpec.twist("B", slope_at_distance(a, 6), budget=2),
                      FactorSpec.twist("C", slope_at_distance(a, 12), budget=2)])
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family_to_json(fam)))
    return str(path)


def run(argv, tmp_path, name="out.jsonl"):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    return code, lines, out


class TestFareyCommands:
    def test_dist(self, tmp_path):
        code, lines, _ = run(["farey", "dist", "1/0", "5/8"], tmp_path)
        assert code == PASS
        rec = lines[1]
        assert rec["distance"] == 3 and rec["oracle"]["agrees"]

    def test_geodesic(self, tmp_path):
        code, lines, _ = run(["farey", "geodesic", "0/1", "5/8"], tmp_path)
        assert code == PASS and lines[1]["valid"]

    def test_usage_error(self):
        assert main(["farey", "dist", "1/0"]) == USAGE


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


BAD_INPUT_ROWS = [
    # (id, argv, last stderr line starts with); FAMILY is a valid family
    # file, the other capitalized tokens malformed ones (BAD_FAMILIES)
    ("kappa-zero", ["tree", "qi", "--family", "FAMILY", "--kappa", "0"],
     "rgflab tree: error: argument --kappa: must be at least 1, got 0"),
    ("kappa-negative", ["tree", "qi", "--family", "FAMILY", "--kappa", "-2"],
     "rgflab tree: error: argument --kappa: must be at least 1, got -2"),
    ("oracle-bound-zero", ["farey", "dist", "1/2", "3/4", "--oracle-bound", "0"],
     "rgflab farey: error: argument --oracle-bound: must be at least 1, got 0"),
    ("oracle-bound-negative", ["farey", "dist", "1/2", "3/4", "--oracle-bound", "-3"],
     "rgflab farey: error: argument --oracle-bound: must be at least 1, got -3"),
    ("dprime-5", ["experiment", "prop91", "--dprime", "5", "--seed", "1"],
     "rgflab experiment: error: argument --dprime: must be at least 9, got 5"),
    ("D-7", ["experiment", "example92", "--D", "7", "--seed", "1"],
     "rgflab experiment: error: argument --D: must be at least 8, got 7"),
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
    # a relation has at least two syllables: a smaller budget searched
    # nothing and still reported "no_relation": true
    ("free-product-budget-negative",
     ["tree", "free-product", "--family", "FAMILY", "--budget", "-3"],
     "rgflab tree: error: argument --budget: must be at least 2, got -3"),
    ("free-product-budget-0", ["tree", "free-product", "--family", "FAMILY", "--budget", "0"],
     "rgflab tree: error: argument --budget: must be at least 2, got 0"),
    ("free-product-budget-1", ["tree", "free-product", "--family", "FAMILY", "--budget", "1"],
     "rgflab tree: error: argument --budget: must be at least 2, got 1"),
    ("experiment-budget-1", ["experiment", "theorem-b", "--budget", "1", "--seed", "1"],
     "rgflab experiment: error: argument --budget: must be at least 2, got 1"),
    ("radius-negative", ["tree", "build", "--family", "FAMILY", "--radius", "-1"],
     "rgflab tree: error: argument --radius: must be at least 0, got -1"),
    ("radius-not-an-integer", ["tree", "build", "--family", "FAMILY", "--radius", "abc"],
     "rgflab tree: error: argument --radius: bad integer 'abc'"),
    ("max-length-2", ["persistence", "check", "--max-length", "2", "--seed", "1"],
     "rgflab persistence: error: argument --max-length: must be at least 3, got 2"),
    # were tracebacks (ValueError from build_ball and the family builder)
    ("experiment-radius-negative", ["experiment", "prop91", "--radius", "-1", "--seed", "1"],
     "rgflab experiment: error: argument --radius: must be at least 0, got -1"),
    ("window-0", ["experiment", "prop91", "--window", "0", "--seed", "1"],
     "rgflab experiment: error: argument --window: must be at least 1, got 0"),
    # an empty scan passed: "violations": 0, or a loxodromic scan over no words
    ("sequences-0", ["persistence", "check", "--sequences", "0", "--seed", "1"],
     "rgflab persistence: error: argument --sequences: must be at least 1, got 0"),
    ("sequences-negative", ["persistence", "check", "--sequences", "-2", "--seed", "1"],
     "rgflab persistence: error: argument --sequences: must be at least 1, got -2"),
    ("words-negative", ["experiment", "theorem-b", "--words", "-1", "--seed", "1"],
     "rgflab experiment: error: argument --words: must be at least 1, got -1"),
    # Gromov products and projection distances are never negative, so
    # A <= 0, D <= 0 or L <= 0 certified every family
    ("cert-A-negative", ["cert", "misaligned", "--family", "FAMILY", "--A", "-5"],
     "rgflab cert: error: argument --A: must be at least 1, got -5"),
    ("cert-D-negative", ["cert", "separated", "--family", "FAMILY", "--D", "-1"],
     "rgflab cert: error: argument --D: must be at least 1, got -1"),
    ("cert-L-0", ["cert", "displacing", "--family", "FAMILY", "--L", "0"],
     "rgflab cert: error: argument --L: must be at least 1, got 0"),
    # constants estimated from no samples were reported as evidence
    ("curve-samples-0", ["experiment", "theorem-b", "--curve-samples", "0", "--seed", "1"],
     "rgflab experiment: error: argument --curve-samples: must be at least 1, got 0"),
    ("experiment-triples-0", ["experiment", "theorem-b", "--triples", "0", "--seed", "1"],
     "rgflab experiment: error: argument --triples: must be at least 1, got 0"),
    ("experiment-geodesics-0", ["experiment", "theorem-b", "--geodesics", "0", "--seed", "1"],
     "rgflab experiment: error: argument --geodesics: must be at least 1, got 0"),
    ("constants-triples-0", ["constants", "estimate", "--triples", "0", "--seed", "1"],
     "rgflab constants: error: argument --triples: must be at least 1, got 0"),
    ("constants-geodesics-0", ["constants", "estimate", "--geodesics", "0", "--seed", "1"],
     "rgflab constants: error: argument --geodesics: must be at least 1, got 0"),
    # a delta computed from no quadruples was reported as "delta": 0
    ("max-quadruples-0", ["delta-estimate", "--max-quadruples", "0", "--seed", "1"],
     "rgflab delta-estimate: error: argument --max-quadruples: must be at least 1, got 0"),
    ("max-quadruples-negative", ["delta-estimate", "--max-quadruples", "-5", "--seed", "1"],
     "rgflab delta-estimate: error: argument --max-quadruples: must be at least 1, got -5"),
    # bounds below any system's (M = 0, B = 1) made every hypothesis hold
    # vacuously and the check pass with "violations": 0
    ("persistence-M-negative", ["persistence", "check", "--M", "-1", "--seed", "1"],
     "rgflab persistence: error: argument --M: must be at least 0, got -1"),
    ("persistence-B-0", ["persistence", "check", "--B", "0", "--seed", "1"],
     "rgflab persistence: error: argument --B: must be at least 1, got 0"),
    # a factor budget of 0 enumerates no factor elements: prop91 passed on a
    # 3-pair QI certificate, theorem-b and example92 failed with a traceback
    # or an empty-factor certificate
    ("prop91-factor-budget-0", ["experiment", "prop91", "--factor-budget", "0", "--seed", "1"],
     "rgflab experiment: error: argument --factor-budget: must be at least 1, got 0"),
    ("theorem-b-factor-budget-0",
     ["experiment", "theorem-b", "--factor-budget", "0", "--seed", "1"],
     "rgflab experiment: error: argument --factor-budget: must be at least 1, got 0"),
    ("example92-factor-budget-0",
     ["experiment", "example92", "--factor-budget", "0", "--seed", "1"],
     "rgflab experiment: error: argument --factor-budget: must be at least 1, got 0"),
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
    ("family-two-slope-beta", ["cert", "displacing", "--family", "BETAPAIR"],
     "usage error: bad family file BETAPAIR: ValueError(\"a betas entry must be one "
     "slope, got ['1/0', '0/1']\")"),
    ("family-empty-beta", ["cert", "displacing", "--family", "EMPTYBETA"],
     "usage error: bad family file EMPTYBETA: "
     "ValueError('a betas entry must be one slope, got []')"),
    # was a `need D' > 8` traceback
    ("theorem-b-delta-negative", ["experiment", "theorem-b", "--delta", "-5", "--seed", "1"],
     "rgflab experiment: error: argument --delta: must be at least 0, got -5"),
    ("raag-vertices-negative", ["raag", "components", "--vertices", "-3"],
     "rgflab raag: error: argument --vertices: must be at least 0, got -3"),
    ("shell-bound-negative",
     ["cert", "displacing", "--family", "FAMILY", "--shell-bound", "-1"],
     "rgflab cert: error: argument --shell-bound: must be at least 0, got -1"),
]

BAD_FAMILIES = {
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


def test_every_integer_flag_has_a_least_value():
    # every integer is a valid seed; any other bare `int` flag accepts
    # values (0, negatives) that make scans empty or certificates vacuous
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    bare = sorted({opt for sub in subparsers.choices.values() for action in sub._actions
                   if action.type is int and "--seed" not in action.option_strings
                   for opt in action.option_strings})
    assert bare == []


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
     "rgflab delta-estimate: error: argument --points: must be at least 1, got 0"),
    ("delta-qmax-zero", ["delta-estimate", "--qmax", "0"], USAGE,
     "rgflab delta-estimate: error: argument --qmax: must be at least 1, got 0"),
    ("delta-qmax-negative", ["delta-estimate", "--qmax", "-1"], USAGE,
     "rgflab delta-estimate: error: argument --qmax: must be at least 1, got -1"),
    ("constants-qmax-zero", ["constants", "estimate", "--qmax", "0"], USAGE,
     "rgflab constants: error: argument --qmax: must be at least 1, got 0"),
    ("experiment-qmax-zero", ["experiment", "theorem-b", "--qmax", "0"], USAGE,
     "rgflab experiment: error: argument --qmax: must be at least 1, got 0"),
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


class TestSeedHandling:
    def test_seed_required_for_sampled(self, tmp_path, monkeypatch):
        monkeypatch.delenv("RGFLAB_SEED", raising=False)
        assert main(["delta-estimate", "--points", "8", "--qmax", "10"]) == USAGE

    def test_seed_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RGFLAB_SEED", "5")
        code, lines, _ = run(["delta-estimate", "--points", "8", "--qmax", "10"], tmp_path)
        assert code == PASS and lines[1]["seed"] == 5

    @pytest.mark.parametrize("argv", [["farey", "dist", "1/0", "3/7"],
                                      ["delta-estimate", "--points", "8", "--qmax", "10"]],
                             ids=["seedless", "seeded"])
    def test_malformed_env_seed_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RGFLAB_SEED", "abc")
        out = tmp_path / "o.jsonl"
        assert main(argv + ["--output", str(out)]) == USAGE
        err = capsys.readouterr().err
        assert err == "usage error: bad $RGFLAB_SEED 'abc': not an integer\n"
        assert not out.exists()


class TestRaagCommands:
    def test_nf(self, tmp_path):
        code, lines, _ = run(["raag", "nf", "--vertices", "2", "--word", "x1^0 x2"],
                             tmp_path)
        assert code == PASS and lines[1]["normal_form"] == "x2"

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

    def test_tree_qi_kappa_failure_exits_one(self, tmp_path):
        # adjacent twist factors: image curves collide, so kappa = 1
        # cannot hold and the failure report carries the envelope witness
        fam = FamilySpec([FactorSpec.twist("A", INFINITY, budget=2),
                          FactorSpec.twist("B", Slope(0, 1), budget=2)])
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

    def test_cert_displacing_no_verdict_on_miss(self, family_file, tmp_path):
        code, lines, _ = run(["cert", "displacing", "--family", family_file,
                              "--L", "90", "--shell-bound", "8"], tmp_path)
        assert code == NO_VERDICT

    @pytest.mark.parametrize("generator, power, code, windows, pair", [
        # the e=2 shear pair is free (Sanov); full twists are not
        ([1, 2, 0, 1], 2, PASS, ["[-1, 1]", "[-1, 1]"], None),
        ([1, 1, 0, 1], 1, NO_VERDICT, ["[-1/2, 1/2]", "[-1/2, 1/2]"], [0, 1]),
        ([2, 1, 1, 1], 2, NO_VERDICT, [], None),        # a pseudo-Anosov factor
    ], ids=["shear-pair", "full-twists", "pseudo-anosov"])
    def test_cert_pingpong(self, generator, power, code, windows, pair, tmp_path):
        fam = FamilySpec([FactorSpec("A", MatrixGroup.of(generator)),
                          FactorSpec.twist("B", Slope(0, 1), power=power)])
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


# one twist about 1/0, and the shear pair; with betas, displacing curves
# their twists move
ONE_TWIST = {"factors": [{"name": "A", "generators": [[1, 1, 0, 1]], "boundary": ["1/0"]}]}
SHEAR = {"factors": [{"name": "A", "generators": [[1, 2, 0, 1]], "boundary": ["1/0"]},
                     {"name": "B", "generators": [[1, 0, 2, 1]], "boundary": ["0/1"]}]}
SCAN_FAMILIES = {
    "ONE": ONE_TWIST,
    "ONEMOVEDBETA": {**ONE_TWIST, "betas": [["0/1"]]},
    "SHEAR": SHEAR,
    "SHEARMOVEDBETAS": {**SHEAR, "betas": [["1/1"], ["0/1"]]},
}

NO_VERDICT_ROWS = [
    # (id, argv, exit code, record, fields that show why); an empty scan is
    # no verdict, and a failed check still exits 1
    ("qi-one-factor", ["tree", "qi", "--family", "ONE", "--radius", "4"], NO_VERDICT,
     "qi-certificate", {"pairs": 0, "benchmark_half_dT_minus_4": True}),
    ("qi-radius-0", ["tree", "qi", "--family", "SHEAR", "--radius", "0"], NO_VERDICT,
     "qi-certificate", {"pairs": 0}),
    ("displacing-one-factor", ["cert", "displacing", "--family", "ONE"], NO_VERDICT,
     "cert-displacing", {"min_margin": None, "misses": [], "ok": True}),
    ("displacing-one-factor-moved-beta", ["cert", "displacing", "--family", "ONEMOVEDBETA"],
     FAIL, "cert-displacing", {"min_margin": None, "stabilize_ok": False}),
    ("separated-one-factor", ["cert", "separated", "--family", "ONE"], NO_VERDICT,
     "cert-separated", {"min": None, "ok": True}),
    ("misaligned-two-factors", ["cert", "misaligned", "--family", "SHEAR"], NO_VERDICT,
     "cert-misaligned", {"vacuous": True, "ok": True}),
    ("prop91-radius-0", ["experiment", "prop91", "--seed", "7", "--radius", "0"], NO_VERDICT,
     "qi-certificate", {"pairs": 0}),
    ("theorem-b-radius-0", ["experiment", "theorem-b", "--seed", "11", "--radius", "0"],
     NO_VERDICT, "qi-certificate", {"pairs": 0}),
    # displacing curves their factors move fail the certificate beside the
    # search's misses; this exited 3
    ("displacing-misses-moved-betas", ["cert", "displacing", "--family", "SHEARMOVEDBETAS"],
     FAIL, "cert-displacing", {"stabilize_ok": False, "separation_ok": False, "ok": False}),
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
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        args = parser.parse_args([str(family) if tok == "fam.json" else tok for tok in argv])
        assert args.command == argv[0]
    assert len(lines) >= 17


class TestFamilyJson:
    def test_round_trip(self):
        fam = FamilySpec([FactorSpec.twist("A", INFINITY, budget=3),
                          FactorSpec("F", MatrixGroup.of([0, -1, 1, 0]))],
                         betas=[Slope(0, 1), Slope(1, 1)])
        doc = family_to_json(fam)
        assert [f["boundary"] for f in doc["factors"]] == [["1/0"], []]
        assert doc["betas"] == [["0/1"], ["1/1"]]
        back = family_from_json(json.loads(json.dumps(doc)))
        assert back.factors[0].name == "A"
        assert [f.boundary for f in back.factors] == [INFINITY, None]
        assert back.factors[0].budget == 3
        assert back.betas == [Slope(0, 1), Slope(1, 1)]


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


class TestExperiments:
    def test_theorem_b(self, tmp_path):
        code, lines, _ = run(["experiment", "theorem-b", "--seed", "5",
                              "--radius", "2", "--words", "10",
                              "--curve-samples", "15", "--triples", "150",
                              "--geodesics", "80", "--qmax", "150"], tmp_path)
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


CONFIG_ROWS = [
    # (id, config file text or None for a missing file, extra flags,
    #  exit code, points in the report, or the start of the one stderr line
    #  of a usage error, CONF standing for the file's path)
    ("missing-file", None, [], USAGE, "usage error: cannot read config CONF: [Errno 2]"),
    ("truncated-json", '{"seed": 9, "poi', [], USAGE,
     "usage error: cannot read config CONF: Unterminated string"),
    ("unknown-key", '{"seed": 9, "bogus": 1}', [], USAGE,
     "usage error: unknown config key 'bogus' for delta-estimate"),
    ("json-list", "[9, 8]", [], USAGE, "usage error: config CONF must hold a JSON object"),
    # argparse never checks a default against the flag's choices
    ("value-not-a-choice", '{"seed": 9, "format": "xml"}', [], USAGE,
     "usage error: config key 'format': 'xml' not in ['json', 'csv']"),
    ("flag-overrides-file", '{"seed": 9, "points": 8, "qmax": 10}', ["--points", "6"], PASS, 6),
    ("file-values-echoed", '{"seed": 9, "points": 8, "qmax": 10}', [], PASS, 8),
]


class TestConfigFile:
    @pytest.mark.parametrize("text, flags, code, want", [r[1:] for r in CONFIG_ROWS],
                             ids=[r[0] for r in CONFIG_ROWS])
    def test_config_rows(self, tmp_path, capsys, text, flags, code, want):
        conf = tmp_path / "conf.json"
        if text is not None:
            conf.write_text(text)
        out = tmp_path / "o.jsonl"
        assert main(["delta-estimate", "--config", str(conf), *flags,
                     "--output", str(out)]) == code
        if code == USAGE:
            (err,) = capsys.readouterr().err.splitlines()
            assert err.startswith(want.replace("CONF", str(conf)))
            assert not out.exists()
            return
        config, rec = [json.loads(l) for l in out.read_text().splitlines()]
        assert rec["points"] == want and rec["seed"] == 9
        assert config["config_values"] == json.loads(text)

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
    """The `config` record echoes the command line without output and config
    paths, whichever form of the flag the parser accepted."""

    def test_output_path_not_echoed(self, tmp_path):
        reports = []
        for flags in (["--output={}"], ["--out", "{}"], ["--outp={}"], ["--output", "{}"]):
            out = tmp_path / f"run{len(reports)}" / "o.jsonl"
            out.parent.mkdir()
            argv = ["farey", "dist", "1/0", "5/8"] + [f.format(out) for f in flags]
            assert main(argv) == PASS
            reports.append(out.read_bytes())
        assert len(set(reports)) == 1
        assert json.loads(reports[0].splitlines()[0])["argv"] == ["farey", "dist", "1/0", "5/8"]

    def test_config_path_not_echoed(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"seed": 9, "points": 6, "qmax": 8}))
        out = tmp_path / "o.jsonl"
        assert main(["delta-estimate", f"--conf={conf}", "--points", "6",
                     "--out", str(out)]) == PASS
        config = json.loads(out.read_text().splitlines()[0])
        assert config["argv"] == ["delta-estimate", "--points", "6"]


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
    "farey-dist": (["farey", "dist", "3/8", "13/5", "--oracle-bound", "16"], PASS),
    "farey-geodesic": (["farey", "geodesic", "2/7", "1393/985"], PASS),
}

# sha256 of each report without its `config` record
GEOMETRY_DIGESTS = {
    "constants-stable": "b4a5db4f63fd7891180ab452bd39b133ae78b12444292c9f0c69bd600fafa283",
    "constants-unstable": "fd7c74dc6188e712fdecbfdbc0436f227060121a6170f820cf8005e1571156e8",
    "delta": "837b3c3b33a1e54ab9043745b6ed73796a0c0fcdb71a8fa3403e5c5cfc2a0331",
    "farey-dist": "229b8a86b2503d7633d2c2e1cd45317853e1ae19c3132b36953903b5be60824f",
    "farey-geodesic": "93542ddb77a50e22bfb445ad604967428d5612f1ee836ddc55418cf0039d5f9a",
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
