"""Experiment runner: deterministic desk-scale pipelines over the library,
reporting JSON-lines records (plus CSV pair tables for plotting).

Exit codes: 0 all checks passed, 1 a certificate or check failed (the report
carries a witness record), 2 usage error, 3 no verdict: a budget was
exhausted, or the scan behind a certificate was empty.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import random
import re
import sys
from fractions import Fraction

from . import farey
from .farey import INFINITY, Slope
from . import hypgraph
from .hypgraph import FareyOracle
from . import projections
from .projections import TorusAnnuli, estimate_constants
from . import raag
from . import subgroups
from . import bassserre
from .bassserre import (FactorSpec, build_ball, free_product_check, pingpong_certificate,
                        qi_certificate)
from . import constructions
from .constructions import (check_displacing, check_misaligned, check_separated,
                            conjugate_twist_family, separation_constants,
                            twist_orbit_family)

PASS, FAIL, USAGE, NO_VERDICT = 0, 1, 2, 3


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}" if obj.denominator != 1 else obj.numerator
    if isinstance(obj, Slope):      # before the tuple case: a slope is a tuple
        return str(obj)
    if isinstance(obj, dict):
        return {str(_jsonable(k)): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):     # a MappingClass is the tuple of its entries
        return [_jsonable(x) for x in obj]
    return obj


@contextlib.contextmanager
def _destination(out_path=None):
    """stdout, or `out_path` opened for writing; a path that cannot be
    written is a usage error."""
    if not out_path:
        yield sys.stdout
        return
    try:
        with open(out_path, "w") as fh:
            yield fh
    except OSError as exc:
        raise SystemExit_usage(f"cannot write report {out_path}: {exc}")


def emit(records, out_path=None):
    text = "".join(json.dumps(_jsonable(r), sort_keys=True) + "\n" for r in records)
    with _destination(out_path) as fh:
        fh.write(text)


def emit_csv(pairs, out_path=None):
    """Write the pair table, a `PairCounts`, sorted: the bytes of `csv.writer`
    on the sorted rows (CRLF line ends), each group of equal rows in pieces
    of at most 8192 rows, so that memory stays bounded."""
    with _destination(out_path) as fh:
        fh.write("d_T,d_S\r\n")
        for (dt, ds), n in sorted(pairs.items()):
            row = f"{dt},{ds}\r\n"
            for k in range(0, n, 8192):
                fh.write(row * min(8192, n - k))


def family_to_json(factors: list) -> dict:
    return {"factors": [
        {"name": f.name,
         "generators": [list(g.entries()) for g in f.group.generators],
         "boundary": [] if f.boundary is None else [str(f.boundary)],
         "budget": f.budget}
        for f in factors]}


def _known_keys(doc: dict, keys: tuple, what: str):
    """Refuse a key of `doc` outside `keys`: a misspelt or stale one, such as
    a list of displacing curves (a factor's is its boundary), would be read
    as absent."""
    for key in doc:
        if key not in keys:
            raise ValueError(f"unknown {what} key {key!r}, not one of {', '.join(keys)}")


def _one_slope(texts, what: str) -> Slope:
    """The slope of a JSON list of one `p/q` string: a torus curve system.
    A string is no list, though a one-character one has length 1."""
    if type(texts) is not list or len(texts) != 1:
        raise ValueError(f"{what} must be one slope, got {texts!r}")
    return Slope.parse(texts[0])


def family_from_json(doc: dict) -> list:
    """The factors of a family file.  A factor's `boundary` is derived from its
    generators, so the declared one must be its canonical reducing system."""
    _known_keys(doc, ("factors",), "family")
    factors = []
    for fd in doc["factors"]:
        _known_keys(fd, ("name", "generators", "boundary", "budget"), "factor")
        group = subgroups.MatrixGroup.of(*fd["generators"])
        declared = (_one_slope(fd["boundary"], f"the boundary of factor {fd['name']}")
                    if fd["boundary"] != [] else None)
        budget = fd.get("budget", 2)
        # a fractional budget would silently run the search of the next
        # integer, and JSON true would pass as 1 (bool is an int)
        if type(budget) is not int:
            raise ValueError(f"factor budget must be an integer, got {budget!r}")
        # a budget of 0 enumerates no factor elements: empty fans and
        # searches that then certify anything
        if budget < 1:
            raise ValueError(f"factor budget must be at least 1, got {budget}")
        factor = FactorSpec(fd["name"], group, budget)
        if declared != factor.boundary:
            raise ValueError(f"factor {factor.name} has boundary {declared or 'none'}, not its "
                             f"canonical reducing system {factor.boundary or 'none'}")
        factors.append(factor)
    # no factor builds no ball, and the certificates pass vacuously
    if not factors:
        raise ValueError("a family needs at least one factor")
    return factors


class SystemExit_usage(Exception):
    pass


def _slope_arg(text: str) -> Slope:
    """argparse type for slope arguments, so a malformed one is a usage error."""
    try:
        return Slope.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad slope {text!r}: {exc}")


def _int_flag(lo: int, default=None, **kw) -> dict:
    """add_argument keywords of an integer flag with least value `lo`, so
    that a value below it is a usage error."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad integer {text!r}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value
    return dict(type=convert, default=default, **kw)


# --- subcommand handlers ----------------------------------------------------


def cmd_farey_dist(args):
    rec = {"record": "farey-dist", "a": args.a, "b": args.b,
           "distance": farey.farey_distance(args.a, args.b)}
    return PASS, [rec], None


def cmd_farey_geodesic(args):
    path = farey.farey_geodesic(args.a, args.b)
    rec = {"record": "farey-geodesic", "a": args.a, "b": args.b,
           "length": len(path) - 1, "vertices": path}
    return PASS, [rec], None


def cmd_delta_estimate(args):
    seed = args.seed
    if args.points > 2 * args.qmax + 2:
        # below this bound 1/0 and the q = 1 slopes alone are enough
        available = len(farey.bounded_vertices(args.qmax))
        if args.points > available:
            raise SystemExit_usage(f"--points {args.points} exceeds the {available} slopes "
                                   f"with q <= {args.qmax} and |p| <= {args.qmax} (--qmax)")
    oracle = FareyOracle()
    rng = random.Random(seed)
    pts = {INFINITY}
    while len(pts) < args.points:
        pts.add(projections.random_slope(rng, args.qmax))
    est = hypgraph.estimate_delta(sorted(pts, key=lambda s: (s.q, s.p)), oracle,
                                  max_quadruples=args.max_quadruples, seed=seed)
    rec = {"record": "delta-estimate", "delta": est.delta, "points": args.points,
           "qmax": args.qmax, "exhaustive": est.exhaustive,
           "quadruples": est.quadruples_scanned, "seed": seed,
           "witness": est.witness}
    return PASS, [rec], None


def cmd_constants(args):
    seed = args.seed
    est = estimate_constants(seed=seed, n_triples=args.triples,
                             n_geodesics=args.geodesics, qmax=args.qmax)
    rec = {"record": "constants", "M_emp": est.M_emp, "B_emp": est.B_emp,
           "c_emp": est.c_emp, "stable": est.stable, "samples": est.samples,
           "seed": seed}
    # an M sample of 0 found no projecting geodesic (see geodesic_image_bounds)
    return _verdict(True, est.stable and all(est.samples["M"])), [rec], None


def cmd_persistence(args):
    seed = args.seed
    rng = random.Random(seed)
    torus = TorusAnnuli()
    M, B = args.M, args.B
    strength = M + 3 * B + 2
    base = Slope(0, 1)
    start = constructions.slope_at_distance(base, 3)
    records = []
    failures = 0
    for i in range(args.sequences):
        length = rng.randrange(3, args.max_length + 1)
        seq = projections.twist_pivot_sequence(base, start, strength, length, rng)
        rep = projections.persistence_check(torus, seq, M=M, B=B)
        ok = (not rep.hypothesis_ok) or rep.conclusions_ok
        failures += 0 if ok else 1
        records.append({"record": "persistence", "index": i, "length": length,
                        "hypothesis_ok": rep.hypothesis_ok,
                        "conclusions_ok": rep.conclusions_ok,
                        "failures": rep.failures})
    summary = {"record": "persistence-summary", "sequences": args.sequences,
               "M": M, "B": B, "violations": failures, "seed": seed}
    return (PASS if failures == 0 else FAIL), records + [summary], None


def _graph(args):
    try:
        return raag.PresentationGraph.of(args.vertices, [tuple(e) for e in json.loads(args.edges)])
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit_usage(f"bad --edges {args.edges!r}: {exc!r}")


def cmd_raag_nf(args):
    graph = _graph(args)
    w = _parse_word(args.word, args.vertices)
    rec = {"record": "raag-nf", "input": _word_str(w),
           "normal_form": _word_str(raag.normal_form(graph, w))}
    return PASS, [rec], None


def cmd_raag_components(args):
    comps = raag.components(_graph(args))
    rec = {"record": "raag-components", "components": [sorted(c) for c in comps]}
    return PASS, [rec], None


def _parse_word(text: str, vertices: int) -> tuple:
    # "x1^2 x2^-1 x3" with 1-based generator names x1..x{vertices}
    out = []
    for tok in text.split():
        m = re.fullmatch(r"x(\d+)(?:\^([+-]?\d+))?", tok)
        if m is None:
            raise SystemExit_usage(f"bad syllable {tok!r}")
        g, e = int(m[1]), int(m[2] or 1)
        if not 1 <= g <= vertices:
            raise SystemExit_usage(f"generator x{g} outside graph with {vertices} vertices")
        out.append((g - 1, e))
    return tuple(out)


def _word_str(w) -> str:
    if not w:
        return "1"
    return " ".join(f"x{g+1}" + (f"^{e}" if e != 1 else "") for g, e in w)


def _load_family(args, reducible: bool = True) -> list:
    try:
        with open(args.family) as fh:
            factors = family_from_json(json.load(fh))
        # the coset images g.boundary(H_i) need each factor's reducing system,
        # which a finite or pseudo-Anosov factor lacks; ping-pong reads none
        for f in factors if reducible else ():
            if f.boundary is None:
                raise ValueError(f"factor {f.name} has no canonical reducing system")
        return factors
    except OSError as exc:
        raise SystemExit_usage(f"cannot read family file {args.family}: {exc}")
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit_usage(f"bad family file {args.family}: {exc!r}")


def cmd_tree_build(args):
    ball = build_ball(_load_family(args), args.radius)
    recs = [{"record": "tree-ball", "radius": args.radius,
             "type1": len(ball.vertices(1)), "type2": len(ball.vertices(2)),
             "truncated": len(ball.truncated)}]
    recs += [{"record": "tree-vertex", "kind": ball.kind[v], "syllables": len(ball.label[v]),
              "factor": ball.factor[v], "distance": ball.distance[v]} for v in ball.vertices()]
    return PASS, recs, None


def cmd_tree_qi(args):
    rep, rec = _qi_certificate(_load_family(args), args.radius, args.kappa)
    rec.update({"kappa_given": args.kappa, "kappa_given_ok": rep.kappa_given_ok,
                "envelope": rep.lower_envelope, "fit": rep.fit})
    ok = rep.benchmark_ok and rep.kappa_given_ok in (None, True)
    return _verdict(ok, rep.pairs), [rec], rep.pairs


def cmd_tree_free_product(args):
    rep = free_product_check(_load_family(args), budget=args.budget)
    rec = {"record": "free-product", "budget": args.budget,
           "identity_convention": "projective",
           "no_relation": rep.no_relation, "words_checked": rep.words_checked,
           "witness": _witness_json(rep.witness)}
    return PASS, [rec], None


def _verdict(ok: bool, settled) -> int:
    """FAIL when a check failed; otherwise NO_VERDICT when the scan behind the
    certificate settled nothing (it was empty: no pairs, no second factor,
    no triple, no curve sample; or a budgeted search missed), and PASS."""
    return FAIL if not ok else PASS if settled else NO_VERDICT


def _qi_certificate(factors, radius: int, kappa=None):
    """The embedding certificate within `radius` of v(1) in the Bass-Serre
    tree, and the qi-certificate record every command shares."""
    rep = qi_certificate(factors, radius, kappa)
    rec = {"record": "qi-certificate", "radius": radius,
           "pairs": rep.pairs.total(), "min_ratio": rep.min_ratio,
           "kappa_witness": rep.kappa_witness,
           "benchmark_half_dT_minus_4": rep.benchmark_ok}
    return rep, rec


def _witness_json(witness):
    if witness is None:
        return None
    return [{"factor": i, "matrix": list(m.entries())} for i, m in witness]


def cmd_cert_separated(args):
    rep = check_separated(_load_family(args), args.D)
    rec = {"record": "cert-separated", "D": args.D, "min": rep.minimum,
           "matrix": rep.matrix, "ok": rep.ok}
    return _verdict(rep.ok, rep.minimum is not None), [rec], None


def cmd_cert_misaligned(args):
    rep = check_misaligned(_load_family(args), args.A)
    rec = {"record": "cert-misaligned", "A": args.A, "min": rep.minimum,
           "ok": rep.ok, "vacuous": rep.vacuous,
           "table": {f"{i},{j},{k}": v for (i, j, k), v in sorted(rep.table.items())}}
    return _verdict(rep.ok, not rep.vacuous), [rec], None


def cmd_cert_pingpong(args):
    rep = pingpong_certificate(_load_family(args, reducible=False))
    rec = {"record": "cert-pingpong", "certified": rep.certified,
           "windows": [f"[{lo}, {hi}]" for lo, hi in rep.windows],
           "failing_pair": rep.failing_pair, "reason": rep.reason}
    # a failed ping-pong disproves nothing, so it is no verdict
    return (PASS if rep.certified else NO_VERDICT), [rec], None


def cmd_cert_displacing(args):
    rep = check_displacing(_load_family(args), args.L)
    rec = {"record": "cert-displacing", "L": args.L,
           "separation_ok": rep.separation_ok,
           "min_margin": rep.min_margin, "misses": rep.misses, "ok": rep.ok}
    # the scan is exact, so a miss fails the certificate; a family with no
    # tuple to scan settles nothing
    return _verdict(rep.ok, rep.min_margin is not None), [rec], None


def cmd_prop91(args):
    tw = twist_orbit_family(args.dprime, window=args.window, seed=args.seed,
                            factor_budget=args.factor_budget)
    records = [{"record": "prop91-family", "dprime": tw.dprime, "D": tw.D,
                "N": tw.N, "center": tw.center, "window": tw.window,
                "constants": tw.constants,
                "boundaries": [[f.boundary] for f in tw.family]},
               {"record": "prop91-separation", "min": tw.separation.minimum,
                "matrix": tw.separation.matrix, "ok": tw.separation.ok,
                "window_ok": tw.distance_window_ok},
               {"record": "prop91-misalignment", "min": tw.misalignment.minimum,
                "ok": tw.misalignment.ok}]
    qi, qi_rec = _qi_certificate(tw.family, args.radius)
    records.append(qi_rec)
    records.append({"record": "family-json", "family": family_to_json(tw.family)})
    ok = tw.separation.ok and tw.misalignment.ok and tw.distance_window_ok and qi.benchmark_ok
    return _verdict(ok, qi.pairs), records, qi.pairs


def cmd_theorem_b(args):
    seed = args.seed
    est = estimate_constants(seed=seed, n_geodesics=args.geodesics, qmax=args.qmax)
    rng = random.Random(seed + 7)
    curves = [projections.random_slope(rng, 200) for _ in range(args.curve_samples)]
    factor = FactorSpec.twist("H", INFINITY, power=2, budget=3)
    delta = Fraction(args.delta)
    table = constructions.displacement_table(factor, curves)
    dd = constructions.definite_distance_scan(table, est.M_emp)
    gb = constructions.gromov_bound_scan(table, delta, dd.K_emp)
    A, D = separation_constants(gb.Kp_emp, delta)
    records = [{"record": "theorem-b-constants", "M_emp": est.M_emp,
                "B_emp": est.B_emp, "c_emp": est.c_emp, "delta": delta,
                "K_emp": dd.K_emp, "K_closed_form": dd.K_closed_form,
                "Kp_emp": gb.Kp_emp, "Kp_closed_form": gb.closed_form,
                "Kp_within_closed_form": gb.within_closed_form,
                "A": A, "D": D}]
    dprime = int(D) + 8 + (1 if D != int(D) else 0)
    tw = twist_orbit_family(dprime, window=3, seed=seed, M_emp=est.M_emp,
                            factor_budget=args.factor_budget)
    # the family's own scans measured these distances; only the
    # thresholds differ
    separated_at_D = tw.separation.minimum >= int(D)
    misaligned_at_A = tw.misalignment.minimum >= A
    qi, qi_rec = _qi_certificate(tw.family, args.radius)
    fp = free_product_check(tw.family, budget=args.budget)
    rng2 = random.Random(seed + 11)
    words = [bassserre.random_alternating_word(tw.family, rng2)
             for _ in range(args.words)]
    lox = bassserre.loxodromic_scan(words)
    records += [
        {"record": "theorem-b-family", "dprime": dprime,
         "separated_at_D": separated_at_D, "misaligned_at_A": misaligned_at_A},
        {"record": "free-product", "budget": args.budget,
         "identity_convention": "projective",
         "no_relation": fp.no_relation, "witness": _witness_json(fp.witness)},
        qi_rec,
        {"record": "loxodromic-scan", "checked": lox.checked,
         "skipped": lox.skipped, "all_loxodromic": lox.all_loxodromic},
    ]
    ok = (separated_at_D and misaligned_at_A and fp.no_relation and qi.benchmark_ok
          and lox.all_loxodromic)
    # A and D from no curve far enough from the boundary, or M from no
    # projecting geodesic or raised by the fresh sample, are no constants
    m1, m2 = est.samples["M"]
    return _verdict(ok, qi.pairs and dd.samples and gb.samples and 0 < m2 <= m1), records, qi.pairs


def cmd_example92(args):
    cf = conjugate_twist_family(args.D, seed=args.seed, relation_budget=args.budget,
                                factor_budget=args.factor_budget)
    records = [{"record": "example92-family", "D": cf.D, "T": cf.T,
                "boundaries": [[f.boundary] for f in cf.family]},
               {"record": "example92-separation", "min": cf.separation.minimum,
                "ok": cf.separation.ok},
               {"record": "example92-misalignment", "min": cf.misalignment.minimum,
                "fails_at_2": not cf.misalignment.ok},
               {"record": "example92-relation", "found": cf.relation_found,
                "identity_convention": "projective",
                "witness": _witness_json(cf.relation_witness)},
               {"record": "family-json", "family": family_to_json(cf.family)}]
    # a budgeted search that finds no relation disproves nothing
    return _verdict(cf.separation.ok and not cf.misalignment.ok, cf.relation_found), records, None


# --- argument parsing --------------------------------------------------------


_SLOPES = {"a": {"type": _slope_arg}, "b": {"type": _slope_arg}}
_GRAPH = {"--vertices": _int_flag(0, required=True),
          "--edges": {"default": "[]", "help": "JSON list of [i, j] pairs, 0-based"}}
_FAMILY = {"--family": {"required": True, "help": "family JSON file"}}
# a relation has at least two syllables: a smaller budget searches nothing
_BUDGET = {"--budget": _int_flag(2, 8)}
_FACTOR_BUDGET = {"--factor-budget": _int_flag(1, 2)}
# only the actions that draw at random take --seed
_SEED = {"--seed": {"type": int, "required": True, "help": "RNG seed"}}
# only the actions that write a pair table take --format
_TABLE = {"--format": {"choices": ("json", "csv"), "default": "json"}}

# command: (help, {action: (handler, flags)}), each flag's add_argument
# keywords by name; the action None is a command that takes no action word
COMMANDS = {
    "farey": ("exact Farey distances and geodesics", {
        "dist": (cmd_farey_dist, _SLOPES),
        "geodesic": (cmd_farey_geodesic, _SLOPES)}),
    # four points make the least quadruple: fewer scan nothing
    "delta-estimate": ("four-point delta on slope samples", {
        None: (cmd_delta_estimate, {"--points": _int_flag(4, 40), "--qmax": _int_flag(1, 50),
                                    "--max-quadruples": _int_flag(1, 200000), **_SEED})}),
    "constants": ("empirical projection constants", {
        "estimate": (cmd_constants, {"--triples": _int_flag(1, 2000), "--qmax": _int_flag(1, 1000),
                                     "--geodesics": _int_flag(1, 400), **_SEED})}),
    # least values: a tree system's bounds, M = 0 and B = 1
    "persistence": ("projection persistence on generated sequences", {
        "check": (cmd_persistence, {"--sequences": _int_flag(1, 50), "--M": _int_flag(0, 3),
                                    "--B": _int_flag(1, 2), "--max-length": _int_flag(3, 8),
                                    **_SEED})}),
    "raag": ("normal forms and graph components", {
        "nf": (cmd_raag_nf, {**_GRAPH, "--word": {"default": "", "help": 'e.g. "x1^2 x2^-1"'}}),
        "components": (cmd_raag_components, _GRAPH)}),
    "tree": ("Bass-Serre balls, embedding certificates, relations", {
        "build": (cmd_tree_build, {**_FAMILY, "--radius": _int_flag(0, 4)}),
        "qi": (cmd_tree_qi, {**_FAMILY, "--radius": _int_flag(0, 4), "--kappa": _int_flag(1),
                             **_TABLE}),
        "free-product": (cmd_tree_free_product, {**_FAMILY, **_BUDGET})}),
    "cert": ("family certificates", {
        "separated": (cmd_cert_separated, {**_FAMILY, "--D": _int_flag(1, 5)}),
        "misaligned": (cmd_cert_misaligned, {**_FAMILY, "--A": _int_flag(1, 2)}),
        "displacing": (cmd_cert_displacing, {**_FAMILY, "--L": _int_flag(1, 11)}),
        "pingpong": (cmd_cert_pingpong, _FAMILY)}),
    "experiment": ("end-to-end reproductions", {
        "prop91": (cmd_prop91, {"--dprime": _int_flag(9, 20), "--window": _int_flag(1, 5),
                                "--radius": _int_flag(0, 6), **_FACTOR_BUDGET, **_SEED, **_TABLE}),
        "theorem-b": (cmd_theorem_b, {
            "--radius": _int_flag(0, 6), **_BUDGET, **_FACTOR_BUDGET,
            "--words": _int_flag(1, 100), "--curve-samples": _int_flag(1, 60),
            "--geodesics": _int_flag(1, 300),
            "--qmax": _int_flag(1, 800), "--delta": _int_flag(0, 1), **_SEED, **_TABLE}),
        "example92": (cmd_example92, {"--D": _int_flag(8, 8), **_BUDGET, **_FACTOR_BUDGET,
                                      **_SEED})}),
}


def _action_parser(parser: argparse.ArgumentParser, func, flags: dict):
    """Add the shared flags and `flags`."""
    parser.add_argument("--config", help="JSON file of flag values, read before the command line")
    parser.add_argument("--output", help="write JSON-lines report here (stdout otherwise)")
    for name, kw in flags.items():
        parser.add_argument(name, **kw)
    parser.set_defaults(func=func)


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `rgflab` parser with the actions of `command` only: argparse
    descends into the named command alone, so the others stay bare."""
    p = argparse.ArgumentParser(prog="rgflab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (text, actions) in COMMANDS.items():
        parser = sub.add_parser(name, help=text)
        if name != command:
            continue
        if None in actions:
            _action_parser(parser, *actions[None])
            continue
        action_sub = parser.add_subparsers(dest="action", required=True)
        for action, (func, flags) in actions.items():
            _action_parser(action_sub.add_parser(action), func, flags)
    return p


# reads only `--config`, before the action's parser, so that a config file
# can give a required flag; a bare `--config` is left to that parser's error
_CONFIG_PATH = argparse.ArgumentParser(add_help=False)
_CONFIG_PATH.add_argument("--config", nargs="?")


def _config_argv(command: str, action: str | None, path: str) -> list:
    """The `--flag=value` tokens of the `--config` file, one per key: a flag of
    the action in `COMMANDS`, or `--output`; `main` parses them first, so the command line wins."""
    try:
        with open(path) as fh:
            conf = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit_usage(f"cannot read config {path}: {exc}")
    if not isinstance(conf, dict):
        raise SystemExit_usage(f"config {path} must hold a JSON object")
    flags = COMMANDS[command][1][action][1]
    tokens = []
    for key, value in conf.items():
        flag = "--" + key.replace("_", "-")
        # the command line's --config would win over this one unread
        if flag == "--config":
            raise SystemExit_usage(f"config key {key!r}: a config file cannot name another")
        if flag not in flags and flag != "--output":
            raise SystemExit_usage(f"unknown config key {key!r} "
                                   f"for {' '.join(filter(None, (command, action)))}")
        tokens.append(f"{flag}={value}")
    return tokens


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    parser = build_parser(command)
    try:
        # the config path, looked for after the command words: the command and
        # its action word, if any; an unknown command or action is left to the
        # parser's error
        actions = COMMANDS[command][1] if command else {}
        words = 1 if None in actions else 2
        action = argv[1] if words == 2 and len(argv) > 1 else None
        if action in actions:
            path = _CONFIG_PATH.parse_known_args(argv[words:])[0].config
            if path is not None:
                argv[words:words] = _config_argv(command, action, path)
        args = parser.parse_args(argv)
        code, records, pairs = args.func(args)
        # the values the run used, whatever their source or spelling; where
        # the report goes, and in what form, is no part of the run
        config = {k: v for k, v in vars(args).items()
                  if k not in ("func", "output", "config", "format")}
        records = [{"record": "config", **config}] + records
        if getattr(args, "format", "json") == "csv":
            emit_csv(pairs, args.output)
        else:
            emit(records, args.output)
            if pairs is not None and args.output:
                emit_csv(pairs, args.output + ".csv")
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    except SystemExit_usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
