"""Experiment runner: deterministic desk-scale pipelines over the library,
reporting JSON-lines records (plus CSV pair tables for plotting).

Exit codes: 0 all checks passed, 1 a certificate or check failed (the report
carries a witness record), 2 usage error, 3 no verdict: a budget was
exhausted, or the scan behind a certificate was empty.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import re
import sys
from collections import Counter
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
from .constructions import (FamilySpec, check_displacing, check_misaligned,
                            check_separated, conjugate_twist_family,
                            separation_constants, twist_orbit_family)

SEED_ENV = "RGFLAB_SEED"

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
    """Write the pair table, sorted, from the count of each distinct pair:
    the bytes of `csv.writer` on the sorted rows (CRLF line ends), without
    sorting the rows.  `pairs` is left as it is."""
    counts = Counter(pairs)
    text = "d_T,d_S\r\n" + "".join(f"{dt},{ds}\r\n" * counts[dt, ds] for dt, ds in sorted(counts))
    with _destination(out_path) as fh:
        fh.write(text)


def family_to_json(family: FamilySpec) -> dict:
    doc = {"factors": [
        {"name": f.name,
         "generators": [list(g.entries()) for g in f.group.generators],
         "boundary": [] if f.boundary is None else [str(f.boundary)],
         "budget": f.budget}
        for f in family.factors]}
    if family.betas is not None:
        doc["betas"] = [[str(b)] for b in family.betas]
    return doc


def _one_slope(texts, what: str) -> Slope:
    """The slope of a list of one `p/q` string: a torus curve system."""
    if len(texts) != 1:
        raise ValueError(f"{what} must be one slope, got {texts!r}")
    return Slope.parse(texts[0])


def family_from_json(doc: dict) -> FamilySpec:
    """The family of a family file.  A factor's `boundary` is derived from its
    generators, so the declared one must be its canonical reducing system."""
    factors = []
    for fd in doc["factors"]:
        group = subgroups.MatrixGroup.of(*fd["generators"])
        declared = (_one_slope(fd["boundary"], f"the boundary of factor {fd['name']}")
                    if fd["boundary"] else None)
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
    betas = None
    if "betas" in doc:
        betas = [_one_slope(b, "a betas entry") for b in doc["betas"]]
    return FamilySpec(factors, betas)


def _env_seed() -> int | None:
    """The seed in $RGFLAB_SEED, or None when it is unset; a value that is
    not an integer is a usage error."""
    env = os.environ.get(SEED_ENV)
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise SystemExit_usage(f"bad ${SEED_ENV} {env!r}: not an integer")


def _seed(args) -> int:
    """The seed `main` resolved; a usage error when there is none."""
    if args.seed is None:
        raise SystemExit_usage("a seed is required for sampled scans (--seed or $" + SEED_ENV + ")")
    return args.seed


class SystemExit_usage(Exception):
    pass


def _slope_arg(text: str) -> Slope:
    """argparse type for slope arguments, so a malformed one is a usage error."""
    try:
        return Slope.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad slope {text!r}: {exc}")


def _int_at_least(lo: int):
    """argparse type for integer flags with a least value `lo`, so a value
    below it is a usage error."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad integer {text!r}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value
    return convert


# --- subcommand handlers ----------------------------------------------------


def cmd_farey(args):
    a, b = args.a, args.b
    if args.action == "dist":
        d = farey.farey_distance(a, b)
        bfs, stable = farey.stabilized_bfs_distance(a, b, args.oracle_bound)
        rec = {"record": "farey-dist", "a": a, "b": b, "distance": d,
               "oracle": {"value": bfs, "stabilized": stable,
                          "bounds": [args.oracle_bound, 2 * args.oracle_bound],
                          "agrees": bfs == d}}
        code = PASS if bfs == d else (FAIL if stable else NO_VERDICT)
        return code, [rec], None
    path = farey.farey_geodesic(a, b)
    rec = {"record": "farey-geodesic", "a": a, "b": b,
           "length": len(path) - 1, "vertices": path,
           "valid": farey.is_geodesic(path)}
    return (PASS if rec["valid"] else FAIL), [rec], None


def cmd_delta_estimate(args):
    seed = _seed(args)
    if args.points > 2 * args.qmax + 2:
        # below this bound 1/0 and the q = 1 slopes alone are enough
        available = 1 + sum(1 for q in range(1, args.qmax + 1)
                            for p in range(-args.qmax, args.qmax + 1) if math.gcd(p, q) == 1)
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
    seed = _seed(args)
    est = estimate_constants(seed=seed, n_triples=args.triples,
                             n_geodesics=args.geodesics, qmax=args.qmax)
    rec = {"record": "constants", "M_emp": est.M_emp, "B_emp": est.B_emp,
           "c_emp": est.c_emp, "stable": est.stable, "samples": est.samples,
           "seed": seed}
    return (PASS if est.stable else NO_VERDICT), [rec], None


def cmd_persistence(args):
    seed = _seed(args)
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


def cmd_raag(args):
    try:
        graph = raag.PresentationGraph.of(args.vertices,
                                          [tuple(e) for e in json.loads(args.edges)])
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit_usage(f"bad --edges {args.edges!r}: {exc!r}")
    if args.action == "nf":
        w = _parse_word(args.word, args.vertices)
        nf = raag.normal_form(graph, w)
        rec = {"record": "raag-nf", "input": _word_str(w), "normal_form": _word_str(nf)}
        return PASS, [rec], None
    comps = raag.components(graph)
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


def _load_family(args) -> FamilySpec:
    try:
        with open(args.family) as fh:
            family = family_from_json(json.load(fh))
        # the coset images g.boundary(H_i) need each factor's reducing system,
        # which a finite or pseudo-Anosov factor lacks; ping-pong reads none
        for f in family.factors if args.action != "pingpong" else ():
            if f.boundary is None:
                raise ValueError(f"factor {f.name} has no canonical reducing system")
        return family
    except OSError as exc:
        raise SystemExit_usage(f"cannot read family file {args.family}: {exc}")
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit_usage(f"bad family file {args.family}: {exc!r}")


def cmd_tree(args):
    family = _load_family(args)
    if args.action == "build":
        ball = build_ball(family.factors, args.radius)
        recs = [{"record": "tree-ball", "radius": args.radius,
                 "type1": len(ball.vertices(1)), "type2": len(ball.vertices(2)),
                 "truncated": len(ball.truncated)}]
        for v in ball.vertices():
            recs.append({"record": "tree-vertex", "kind": ball.kind[v],
                         "syllables": len(ball.label[v]), "factor": ball.factor[v],
                         "distance": ball.distance[v]})
        return PASS, recs, None
    if args.action == "qi":
        rep, rec = _qi_certificate(family.factors, args.radius, args.kappa)
        rec.update({"kappa_given": args.kappa, "kappa_given_ok": rep.kappa_given_ok,
                    "envelope": rep.lower_envelope,
                    "fit": rep.fit})
        ok = rep.benchmark_ok and rep.kappa_given_ok in (None, True)
        return _verdict(ok, rep.pairs), [rec], rep.pairs
    rep = free_product_check(family.factors, budget=args.budget)
    rec = {"record": "free-product", "budget": args.budget,
           "identity_convention": "projective",
           "no_relation": rep.no_relation, "words_checked": rep.words_checked,
           "witness": _witness_json(rep.witness)}
    return PASS, [rec], None


def _verdict(ok: bool, settled) -> int:
    """FAIL when a check failed; otherwise NO_VERDICT when the scan behind the
    certificate settled nothing (it was empty: no pairs, no second factor,
    no triple; or a budgeted search missed), and PASS."""
    return FAIL if not ok else PASS if settled else NO_VERDICT


def _qi_certificate(factors, radius: int, kappa=None):
    """The embedding certificate on the tree ball of `radius`, and the
    qi-certificate record every command shares."""
    ball = build_ball(factors, radius)
    rep = qi_certificate(ball, kappa=kappa)
    rec = {"record": "qi-certificate", "radius": radius,
           "pairs": len(rep.pairs), "min_ratio": rep.min_ratio,
           "kappa_witness": rep.kappa_witness,
           "benchmark_half_dT_minus_4": rep.benchmark_ok}
    return rep, rec


def _witness_json(witness):
    if witness is None:
        return None
    return [{"factor": i, "matrix": list(m.entries())} for i, m in witness]


def cmd_cert(args):
    family = _load_family(args)
    if args.action == "separated":
        rep = check_separated(family, args.D)
        rec = {"record": "cert-separated", "D": args.D, "min": rep.minimum,
               "matrix": rep.matrix, "ok": rep.ok}
        return _verdict(rep.ok, rep.minimum is not None), [rec], None
    if args.action == "misaligned":
        rep = check_misaligned(family, args.A)
        rec = {"record": "cert-misaligned", "A": args.A, "min": rep.minimum,
               "ok": rep.ok, "vacuous": rep.vacuous,
               "table": {f"{i},{j},{k}": v for (i, j, k), v in sorted(rep.table.items())}}
        return _verdict(rep.ok, not rep.vacuous), [rec], None
    if args.action == "pingpong":
        rep = pingpong_certificate(family.factors)
        rec = {"record": "cert-pingpong", "certified": rep.certified,
               "windows": [f"[{lo}, {hi}]" for lo, hi in rep.windows],
               "failing_pair": rep.failing_pair, "reason": rep.reason}
        # a failed ping-pong disproves nothing, so it is no verdict
        return (PASS if rep.certified else NO_VERDICT), [rec], None
    rep = check_displacing(family, args.L, shell_bound=args.shell_bound)
    rec = {"record": "cert-displacing", "L": args.L,
           "stabilize_ok": rep.stabilize_ok, "separation_ok": rep.separation_ok,
           "min_margin": rep.min_margin, "misses": rep.misses, "ok": rep.ok}
    # a miss disproves nothing, but a curve its factor moves, or two curves
    # too close, fails the certificate whatever the search found
    settled = not rep.misses and rep.min_margin is not None
    return _verdict(rep.stabilize_ok and rep.separation_ok, settled), [rec], None


def cmd_experiment(args):
    seed = _seed(args)
    if args.kind == "prop91":
        tw = twist_orbit_family(args.dprime, window=args.window, seed=seed,
                                factor_budget=args.factor_budget)
        records = [{"record": "prop91-family", "dprime": tw.dprime, "D": tw.D,
                    "N": tw.N, "center": tw.center, "window": tw.window,
                    "constants": tw.constants,
                    "boundaries": [[f.boundary] for f in tw.family.factors]},
                   {"record": "prop91-separation", "min": tw.separation.minimum,
                    "matrix": tw.separation.matrix, "ok": tw.separation.ok,
                    "window_ok": tw.distance_window_ok},
                   {"record": "prop91-misalignment", "min": tw.misalignment.minimum,
                    "ok": tw.misalignment.ok}]
        qi, qi_rec = _qi_certificate(tw.family.factors, args.radius)
        records.append(qi_rec)
        records.append({"record": "family-json", "family": family_to_json(tw.family)})
        ok = tw.separation.ok and tw.misalignment.ok and tw.distance_window_ok and qi.benchmark_ok
        return _verdict(ok, qi.pairs), records, qi.pairs

    if args.kind == "theorem-b":
        est = estimate_constants(seed=seed, n_triples=args.triples,
                                 n_geodesics=args.geodesics, qmax=args.qmax)
        rng = random.Random(seed + 7)
        curves = [projections.random_slope(rng, 200) for _ in range(args.curve_samples)]
        factor = FactorSpec.twist("H", INFINITY, power=2, budget=3)
        delta = Fraction(args.delta)
        dd = constructions.definite_distance_scan(factor, curves, est.M_emp)
        gb = constructions.gromov_bound_scan(factor, curves, delta, dd.K_emp)
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
        sep_at_D = check_separated(tw.family, int(D))
        mis_at_A = check_misaligned(tw.family, A)
        qi, qi_rec = _qi_certificate(tw.family.factors, args.radius)
        fp = free_product_check(tw.family.factors, budget=args.budget)
        rng2 = random.Random(seed + 11)
        words = [bassserre.random_alternating_word(tw.family.factors, rng2)
                 for _ in range(args.words)]
        lox = bassserre.loxodromic_scan(words)
        records += [
            {"record": "theorem-b-family", "dprime": dprime,
             "separated_at_D": sep_at_D.ok, "misaligned_at_A": mis_at_A.ok},
            {"record": "free-product", "budget": args.budget,
             "identity_convention": "projective",
             "no_relation": fp.no_relation, "witness": _witness_json(fp.witness)},
            qi_rec,
            {"record": "loxodromic-scan", "checked": lox.checked,
             "skipped": lox.skipped, "all_loxodromic": lox.all_loxodromic},
        ]
        ok = (sep_at_D.ok and mis_at_A.ok and fp.no_relation and qi.benchmark_ok
              and lox.all_loxodromic)
        return _verdict(ok, qi.pairs), records, qi.pairs

    cf = conjugate_twist_family(args.D, seed=seed,
                                relation_budget=args.budget,
                                factor_budget=args.factor_budget)
    records = [{"record": "example92-family", "D": cf.D,
                "T": cf.T,
                "boundaries": [[f.boundary] for f in cf.family.factors]},
               {"record": "example92-separation", "min": cf.separation.minimum,
                "ok": cf.separation.ok},
               {"record": "example92-misalignment", "min": cf.misalignment.minimum,
                "fails_at_2": not cf.misalignment.ok},
               {"record": "example92-relation", "found": cf.relation_found,
                "identity_convention": "projective",
                "witness": _witness_json(cf.relation_witness)},
               {"record": "family-json", "family": family_to_json(cf.family)}]
    ok = cf.separation.ok and (not cf.misalignment.ok) and cf.relation_found
    return (PASS if ok else FAIL), records, None


# --- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON file supplying defaults for the flags")
    shared.add_argument("--output", help="write JSON-lines report here (stdout otherwise)")
    shared.add_argument("--format", choices=("json", "csv"), default="json")
    shared.add_argument("--seed", type=int, help=f"RNG seed (default ${SEED_ENV})")
    # shared flags belong to the subcommands only: on the top-level parser
    # too, the subcommand's defaults would overwrite the values given there
    p = argparse.ArgumentParser(prog="rgflab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[shared], **kw)

    pf = add_parser("farey", help="exact Farey distances and geodesics")
    pf.add_argument("action", choices=("dist", "geodesic"))
    pf.add_argument("a", type=_slope_arg)
    pf.add_argument("b", type=_slope_arg)
    pf.add_argument("--oracle-bound", type=_int_at_least(1), default=64)
    pf.set_defaults(func=cmd_farey)

    pd = add_parser("delta-estimate", help="four-point delta on slope samples")
    pd.add_argument("--points", type=_int_at_least(1), default=40)
    pd.add_argument("--qmax", type=_int_at_least(1), default=50)
    pd.add_argument("--max-quadruples", type=_int_at_least(1), default=200000)
    pd.set_defaults(func=cmd_delta_estimate)

    pc = add_parser("constants", help="empirical projection constants")
    pc.add_argument("action", choices=("estimate",))
    pc.add_argument("--triples", type=_int_at_least(1), default=2000)
    pc.add_argument("--geodesics", type=_int_at_least(1), default=400)
    pc.add_argument("--qmax", type=_int_at_least(1), default=1000)
    pc.set_defaults(func=cmd_constants)

    pp = add_parser("persistence", help="projection persistence on generated sequences")
    pp.add_argument("action", choices=("check",))
    pp.add_argument("--sequences", type=_int_at_least(1), default=50)
    pp.add_argument("--max-length", type=_int_at_least(3), default=8)
    # least values: a tree system's bounds, M = 0 and B = 1
    pp.add_argument("--M", type=_int_at_least(0), default=3)
    pp.add_argument("--B", type=_int_at_least(1), default=2)
    pp.set_defaults(func=cmd_persistence)

    pr = add_parser("raag", help="normal forms and graph components")
    pr.add_argument("action", choices=("nf", "components"))
    pr.add_argument("--vertices", type=_int_at_least(0), required=True)
    pr.add_argument("--edges", default="[]", help='JSON list of [i, j] pairs, 0-based')
    pr.add_argument("--word", default="", help='e.g. "x1^2 x2^-1"')
    pr.set_defaults(func=cmd_raag)

    pt = add_parser("tree", help="Bass-Serre balls, embedding certificates, relations")
    pt.add_argument("action", choices=("build", "qi", "free-product"))
    pt.add_argument("--family", required=True, help="FamilySpec JSON file")
    pt.add_argument("--radius", type=_int_at_least(0), default=4)
    pt.add_argument("--kappa", type=_int_at_least(1))
    # a relation has at least two syllables: a smaller budget searches nothing
    pt.add_argument("--budget", type=_int_at_least(2), default=8)
    pt.set_defaults(func=cmd_tree)

    pcert = add_parser("cert", help="family certificates")
    pcert.add_argument("action", choices=("separated", "misaligned", "displacing", "pingpong"))
    pcert.add_argument("--family", required=True)
    pcert.add_argument("--D", type=_int_at_least(1), default=5)
    pcert.add_argument("--A", type=_int_at_least(1), default=2)
    pcert.add_argument("--L", type=_int_at_least(1), default=11)
    pcert.add_argument("--shell-bound", type=_int_at_least(0), default=40)
    pcert.set_defaults(func=cmd_cert)

    pe = add_parser("experiment", help="end-to-end reproductions")
    pe.add_argument("kind", choices=("prop91", "theorem-b", "example92"))
    pe.add_argument("--dprime", type=_int_at_least(9), default=20)
    pe.add_argument("--window", type=_int_at_least(1), default=5)
    pe.add_argument("--radius", type=_int_at_least(0), default=6)
    pe.add_argument("--D", type=_int_at_least(8), default=8)
    pe.add_argument("--budget", type=_int_at_least(2), default=8)
    pe.add_argument("--factor-budget", type=_int_at_least(1), default=2)
    pe.add_argument("--words", type=_int_at_least(1), default=100)
    pe.add_argument("--curve-samples", type=_int_at_least(1), default=60)
    pe.add_argument("--triples", type=_int_at_least(1), default=1000)
    pe.add_argument("--geodesics", type=_int_at_least(1), default=300)
    pe.add_argument("--qmax", type=_int_at_least(1), default=800)
    pe.add_argument("--delta", type=_int_at_least(0), default=1)
    pe.set_defaults(func=cmd_experiment)
    return p


def _subparser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices[command]


def _echoed_argv(sub: argparse.ArgumentParser, argv) -> list:
    """The command line without `--output` and `--config` and their values,
    in every form the subcommand's parser accepts (`--output P`,
    `--output=P`, abbreviations such as `--out P`), so that the `config`
    record does not depend on where the report is written."""
    known = sub._option_string_actions
    dropped = {known["--output"], known["--config"]}
    echoed = []
    skip = False
    for tok in argv:
        if skip:
            skip = False
            continue
        name, eq, _ = tok.partition("=")
        if name.startswith("--"):
            matches = [name] if name in known else [s for s in known if s.startswith(name)]
            if len(matches) == 1 and known[matches[0]] in dropped:
                skip = not eq
                continue
        echoed.append(tok)
    return echoed


def _config_defaults(parser: argparse.ArgumentParser, args) -> dict | None:
    """Make the values of the `--config` file defaults of the chosen
    subcommand's parser, so flags given on the command line still override
    them.  Returns the file's values, or None without `--config`."""
    if args.config is None:
        return None
    try:
        with open(args.config) as fh:
            conf = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit_usage(f"cannot read config {args.config}: {exc}")
    if not isinstance(conf, dict):
        raise SystemExit_usage(f"config {args.config} must hold a JSON object")
    sub = _subparser(parser, args.command)
    defaults = {}
    for key, value in conf.items():
        action = sub._option_string_actions.get("--" + key.replace("_", "-"))
        if action is None:
            raise SystemExit_usage(f"unknown config key {key!r} for {args.command}")
        # argparse converts string defaults with the flag's type but never
        # checks them against its choices
        if action.choices is not None and str(value) not in action.choices:
            raise SystemExit_usage(f"config key {key!r}: {value!r} not in {list(action.choices)}")
        defaults[action.dest] = str(value)
    sub.set_defaults(**defaults)
    return conf


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        conf = _config_defaults(parser, args)
        if conf is not None:
            args = parser.parse_args(argv)
        if args.seed is None:
            args.seed = _env_seed()
        code, records, pairs = args.func(args)
        echoed = _echoed_argv(_subparser(parser, args.command), argv)
        config_echo = {"record": "config", "argv": echoed, "seed": args.seed}
        if conf is not None:
            config_echo["config_values"] = conf
        records = [config_echo] + records
        if args.format == "csv" and pairs is not None:
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
