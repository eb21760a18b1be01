"""rgflab benchmark: certificate pipelines end to end, and layer by layer.

    python3 perfbench/run.py --workload embed|algebra|geometry \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout (it imports `src/rgflab`).  Each pass over a
workload's jobs runs in a fresh worker process, one after another, for about
`--seconds`.  The program runs in one thread; a sampler thread in the same
worker pauses it briefly every 50 ms to time the machine's speed.

--trace 0 prints the end-to-end metrics: set-up time (median of several
set-ups) and wall time of one pass (mean over passes), both rescaled to the
reference machine speed, peak RSS and the share of jobs that passed their
checks.
--trace 1 runs one untraced pass and at least two traced ones and prints the
per-layer metrics instead.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it records the machine,
the job digests and the probe distances.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import jobs as jobs_mod
import tracer as tracer_mod

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 7
# Seconds per step of the worker's fixed integer loop at the reference speed
# (this benchmark's 2-core VM in a typical phase).  See `ref_s`.
REF_STEP_S = 0.4e-6
MIN_TRACED_PASSES = 2
WORKER_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}

_SHARES = {
    "embed.farey_distance.share": ("embed", ["farey.farey_distance"]),
    "geometry.projections_delta.share": ("geometry", [
        "farey.annular_distance", "projections.estimate_constants",
        "projections.behrstock_scan", "projections.bgit_scan", "projections.proj_dist",
        "projections.persistence_check", "hypgraph.estimate_delta"]),
    "algebra.relation_raag.share": ("algebra", [
        "bassserre.free_product_check", "raag.normal_form"]),
}


def _span_metrics(span: str, *fields) -> dict:
    units = {"calls": "count", "self_s": "s"}
    return {f"{span}.{f}": units[f] for f in fields}


PER_LAYER = {
    **_span_metrics("farey.farey_distance", "calls", "self_s"),
    **_span_metrics("farey.slope_set_distance", "calls", "self_s"),
    **_span_metrics("farey.annular_distance", "calls", "self_s"),
    **_span_metrics("farey.farey_geodesic", "calls", "self_s"),
    "farey.distance_us.cf16": "us",
    "farey.distance_us.cf128": "us",
    "farey.distance_us.cf512": "us",
    "farey.mul_us.4096bit": "us",
    **_span_metrics("hypgraph.estimate_delta", "calls", "self_s"),
    "hypgraph.estimate_delta.quadruples": "count",
    **_span_metrics("hypgraph.oracle_dist", "calls"),
    **_span_metrics("projections.estimate_constants", "self_s"),
    **_span_metrics("projections.behrstock_scan", "self_s"),
    "projections.behrstock_scan.triples": "count",
    **_span_metrics("projections.bgit_scan", "calls", "self_s"),
    **_span_metrics("projections.proj_dist", "calls"),
    **_span_metrics("projections.persistence_check", "calls", "self_s"),
    **_span_metrics("subgroups.enumerate_ball", "calls", "self_s"),
    "subgroups.enumerate_ball.repeat_frac": "ratio",
    **_span_metrics("subgroups.group_is_finite", "calls", "self_s"),
    **_span_metrics("raag.normal_form", "calls", "self_s"),
    "raag.normal_form.us_per_call": "us",
    **_span_metrics("bassserre.tree_distance", "calls", "self_s"),
    **_span_metrics("bassserre.qi_certificate", "self_s"),
    "bassserre.qi_certificate.pairs": "count",
    "bassserre.qi_certificate.us_per_pair": "us",
    **_span_metrics("bassserre.build_ball", "self_s"),
    "bassserre.ball.vertices": "count",
    **_span_metrics("bassserre.phi", "self_s"),
    **_span_metrics("bassserre.free_product_check", "calls", "self_s"),
    "bassserre.free_product_check.words_checked": "count",
    **_span_metrics("bassserre.loxodromic_scan", "self_s"),
    **_span_metrics("constructions.twist_orbit_family", "self_s"),
    **_span_metrics("constructions.check_separated", "self_s"),
    **_span_metrics("constructions.check_misaligned", "self_s"),
    **_span_metrics("constructions.definite_distance_scan", "self_s"),
    **_span_metrics("constructions.gromov_bound_scan", "self_s"),
    **_span_metrics("constructions.conjugate_twist_family", "self_s"),
    **_span_metrics("cli.main", "calls", "self_s"),
    "cli.report_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    **{name: "ratio" for name in _SHARES},
}


class Worker:
    """Starts worker processes for one workload and collects their results."""

    def __init__(self, workload: str, seed: int, toy: bool):
        self.workload, self.seed, self.toy = workload, seed, toy
        self.workdir = os.path.join(OUT_DIR, workload)
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)

    def __call__(self, mode: str, trace: bool = False) -> dict:
        out = os.path.join(self.workdir, "result.json")
        if os.path.exists(out):
            os.remove(out)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--workdir", self.workdir, "--out", out]
        cmd += ["--trace"] * trace + ["--toy"] * self.toy
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
        with open(out) as fh:
            return json.load(fh)


def check_jobs(passes: list, expected: dict | None) -> tuple:
    """(attempted, failed, digests).  A job fails on an unexpected exit code
    or a wrong digest: the recorded one when `expected` is given, otherwise
    the one the first pass produced."""
    attempted = failed = 0
    digests = dict(expected or {})
    for p in passes:
        for job in p["jobs"]:
            attempted += 1
            want = digests.setdefault(job["name"], job["digest"])
            if job["code"] not in job["expect"] or job["digest"] != want:
                failed += 1
    return attempted, failed, {j["name"]: j["digest"] for j in passes[0]["jobs"]}


def ref_s(seconds: float, step_s: float) -> float:
    """A time rescaled to reference seconds: the time it would have taken
    at the speed where the worker's fixed loop takes `REF_STEP_S` a step.

    On a shared VM each core runs up to 2x slower for seconds at a time,
    whatever runs on it.  A worker times that loop at the same moment and on
    the same core as what it measures: just before a set-up, and every 50 ms
    during a pass (`worker.SpeedSampler`).  Dividing by the loop's time per
    step takes out the machine's speed.
    """
    return seconds * REF_STEP_S / step_s


def end_to_end(run, seconds: float) -> tuple:
    """Set-ups, then passes for about `seconds`: another pass is started
    while it is expected to end less than half a pass after `seconds`."""
    setups = [run("setup") for _ in range(SETUP_REPEATS)]
    passes = []
    t0 = perf_counter()
    while not passes or (perf_counter() - t0) * (1 + 0.5 / len(passes)) <= seconds:
        passes.append(run("pass"))
    return setups, passes


def ref_stats(traced: dict) -> dict:
    """The span statistics of a traced pass in reference seconds.

    The speed samples pause whichever span is open, in proportion to its
    length, so every span time is also scaled by the pass's share of time
    not spent sampling."""
    scale = ref_s(traced["wall_s"], traced["step_s"]) / (traced["gross_s"] or 1.0)
    stats = tracer_mod.aggregate(traced["spans"])
    for rec in stats.values():
        rec["incl_s"] *= scale
        rec["self_s"] *= scale
    return stats


def layer_metrics(workload: str, traced: list, base: dict, probe: dict) -> tuple:
    """(metrics, counts_repeat) from the traced passes."""
    stats = [p["stats"] for p in traced]
    counts = [{**p["counts"], **{k: v["calls"] for k, v in s.items()}}
              for p, s in zip(traced, stats)]
    repeat = all(c == counts[0] for c in counts)
    walls = [ref_s(p["wall_s"], p["step_s"]) for p in traced]

    def self_s(span):
        return statistics.median([s[span]["self_s"] if span in s else 0.0 for s in stats])

    def incl_s(span):
        return statistics.median([s[span]["incl_s"] if span in s else 0.0 for s in stats])

    count = counts[0]
    calls = {span: count.get(span, 0) for _, _, span in tracer_mod.TARGETS}

    def per(value, n, scale=1e6):
        return value / n * scale if n else 0.0

    values = {
        "farey.distance_us.cf16": ref_s(probe["distance_us"]["16"], probe["step_s"]),
        "farey.distance_us.cf128": ref_s(probe["distance_us"]["128"], probe["step_s"]),
        "farey.distance_us.cf512": ref_s(probe["distance_us"]["512"], probe["step_s"]),
        "farey.mul_us.4096bit": ref_s(probe["mul_us"], probe["step_s"]),
        "hypgraph.estimate_delta.quadruples": count.get("hypgraph.estimate_delta.quadruples", 0),
        "projections.behrstock_scan.triples": count.get("projections.behrstock_scan.triples", 0),
        "subgroups.enumerate_ball.repeat_frac": per(
            count.get("subgroups.enumerate_ball.repeats", 0),
            calls["subgroups.enumerate_ball"], 1),
        "raag.normal_form.us_per_call": per(self_s("raag.normal_form"),
                                            calls["raag.normal_form"]),
        "bassserre.qi_certificate.pairs": count.get("bassserre.qi_certificate.pairs", 0),
        "bassserre.qi_certificate.us_per_pair": per(
            incl_s("bassserre.qi_certificate"), count.get("bassserre.qi_certificate.pairs", 0)),
        "bassserre.ball.vertices": count.get("bassserre.ball.vertices", 0),
        "bassserre.free_product_check.words_checked":
            count.get("bassserre.free_product_check.words_checked", 0),
        "cli.report_bytes": sum(j["report_bytes"] for j in traced[0]["jobs"]),
        "trace.overhead_frac": statistics.median(walls) / ref_s(base["wall_s"], base["step_s"]) - 1,
    }
    for name, (owner, spans) in _SHARES.items():
        values[name] = statistics.median(
            sum(st[s]["self_s"] for s in spans if s in st) / wall
            for wall, st in zip(walls, stats)) if owner == workload else 0.0
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls[span]
        elif field == "self_s":
            values[name] = self_s(span)
    return values, repeat


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cores": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            toy: bool = False, expected: dict | None = None) -> tuple:
    """(info, result): `result` is the final JSON line; `info` the one before.

    `expected` maps job names to digests; by default the recorded ones are
    used at the default seed, and at other seeds every pass must reproduce
    the digests of the first.
    """
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    if expected is None and seed == jobs_mod.DEFAULT_SEED and not toy:
        expected = reference["digests"][workload]
    run = Worker(workload, seed, toy)
    info = {"machine": machine(), "workload": workload, "seed": seed}
    correct = True
    if not trace:
        setups, passes = end_to_end(run, seconds)
        attempted, failed, info["digests"] = check_jobs(passes, expected)
        metrics = {
            "setup_s": statistics.median([ref_s(s["setup_s"], s["step_s"]) for s in setups]),
            "wall_s": statistics.mean(ref_s(p["wall_s"], p["step_s"]) for p in passes),
            "peak_rss_mb": statistics.median([p["rss_mb"] for p in passes]),
            "pass_frac": 1 - failed / attempted,
        }
        units = END_TO_END
        info["raw_setup_s"] = [s["setup_s"] for s in setups]
        info["raw_pass_s"] = [p["wall_s"] for p in passes]
        info["setup_step_s"] = [s["step_s"] for s in setups]
        info["pass_step_s"] = [p["step_s"] for p in passes]
    else:
        t0 = perf_counter()
        base = run("pass")
        traced = []
        while len(traced) < MIN_TRACED_PASSES or perf_counter() - t0 < seconds:
            traced.append(run("pass", trace=True))
            traced[-1]["stats"] = ref_stats(traced[-1])
        # traced reports must hash like the untraced pass (and the reference)
        attempted, failed, info["digests"] = check_jobs([base] + traced, expected)
        probe = run("probe")
        info["probe_distances"] = probe["distances"]
        info["probe_mul_sha256"] = probe["mul_sha256"]
        if seed == jobs_mod.DEFAULT_SEED:
            want = reference["probe"]
            correct = (probe["distances"] == want["distances"]
                       and probe["mul_sha256"] == want["mul_sha256"])
        metrics, repeat = layer_metrics(workload, traced, base, probe)
        correct = correct and repeat
        units = PER_LAYER
        info["pass_s"] = [p["wall_s"] for p in [base] + traced]
    result = {"correct": correct and failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    return info, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=jobs_mod.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=jobs_mod.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "rgflab", "__init__.py")):
        print("perfbench: run from the root of an rgflab checkout (no src/rgflab here)",
              file=sys.stderr)
        return 2
    info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
