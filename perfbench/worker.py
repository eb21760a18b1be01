"""One benchmark process: set up a workload and, unless only set-up is being
timed, run one pass over its jobs; or time the kernel probes.  Started by
`run.py`, one process per pass, so every pass pays the cold start a user
pays.

    python3 perfbench/worker.py --mode pass --workload embed --seed 0 \
        --workdir .perfbench_out/embed --out result.json [--trace] [--toy]

Writes its findings to `--out` as JSON; the caller checks them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import traceback
from time import perf_counter

import jobs as jobs_mod


def _import_rgflab(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import rgflab.cli
    where = os.path.dirname(os.path.abspath(rgflab.__file__))
    if where != os.path.join(root, "src", "rgflab"):
        raise ImportError(f"rgflab was imported from {where}, not from this checkout")
    return rgflab.cli


def _loop(n: int) -> float:
    """Seconds for a fixed integer loop of `n` steps."""
    t0 = perf_counter()
    x, y = 1, 3 ** 160
    for i in range(n):
        x = (x * 48271 + i) % 2147483647
        y = y * 7 % 1000000000000000000000000000057
    return perf_counter() - t0


CALIB_STEPS = 50_000


def calibrate() -> float:
    """Seconds per step of a fixed integer loop, median of five: the
    machine's speed right now.  It runs before `rgflab` is imported, so the
    program cannot change its cost."""
    return statistics.median(_loop(CALIB_STEPS) for _ in range(5)) / CALIB_STEPS


class SpeedSampler(threading.Thread):
    """Times a short fixed loop every `PERIOD` seconds while a pass runs.

    The GIL lets one thread run Python at a time, so a sample pauses the
    pass and runs on the same core at that moment.  The mean time per loop
    step over the samples is the machine's mean speed during the pass.
    """

    PERIOD = 0.05
    STEPS = 2_500

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list = []           # (start, seconds)
        self._halt = threading.Event()

    def run(self):
        while True:
            t0 = perf_counter()
            self.samples.append((t0, _loop(self.STEPS)))
            if self._halt.wait(self.PERIOD):
                return

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def step_s(self) -> float:
        return statistics.mean(dt for _, dt in self.samples) / self.STEPS

    def within(self, t0: float, t1: float) -> float:
        """Seconds spent sampling between t0 and t1."""
        return sum(dt for start, dt in self.samples if t0 <= start < t1)


def pin_to_current_cpu() -> None:
    """Keep this process, and the threads it starts, on the CPU it runs on
    now, so that the speed samples time the core the pass runs on."""
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, IndexError, ValueError):
        pass


def run_job(job, cli, out_path: str, tracer=None) -> dict:
    """Run one job; time only the program's own work."""
    rec = {"name": job.name, "expect": list(job.expect), "report_bytes": 0}
    call = tracer.span if tracer else (lambda _name, fn, *a: fn(*a))
    try:
        if job.argv is not None:
            for stale in (out_path, out_path + ".csv"):
                if os.path.exists(stale):
                    os.remove(stale)
            t0 = perf_counter()
            code = call("job." + job.name, cli.main, job.argv + ["--output", out_path])
            rec["span"] = (t0, perf_counter())
            rec["code"] = code
            rec["digest"], rec["report_bytes"] = jobs_mod.report_digest(out_path)
        else:
            from rgflab import raag
            t0 = perf_counter()
            forms = call("job." + job.name,
                         lambda: [raag.normal_form(g, w) for g, w in job.words])
            rec["span"] = (t0, perf_counter())
            rec["code"] = 0
            rec["digest"] = jobs_mod.words_digest(forms)
    except Exception:                       # a crashed job counts as failed
        traceback.print_exc()
        rec.setdefault("span", (0.0, 0.0))
        rec["code"] = "exception"
        rec["digest"] = None
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "pass", "probe"), required=True)
    ap.add_argument("--workload", choices=jobs_mod.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args(argv)
    root = os.getcwd()
    pin_to_current_cpu()

    if args.mode == "probe":
        import probes
        _import_rgflab(root)
        sampler = SpeedSampler()
        sampler.start()
        result = probes.run(args.seed)
        sampler.stop()
        result["step_s"] = sampler.step_s()
    else:
        calib = calibrate() if args.mode == "setup" else None
        t0 = perf_counter()
        cli = _import_rgflab(root)
        jobs = jobs_mod.build(args.workload, args.seed, args.workdir, toy=args.toy)
        result = {"setup_s": perf_counter() - t0, "step_s": calib}
        if args.mode == "pass":
            tracer = None
            if args.trace:
                import tracer as tracer_mod
                tracer = tracer_mod.Tracer()
                tracer.install()
            sampler = SpeedSampler()
            sampler.start()
            recs = [run_job(job, cli, os.path.join(args.workdir, job.name + ".jsonl"), tracer)
                    for job in jobs]
            sampler.stop()
            intervals = [rec.pop("span") for rec in recs]
            for rec, (t0, t1) in zip(recs, intervals):
                rec["seconds"] = t1 - t0 - sampler.within(t0, t1)
            result["jobs"] = recs
            result["gross_s"] = sum(t1 - t0 for t0, t1 in intervals)
            result["wall_s"] = sum(r["seconds"] for r in recs)
            result["step_s"] = sampler.step_s()
            result["samples"] = len(sampler.samples)
            result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer:
                spans = os.path.join(args.workdir, "spans.bin")
                tracer.dump(spans)
                result["spans"] = spans
                result["counts"] = dict(tracer.counts)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
