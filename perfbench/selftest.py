"""Fast self-test of the benchmark at toy size (well under a minute).

    python3 perfbench/selftest.py

Run from the root of a checkout.  For each workload it checks that

- every metric named in BENCHMARK.json is printed, with its unit;
- the traced passes hash to the same digests as the untraced one;
- a tampered reference digest is counted as a failed job;

and that the benchmark refuses to run, printing no result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import jobs
import run

failures = []


def check(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def units(result: dict) -> dict:
    return {k: v["unit"] for k, v in result["metrics"].items()}


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    check(layer == run.PER_LAYER, "BENCHMARK.json per_layer matches run.PER_LAYER")

    for w in jobs.WORKLOADS:
        info, plain = run.measure(w, jobs.DEFAULT_SEED, 0, trace=False, toy=True)
        check(plain["correct"] and plain["failed"] == 0, f"{w}: untraced pass is correct")
        check(units(plain) == e2e, f"{w}: every end-to-end metric printed with its unit")

        _, traced = run.measure(w, jobs.DEFAULT_SEED, 0, trace=True, toy=True,
                                expected=info["digests"])
        check(traced["correct"] and traced["failed"] == 0,
              f"{w}: traced digests equal the untraced ones, counts repeat")
        check(units(traced) == layer, f"{w}: every per-layer metric printed with its unit")

        tampered = dict(info["digests"])
        first = next(iter(tampered))
        tampered[first] = "0" * 64
        _, bad = run.measure(w, jobs.DEFAULT_SEED, 0, trace=False, toy=True,
                             expected=tampered)
        check(bad["failed"] == 1 and not bad["correct"]
              and bad["metrics"]["pass_frac"]["value"] < 1,
              f"{w}: a tampered digest of {first!r} counts as a failed job")

    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "embed"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    check(proc.returncode != 0 and not proc.stdout,
          "without the program's sources the benchmark exits non-zero, printing no result")
    shutil.rmtree(bare)

    print(f"selftest: {'FAILED ' + str(len(failures)) if failures else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
