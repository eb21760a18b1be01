"""The benchmark's workloads: which jobs each runs, and their inputs.

Every input is derived from the benchmark seed.  At the default seed the
CLI jobs get exactly the seeds of the reference runs (`theorem-b --seed 11`,
`example92 --seed 7`, `constants --seed 0`, `delta-estimate --seed 3`,
`persistence --seed 2`); any other seed shifts all of them by the same
offset.  The two relation-search anchors take no seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0
WORKLOADS = ("embed", "algebra", "geometry")

# Full twists about 1/0 and 0/1: a relation turns up after 367 words.
FULL_TWIST = {"factors": [
    {"name": "A", "generators": [[1, 1, 0, 1]], "boundary": ["1/0"], "budget": 6},
    {"name": "B", "generators": [[1, 0, 1, 1]], "boundary": ["0/1"], "budget": 6}]}
# Squares of the same twists (the e=2 shear pair) generate a free group, so
# the search checks every word up to its budget.
SHEAR_PAIR = {"factors": [
    {"name": "A", "generators": [[1, 2, 0, 1]], "boundary": ["1/0"], "budget": 5},
    {"name": "B", "generators": [[1, 0, 2, 1]], "boundary": ["0/1"], "budget": 5}]}


@dataclass
class Job:
    """One unit of a pass: a CLI call (`argv`) or a batch of normal forms."""

    name: str
    argv: list | None = None
    expect: tuple = (0,)              # exit codes that count as success
    words: list = field(default_factory=list)


def raag_words(raag, seed: int, count: int) -> list:
    """`count` seeded (graph, word) pairs: graphs on 2-8 vertices with each
    edge present with probability 1/2, words of 1-40 syllables."""
    rng = random.Random(1_000_003 * seed + 92)
    graphs = []
    for _ in range(32):
        n = rng.randint(2, 8)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        graphs.append(raag.PresentationGraph.of(n, edges))
    out = []
    for _ in range(count):
        g = graphs[rng.randrange(len(graphs))]
        w = tuple((rng.randrange(g.n), rng.choice((-3, -2, -1, 1, 2, 3)))
                  for _ in range(rng.randint(1, 40)))
        out.append((g, w))
    return out


def build(workload: str, seed: int, workdir: str, toy: bool = False) -> list:
    """The jobs of one pass.  Writes the family files into `workdir`.

    `toy` shrinks every job to a few seconds in total; the self-test uses it.
    """
    off = seed - DEFAULT_SEED
    if workload == "embed":
        argv = ["experiment", "theorem-b", "--seed", str(11 + off)]
        return [Job("theorem-b", argv + (["--radius", "2"] if toy else []))]
    if workload == "algebra":
        from rgflab import raag
        jobs = []
        for name, doc in (("fp-full-twist", FULL_TWIST), ("fp-shear", SHEAR_PAIR)):
            path = os.path.join(workdir, name + ".json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            jobs.append(Job(name, ["tree", "free-product", "--family", path,
                                   "--budget", "6" if toy else "10"]))
        jobs.append(Job("example92", ["experiment", "example92", "--D", "8",
                                      "--seed", str(7 + off)]))
        jobs.append(Job("raag-nf", words=raag_words(raag, seed, 200 if toy else 20_000)))
        return jobs
    if workload == "geometry":
        triples, geodesics, points, sequences = (
            (300, 60, 10, 20) if toy else (10_000, 2_000, 24, 200))
        return [
            # a sampled estimate may end without a verdict (exit 3) when the
            # fresh sample demands a larger constant; that is a valid report
            Job("constants", ["constants", "estimate", "--seed", str(0 + off),
                              "--triples", str(triples), "--geodesics", str(geodesics)],
                expect=(0, 3)),
            # 24 points stay below --max-quadruples, so the scan is exhaustive
            Job("delta", ["delta-estimate", "--seed", str(3 + off), "--points", str(points),
                          "--qmax", "50", "--max-quadruples", "1000000"]),
            Job("persistence", ["persistence", "check", "--seed", str(2 + off),
                                "--sequences", str(sequences)]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def report_digest(path: str) -> tuple:
    """(sha256, bytes) of a report plus the CSV pair table beside it.

    The `config` record echoes argv, which holds temporary paths, so it is
    left out of the hash.
    """
    h = hashlib.sha256()
    size = 0
    with open(path, "rb") as fh:
        for line in fh:
            size += len(line)
            if json.loads(line).get("record") != "config":
                h.update(line)
    h.update(b"--csv--\n")
    if os.path.exists(path + ".csv"):
        with open(path + ".csv", "rb") as fh:
            data = fh.read()
        size += len(data)
        h.update(data)
    return h.hexdigest(), size


def words_digest(forms: list) -> str:
    return hashlib.sha256(repr(forms).encode()).hexdigest()
