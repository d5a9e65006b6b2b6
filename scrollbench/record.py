"""Regenerate ``reference.json``: output digests and reference time of every
pool job.

Run from the repository root, at a commit whose output is trusted, on an
otherwise idle machine:

    python3 scrollbench/record.py

Every job must pass its structural oracle before its digests are written.
``ms`` (the median of seven runs per dialect, in the reference ms of
``hostspeed.py``) only sorts the pool into the bins that the job lists are
drawn from, so re-recording can change which jobs a seed draws.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import hostspeed
import jobs
from run import REFERENCE, load_program

RUNS = 7


def record_job(workload: str, n, q, cli, textio) -> dict:
    dialects = ("m2", "singular") if workload == "roundtrip" else ("m2",)
    sha: dict[str, str] = {}
    times = []
    for dialect in dialects:
        job = jobs.job_for(workload, n, q, dialect)
        for _ in range(RUNS):
            before = hostspeed.kernel_ns()
            outcome, ns = jobs.execute(job, cli, textio)
            times.append(ns * hostspeed.scale(before, hostspeed.kernel_ns()) / 1e6)
        if not outcome.error and all(c == 0 for c in outcome.codes):
            sha.update(jobs.output_digests(job, outcome.outputs))
        problem = jobs.check(job, outcome, {workload: {job.key: {"sha256": sha}}}, 0, full=True)
        if problem:
            raise SystemExit(f"{workload} {job.key}: {problem}")
    return {"ms": round(statistics.median(times), 3), "sha256": dict(sorted(sha.items()))}


def main() -> None:
    modules = load_program(Path(__file__).resolve().parent.parent)
    cli, scroll, textio = modules["cli"], modules["scroll"], modules["textio"]
    reference: dict[str, dict] = {}
    for workload in jobs.WORKLOADS:
        entries = reference[workload] = {}
        for key, n, q in jobs.pool(workload, scroll):
            entry = {}
            if workload == "symbolic":
                eqset = scroll.equation_set(scroll.build_profile(n))
                entry["terms"] = sum(p.num_terms() for _, p in eqset.weight_gens)
            if entry.get("terms", 0) <= jobs.SYMBOLIC_MAX_TERMS:
                entry.update(record_job(workload, n, q, cli, textio))
            entries[key] = entry
            print(f"{workload} {key} {entry.get('ms')} ms", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
