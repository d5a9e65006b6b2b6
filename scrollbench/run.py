"""scrolleq benchmark: one workload, one seed, closed loop, one client.

    python3 scrollbench/run.py --workload symbolic --seed 1 --seconds 30 --trace 0

Run from the repository root.  The harness imports ``scrolleq`` from
``src/`` and drives ``scrolleq.cli.run`` in-process, one job at a time, with
no threads or worker processes.  Each workload is a seeded list of jobs
(see ``jobs.py`` and README.md), cycled until ``--seconds`` have passed and
at least one whole pass is done.  Every execution's output is digest-checked
and each job's first output goes through a structural oracle; both run
outside the timed region.  Every timed interval is bracketed by the
host-speed kernel of ``hostspeed.py`` and reported in reference ms.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every job
untraced and then traced, and reports per-layer figures from spans recorded
by wrappers around each module's public functions, plus the tracing
overhead.  Human-readable lines come first; the last line of stdout is the
JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import hostspeed
import jobs
import tracer as tracing

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT_DIR = HERE / "out"

MODULES = ("polyring", "textio", "scroll", "verify", "export", "cli")
SETUP_REPEATS = 30
# Traced executions per job at most; bounds the spans kept in memory.
TRACED_PASSES = 3
TAIL_BEYOND = 10

# Fixed, seed-independent warm-up job per workload, run after each import.
WARMUP = {
    "symbolic": jobs.job_for("symbolic", (1, 2), None),
    "enumerate": jobs.job_for("enumerate", (1, 2), 3),
    "roundtrip": jobs.job_for("roundtrip", (1, 1, 1), None),
}

# Per-layer metrics in the JSON result: every count, and the self times of
# the layers that all three workloads call.  A layer a workload never calls
# would report a constant 0 ms (or 0 points/s); those figures are printed
# above the result instead.
PER_LAYER = (
    "polyring.mul.calls", "polyring.mul.self_ms",
    "polyring.pow.calls", "polyring.pow.self_ms", "polyring.pow.terms_out",
    "polyring.substitute.calls", "polyring.format.calls", "polyring.format.bytes",
    "scroll.equation_set.calls", "scroll.equation_set.self_ms",
    "scroll.g_polynomial.calls", "scroll.g_polynomial.self_ms",
    "scroll.g_polynomial.terms_out", "scroll.g_polynomial.coeff_bits_max",
    "scroll.bridge.self_ms", "scroll.minors_2x2.self_ms", "scroll.minors_2x2.count",
    "verify.compare_varieties.calls", "verify.points_visited",
    "textio.parse_poly.calls", "textio.parse_poly.bytes", "export.cas_script.bytes",
    "cli.run.calls", "cli.run.self_ms", "cli.output_bytes",
    "trace.overhead_pct",
)


class ProgramMissing(RuntimeError):
    pass


def load_program(root: Path) -> dict:
    """Import ``scrolleq`` afresh from ``root/src``; returns short module name
    (``""`` for the package) -> module."""
    src = root / "src"
    if not (src / "scrolleq" / "cli.py").is_file():
        raise ProgramMissing(f"no scrolleq sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "scrolleq" or m.startswith("scrolleq.")]:
        del sys.modules[name]
    modules = {"": importlib.import_module("scrolleq")}
    for name in MODULES:
        modules[name] = importlib.import_module(f"scrolleq.{name}")
    if Path(modules[""].__file__).resolve().parent != (src / "scrolleq").resolve():
        raise ProgramMissing(f"scrolleq was imported from {modules[''].__file__}")
    return modules


def setup(root: Path, workload: str, seed: int):
    """Import, job generation and warm-up: what a run pays before its loop."""
    modules = load_program(root)
    reference = json.loads(REFERENCE.read_text())
    job_list = jobs.job_list(workload, seed, modules["scroll"], reference)
    warm, _ = jobs.execute(WARMUP[workload], modules["cli"], modules["textio"])
    if warm.error or any(warm.codes):
        raise RuntimeError(f"warm-up job failed: {warm.error or warm.codes}")
    return modules, reference, job_list


def tail_rank(n: int) -> tuple[int, float]:
    """Index into n sorted samples with TAIL_BEYOND samples above it, and
    the percentile it stands for."""
    idx = max(0, n - TAIL_BEYOND - 1)
    return idx, 100.0 * (idx + 1) / n


class Loop:
    """Closed loop over the job list; records times, failures and profiles."""

    def __init__(self, job_list, modules, reference, seed, trace: bool):
        self.job_list = job_list
        self.cli = modules["cli"]
        self.textio = modules["textio"]
        self.modules = modules
        self.reference = reference
        self.seed = seed
        self.trace = trace
        self.tracer = tracing.Tracer()
        self.times = defaultdict(list)  # reference ns of each untraced run
        self.raw = defaultdict(list)  # raw ns of the same runs
        self.profiles = defaultdict(list)
        self.checked = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes = 0

    def _execute(self, j: int, job, traced: bool) -> None:
        before = hostspeed.kernel_ns()
        if traced:
            patches = tracing.install(self.tracer, self.modules)
            root = self.tracer.open("job")
            try:
                out, ns = jobs.execute(job, self.cli, self.textio)
            finally:
                self.tracer.close(root)
                tracing.uninstall(patches)
            scale = hostspeed.scale(before, hostspeed.kernel_ns())
            self.tracer.count(root, {"output_bytes": sum(len(o) for o in out.outputs)})
            self.profiles[j].append(
                (ns * scale, scale, tracing.execution_profile(self.tracer, root)))
        else:
            out, ns = jobs.execute(job, self.cli, self.textio)
            self.times[j].append(ns * hostspeed.scale(before, hostspeed.kernel_ns()))
            self.raw[j].append(ns)
        self.attempted += 1
        problem = jobs.check(job, out, self.reference, self.seed, full=j not in self.checked)
        self.checked.add(j)
        if problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{job.workload} {job.key}: {problem}")

    def run(self, seconds: float, between=None, every: float = 0.0) -> None:
        """Cycle the job list; ``between()`` runs between jobs once per
        ``every`` seconds."""
        now = time.perf_counter()
        deadline = now + seconds
        next_call = now + every
        while not (self.trace and self.passes == TRACED_PASSES):
            for j, job in enumerate(self.job_list):
                now = time.perf_counter()
                if self.passes and now >= deadline:
                    return
                if between is not None and now >= next_call:
                    between()
                    next_call += every
                self._execute(j, job, traced=False)
                if self.trace:
                    self._execute(j, job, traced=True)
            self.passes += 1


def job_ms(times: dict) -> list[float]:
    """Each job's median run, in ms, by job index."""
    return [statistics.median(ts) / 1e6 for _, ts in sorted(times.items())]


def end_to_end(loop: Loop, workload: str, setup_s: float) -> tuple[dict, list[str]]:
    per_job = job_ms(loop.times)
    ordered = sorted(per_job)
    idx, pct = tail_rank(len(ordered))
    runs = [len(ts) for ts in loop.times.values()]
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(per_job) / (sum(per_job) / 1000), "1/s"),
        "job_ms_p50": (statistics.median(per_job), "ms"),
        "job_ms_tail": (ordered[idx], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines[3] += (f"  (p{pct:.1f}: {TAIL_BEYOND} of {len(per_job)} jobs above it; "
                 f"each job's median of {min(runs)}-{max(runs)} runs, {sum(runs)} runs)")
    if workload == "enumerate":
        points = sum(job.points for job in loop.job_list)
        lines.append(f"points_per_s = {points / (sum(per_job) / 1000):.6g} 1/s  "
                     f"(sum of projective sizes over sum of per-job times)")
    raw = job_ms(loop.raw)
    lines.append(f"raw (unscaled) jobs_per_s = {len(raw) / (sum(raw) / 1000):.6g} 1/s, "
                 f"job_ms_p50 = {statistics.median(raw):.6g} ms")
    lines.append(f"failed_frac = {loop.failed / loop.attempted:.6g} "
                 f"({loop.failed} of {loop.attempted})")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(loop: Loop) -> tuple[dict, list[str]]:
    """Per-layer figures for one pass of the job list, each job contributing
    its fastest traced execution.  Self times are in reference ns."""
    totals: dict[str, float] = defaultdict(float)
    for _, runs in sorted(loop.profiles.items()):
        _, scale, prof = min(runs, key=lambda run: run[0])
        for key, value in prof.items():
            if key.endswith("_max"):
                totals[key] = max(totals[key], value)
            elif key.endswith(".self_ns"):
                totals[key] += value * scale
            else:
                totals[key] += value

    def ms(span):
        return totals.get(span + ".self_ns", 0) / 1e6

    def calls(span):
        return totals.get(span + ".calls", 0)

    visited = totals.get("verify.compare_varieties.points_visited", 0)
    compare_s = ms("verify.compare_varieties") / 1000
    untraced = sum(job_ms(loop.times))
    traced = sum(job_ms({j: [run[0] for run in runs] for j, runs in loop.profiles.items()}))
    metrics: dict[str, tuple[float, str]] = {}
    for span in ("polyring.mul", "polyring.pow", "polyring.substitute", "polyring.format",
                 "scroll.equation_set", "scroll.g_polynomial", "verify.compare_varieties",
                 "textio.parse_poly", "cli.run"):
        metrics[span + ".calls"] = (calls(span), "count")
    for span in ("polyring.mul", "polyring.pow", "polyring.substitute",
                 "polyring.reduce_mod", "polyring.format", "scroll.equation_set",
                 "scroll.g_polynomial", "scroll.bridge", "scroll.minors_2x2",
                 "verify.check_parametrization", "verify.check_bridge",
                 "verify.plucker_identity", "verify.compare_varieties", "textio.parse_poly",
                 "textio.poly_to_json", "textio.poly_from_json", "export.cas_script",
                 "cli.run", "job"):
        metrics[span + ".self_ms"] = (ms(span), "ms")
    metrics.update({
        "polyring.pow.terms_out": (totals.get("polyring.pow.terms_out", 0), "count"),
        "polyring.format.bytes": (totals.get("polyring.format.bytes", 0), "bytes"),
        "scroll.g_polynomial.terms_out":
            (totals.get("scroll.g_polynomial.terms_out", 0), "count"),
        "scroll.g_polynomial.coeff_bits_max":
            (totals.get("scroll.g_polynomial.coeff_bits_max", 0), "bits"),
        "scroll.minors_2x2.count": (totals.get("scroll.minors_2x2.count", 0), "count"),
        "verify.points_visited": (visited, "count"),
        "verify.scan_points_per_s": (visited / compare_s if compare_s else 0.0, "1/s"),
        "verify.hit_ratio":
            (totals.get("verify.compare_varieties.hits", 0) / visited if visited else 0.0,
             "ratio"),
        "textio.parse_poly.bytes": (totals.get("textio.parse_poly.bytes", 0), "bytes"),
        "export.cas_script.bytes": (totals.get("export.cas_script.bytes", 0), "bytes"),
        "cli.output_bytes": (totals.get("job.output_bytes", 0), "bytes"),
        "trace.overhead_pct": ((traced / untraced - 1) * 100, "%"),
    })
    lines = [f"{k} = {v:.6g} {u}" for k, (v, u) in sorted(metrics.items())]
    lines.append(f"trace: untraced {len(loop.job_list) / (untraced / 1000):.6g} jobs/s, "
                 f"traced {len(loop.job_list) / (traced / 1000):.6g} jobs/s, "
                 f"{len(loop.tracer)} spans; every execution's self times sum to its root")
    return {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in PER_LAYER}, lines


def stamp() -> str:
    with open("/proc/loadavg") as fh:
        load = fh.read().split()[:3]
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"loadavg {' '.join(load)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()

    setups = []

    def timed_setup():
        result, ns, scale = hostspeed.measure(setup, root, args.workload, args.seed)
        setups.append(ns * scale / 1e9)
        return result

    try:
        modules, reference, job_list = timed_setup()
    except (ProgramMissing, FileNotFoundError, LookupError) as exc:
        print(f"scrollbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(job_list)} jobs; "
          f"{stamp()}")
    loop = Loop(job_list, modules, reference, args.seed, bool(args.trace))
    if args.trace:
        loop.run(args.seconds)
    else:
        # The machine's speed drifts over seconds, so the repeat set-ups are
        # spread over the window; the loop keeps the first set-up's modules.
        loop.run(args.seconds, between=timed_setup, every=args.seconds / SETUP_REPEATS)
    print(f"# {loop.passes} whole passes, {len(setups)} set-ups; {stamp()}")
    for problem in loop.problems:
        print(f"# FAILED {problem}")

    if args.trace:
        metrics, lines = per_layer(loop)
        OUT_DIR.mkdir(exist_ok=True)
        loop.tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.csv.gz")
    else:
        metrics, lines = end_to_end(loop, args.workload, statistics.median(setups))
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
