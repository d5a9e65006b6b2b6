"""Workload pools, seeded job lists, job execution and output oracles.

Nothing here imports ``scrolleq``: the harness hands in the modules it
imported, so that set-up time includes the import and the self-tests can
pass fakes.  The oracles use only the standard library and the documented
output formats; they never call the code under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import re
import time
from dataclasses import dataclass, field

WORKLOADS = ("symbolic", "enumerate", "roundtrip")

# Jobs per list, one from each of as many equal-count bins of the pool.
# Narrow bins keep the median and tail jobs of every seed's list close in
# cost; a pass still takes only a few seconds, so each job gets several
# runs in a 30-s window.
JOBS_PER_LIST = {"symbolic": 60, "enumerate": 60, "roundtrip": 100}

# Symbolic pool ceiling on the weight-generator terms recorded at the seed
# commit.  The 19 profiles above it take 0.4-5 s each (construction alone
# dominates) and would make the job-list sum depend on whether a seed drew
# one of them.
SYMBOLIC_MAX_TERMS = 3000

ENUMERATE_FIELDS = (2, 3, 5, 7, 13)
ENUMERATE_MIN_POINTS = 10**3
ENUMERATE_MAX_POINTS = 3 * 10**4

# Oracle modulus for evaluating generators at random scroll points.
ORACLE_PRIME = 2**61 - 1
ORACLE_POINTS = 2


@dataclass(frozen=True)
class Job:
    """One closed-loop request: the argv lists handed to ``cli.run``."""

    workload: str
    key: str
    profile: tuple[int, ...]
    argvs: tuple[tuple[str, ...], ...]
    q: int | None = None
    points: int = 0  # projective points of P^N over GF(q); enumerate only


@dataclass
class Outcome:
    """What one execution produced, plus the read-back objects of roundtrip."""

    codes: list[int] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    parsed: list = field(default_factory=list)
    decoded: list = field(default_factory=list)
    error: str = ""


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------


def _profiles(d_range, n_max, max_coords=None):
    """Non-decreasing profiles with d in d_range and 1 <= n_i <= n_max."""
    for d in d_range:
        for n in itertools.combinations_with_replacement(range(1, n_max + 1), d):
            if max_coords is None or sum(n) + d <= max_coords:
                yield n


def _max_group_degree(scroll, n) -> int:
    groups = scroll.weight_groups(scroll.build_profile(n))
    return max((g.degree for g in groups), default=0)


def profile_text(n) -> str:
    return ",".join(map(str, n))


def projective_size(coords: int, q: int) -> int:
    return (q**coords - 1) // (q - 1)


def pool(workload: str, scroll) -> list[tuple[str, tuple[int, ...], int | None]]:
    """All (pool key, profile, q) candidates of a workload, before any cap
    that needs recorded reference data."""
    out = []
    if workload == "symbolic":
        for n in _profiles(range(2, 6), 6):
            if 6 <= _max_group_degree(scroll, n) <= 24:
                out.append((profile_text(n), n, None))
    elif workload == "enumerate":
        # q >= 2 and at most 3*10^4 points bound the coordinates by 15.
        for n in _profiles(range(1, 6), 15, max_coords=15):
            if _max_group_degree(scroll, n) > 12:
                continue
            coords = sum(n) + len(n)
            for q in ENUMERATE_FIELDS:
                if ENUMERATE_MIN_POINTS <= projective_size(coords, q) <= ENUMERATE_MAX_POINTS:
                    out.append((f"{profile_text(n)}/{q}", n, q))
    elif workload == "roundtrip":
        for n in _profiles(range(3, 9), 4):
            if _max_group_degree(scroll, n) <= 8:
                out.append((profile_text(n), n, None))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def job_for(workload: str, n: tuple[int, ...], q: int | None, dialect: str = "m2") -> Job:
    p = profile_text(n)
    if workload == "symbolic":
        return Job(workload, p, n, (("--profile", p, "verify"),))
    if workload == "enumerate":
        argv = ("--profile", p, "enumerate", "--field", str(q), "--format", "json")
        return Job(workload, f"{p}/{q}", n, (argv,), q, projective_size(sum(n) + len(n), q))
    argvs = (
        ("--profile", p, "equations"),
        ("--profile", p, "equations", "--format", "json"),
        ("--profile", p, "export", "--format", dialect),
    )
    return Job(workload, p, n, argvs)


def job_list(workload: str, seed: int, scroll, reference: dict) -> list[Job]:
    """The seeded job list: one job from each of JOBS_PER_LIST[workload] bins
    of the pool sorted by recorded time, so every seed gets the same cost
    profile."""
    ref = reference[workload]
    candidates = []
    for key, n, q in pool(workload, scroll):
        if key not in ref:
            raise LookupError(f"no reference record for {workload} job {key}")
        if ref[key].get("terms", 0) > SYMBOLIC_MAX_TERMS:
            continue
        candidates.append((ref[key]["ms"], key, n, q))
    candidates.sort()
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    size, bins = len(candidates), JOBS_PER_LIST[workload]
    for b in range(bins):
        lo = b * size // bins
        hi = (b + 1) * size // bins
        _, _, n, q = candidates[rng.randrange(lo, hi)]
        dialect = rng.choice(("m2", "singular")) if workload == "roundtrip" else "m2"
        jobs.append(job_for(workload, n, q, dialect))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def call_cli(cli, argv) -> tuple[int, str]:
    """Run ``cli.run(argv)`` in-process, returning (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def execute(job: Job, cli, textio) -> tuple[Outcome, int]:
    """Run one job; returns the outcome and its duration in ns.

    Only this function's body is timed.  Roundtrip reads its outputs back
    with ``textio.parse_poly`` and ``textio.poly_from_json`` inside the timed
    region, because reading back is part of the work it measures.
    """
    out = Outcome()
    start = time.perf_counter_ns()
    try:
        for argv in job.argvs:
            code, text = call_cli(cli, argv)
            out.codes.append(code)
            out.outputs.append(text)
        if job.workload == "roundtrip" and all(c == 0 for c in out.codes):
            for line in out.outputs[0].splitlines():
                if not line.startswith("#"):
                    out.parsed.append(textio.parse_poly(line.split("  # ", 1)[0]))
            doc = json.loads(out.outputs[1])
            out.decoded = [textio.poly_from_json(g["poly"]) for g in doc["generators"]]
    except Exception as exc:  # a crashing job is a failed job, not a crashed run
        out.error = f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter_ns() - start


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

_ELAPSED = re.compile(r'"elapsed_ms": \d+')


def digest(text: str) -> str:
    """SHA-256 of an output with its one nondeterministic field stripped."""
    return hashlib.sha256(_ELAPSED.sub('"elapsed_ms": 0', text).encode()).hexdigest()


def output_digests(job: Job, outputs: list[str]) -> dict[str, str]:
    return {" ".join(argv[2:]): digest(text) for argv, text in zip(job.argvs, outputs)}


def system_size(n) -> int:
    """N - 2 generators for d >= 2; n - 1 curve equations for one block."""
    return sum(n) + len(n) - 3 if len(n) >= 2 else n[0] - 1


def minor_count(n) -> int:
    return math.comb(sum(n), 2)


def scroll_point_count(d: int, q: int) -> int:
    """Points of a d-dimensional-fibre scroll over GF(q): (q+1)(q^d-1)/(q-1)."""
    return (q + 1) * (q**d - 1) // (q - 1)


def expected_verify_text(n) -> str:
    """The full ``verify`` report of a correct construction, from its format."""
    d = len(n)
    lines = []
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            lines.append(f"PASS bridge-scroll-vanishing blocks ({i},{j})")
            lines.append(f"PASS bridge-determinant-power blocks ({i},{j})")
    total = system_size(n) + minor_count(n)
    lines.append(f"PASS parametrization-vanishing ({total}/{total} generators vanish)")
    lines.append(f"PASS plucker-identity d={d}")
    lines.append(f"PASS suite for profile ({', '.join(map(str, n))})")
    return "\n".join(lines) + "\n"


_VAR = re.compile(r"x\[(\d+)\]\[(\d+)\]|x_\((\d+),(\d+)\)|x\((\d+)\)\((\d+)\)")
_TERM = re.compile(r"([+-]?)([^+-]+)")


def parse_terms(text: str) -> dict[tuple, int]:
    """Independent reader for the text, Macaulay2 and Singular renderings of
    an integer polynomial: {((block, slot, exp), ...): coeff}."""
    flat = _VAR.sub(lambda m: "v" + ".".join(g for g in m.groups() if g is not None),
                    text.replace(" ", ""))
    terms: dict[tuple, int] = {}
    pos = 0
    for m in _TERM.finditer(flat):
        if m.start() != pos:
            raise ValueError(f"unreadable polynomial text near {flat[pos:pos + 20]!r}")
        pos = m.end()
        coeff = -1 if m.group(1) == "-" else 1
        exps = {}
        for factor in m.group(2).split("*"):
            if factor.startswith("v"):
                var, _, e = factor[1:].partition("^")
                i, j = map(int, var.split("."))
                exps[(i, j)] = exps.get((i, j), 0) + int(e or 1)
            else:
                coeff *= int(factor)
        mono = tuple(sorted((i, j, e) for (i, j), e in exps.items()))
        terms[mono] = terms.get(mono, 0) + coeff
    if pos != len(flat):
        raise ValueError("trailing text in polynomial")
    return {m: c for m, c in terms.items() if c}


def json_terms(poly: dict) -> dict[tuple, int]:
    """{((block, slot, exp), ...): coeff} from the documented JSON form."""
    if poly["domain"] != "Z":
        raise ValueError(f"expected an integer polynomial, got domain {poly['domain']!r}")
    return {tuple(tuple(e) for e in t["exps"]): int(t["coeff"]) for t in poly["terms"]}


def evaluate(terms: dict[tuple, int], point: dict[tuple[int, int], int], p: int) -> int:
    acc = 0
    for mono, coeff in terms.items():
        val = coeff
        for i, j, e in mono:
            val = val * pow(point[(i, j)], e, p) % p
        acc = (acc + val) % p
    return acc


def scroll_points(n, rng: random.Random, count: int, p: int = ORACLE_PRIME):
    """Random scroll points x[i][j] = u_i * s^(n_i - j) * t^j mod p."""
    for _ in range(count):
        s, t = rng.randrange(1, p), rng.randrange(1, p)
        point = {}
        for i, ni in enumerate(n, start=1):
            u = rng.randrange(1, p)
            for j in range(ni + 1):
                point[(i, j)] = u * pow(s, ni - j, p) * pow(t, j, p) % p
        yield point


def check(job: Job, out: Outcome, reference: dict, seed: int, full: bool) -> str:
    """Empty string when the execution is correct, else the first problem.

    The digest check runs on every execution.  ``full`` adds the structural
    oracle; one execution per job suffices, since equal digests mean equal
    outputs.
    """
    if out.error:
        return out.error
    if any(code != 0 for code in out.codes):
        return f"exit codes {out.codes}"
    expected = reference[job.workload][job.key]["sha256"]
    got = output_digests(job, out.outputs)
    for name, value in got.items():
        if expected.get(name) != value:
            return f"digest mismatch for {name!r}"
    if not full:
        return ""
    try:
        return _oracle(job, out, seed)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _oracle(job: Job, out: Outcome, seed: int) -> str:
    if job.workload == "symbolic":
        if out.outputs[0] != expected_verify_text(job.profile):
            return "verify report differs from the expected PASS report"
        return ""
    if job.workload == "enumerate":
        rep = json.loads(out.outputs[0])
        want = scroll_point_count(len(job.profile), job.q)
        if rep["profile"] != list(job.profile) or rep["q"] != job.q:
            return "report is for another profile or field"
        if rep["count_J"] != want or rep["count_P"] != want or rep["witnesses"]:
            return (f"count_J={rep['count_J']} count_P={rep['count_P']} "
                    f"witnesses={len(rep['witnesses'])}, expected {want}/{want}/0")
        return ""
    return _check_roundtrip(job, out, seed)


def _check_roundtrip(job: Job, out: Outcome, seed: int) -> str:
    n = job.profile
    doc = json.loads(out.outputs[1])
    gens = [json_terms(g["poly"]) for g in doc["generators"]]
    minors = [json_terms(m) for m in doc["minors"]]
    if len(gens) != system_size(n) or len(minors) != minor_count(n):
        return f"{len(gens)} generators and {len(minors)} minors"
    rng = random.Random(f"oracle:{seed}:{job.key}")
    for point in scroll_points(n, rng, ORACLE_POINTS):
        for idx, terms in enumerate(gens + minors):
            if evaluate(terms, point, ORACLE_PRIME):
                return f"polynomial {idx} does not vanish on the scroll"
    text_gens = [parse_terms(line.split("  # ", 1)[0])
                 for line in out.outputs[0].splitlines() if not line.startswith("#")]
    if text_gens != gens:
        return "text and JSON generators differ"
    if len(out.parsed) != len(out.decoded) or any(
        a != b for a, b in zip(out.parsed, out.decoded)
    ):
        return "parse_poly(text) differs from poly_from_json(json)"
    script = out.outputs[2].splitlines()
    body = [line.strip().rstrip(",") for line in script if line.startswith("    ")]
    if [parse_terms(line) for line in body] != gens + minors:
        return "exported script generators differ from the JSON form"
    return ""
