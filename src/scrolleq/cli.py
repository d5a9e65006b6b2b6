"""Command-line front end.

Commands: ``equations`` (print the defining system), ``verify`` (symbolic
checks plus optional finite-field comparison), ``enumerate`` (finite-field
variety comparison only) and ``export`` (Macaulay2 / Singular scripts).
Common flags may appear before or after the command name.  This module
parses the flags, renders the results and picks the exit code; the checks
and every budget refusal are ``verify``'s.  ``enumerate`` checks the block
walks' budget before it builds the equation set, as ``check_suite`` does, and
``equations`` and ``export`` check the weight-generator terms.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage error, 3 the
work budget was exceeded.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys

from .export import cas_script
from .polyring import format_poly, is_prime
from .scroll import ScrollProfile, build_profile, equation_set
from .textio import json_array_text, polys_json_text
from .verify import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    check_block_walk_budget,
    check_construction_budget,
    check_curve_minor_budget,
    check_suite,
    compare_varieties,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _profile_arg(text: str) -> ScrollProfile:
    try:
        return build_profile(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="scrolleq",
        description="Defining equations for rational normal scrolls, with verification.",
        epilog="commands:\n"
        + "\n".join(f"  {name:<10} {help_}" for name, (help_, _) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=list(COMMANDS), metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("--profile", type=_profile_arg,
                        help="comma-separated block degrees, e.g. 2,2,3,4")
    parser.add_argument("--field", type=int, metavar="Q",
                        help="prime field size for enumeration; enumerate requires it")
    parser.add_argument("--format", dest="fmt", choices=["plain", "json", "m2", "singular"],
                        help="output format (export: m2|singular)")
    parser.add_argument("--budget", type=int,
                        help="work budget: construction terms and enumeration "
                             f"evaluations (default {DEFAULT_BUDGET})")
    parser.add_argument("--out", metavar="PATH",
                        help="write output to a file instead of stdout")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is not None:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _check_out(out: str | None) -> None:
    """Refuse an ``--out`` path that cannot be written before any work is
    done: its directory must exist and be writable, and an existing target
    must be writable and not a directory, and the empty path names no file.
    ``_emit`` still reports a write that fails later."""
    if out is None:
        return
    parent = os.path.dirname(out) or "."
    if os.path.isdir(out):
        problem = errno.EISDIR
    elif os.path.exists(out):
        problem = None if os.access(out, os.W_OK) else errno.EACCES
    elif not out or not os.path.exists(parent):
        problem = errno.ENOENT
    elif not os.path.isdir(parent):
        problem = errno.ENOTDIR
    else:
        problem = None if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if problem is not None:
        raise ValueError(f"cannot write {out}: {os.strerror(problem)}")


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Check the parsed flags before any work, in this order: the profile,
    ``--out``, ``--field``, the budget, the format (``export`` writes
    m2|singular and every other command plain|json), that ``enumerate`` has
    ``--field``, then the terms of the curve equations and minors against
    the budget.
    Fills in ``args.fmt`` and ``args.budget``; the budget is ``--budget``,
    a positive integer, or ``DEFAULT_BUDGET``."""
    if args.profile is None:
        parser.error("--profile is required")
    _check_out(args.out)
    if args.field is not None and not is_prime(args.field):
        raise ValueError(f"--field {args.field} is not prime")
    if args.budget is None:
        args.budget = DEFAULT_BUDGET
    elif args.budget < 1:
        raise ValueError(f"--budget must be a positive integer, got '{args.budget}'")
    if args.fmt is None:
        args.fmt = "m2" if args.command == "export" else "plain"
    elif args.command == "export" and args.fmt not in ("m2", "singular"):
        parser.error(f"export needs --format m2|singular, got {args.fmt!r}")
    elif args.command != "export" and args.fmt not in ("plain", "json"):
        parser.error(f"{args.command} needs --format plain|json, got {args.fmt!r}")
    if args.command == "enumerate" and args.field is None:
        parser.error("enumerate needs --field")
    check_curve_minor_budget(args.profile, args.budget)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_equations(args: argparse.Namespace) -> int:
    check_construction_budget(args.profile, args.budget)
    eqset = equation_set(args.profile)
    profile = args.profile
    if args.fmt == "json":
        # The bytes json.dumps(doc, indent=2) gives: the scalar fields through
        # json, cut before their closing "\n}", then the polynomials written
        # directly by polys_json_text.
        header = json.dumps({
            "profile": list(profile.n),
            "d": profile.d,
            "N": profile.N,
            "system_size": eqset.system_size,
            "arithmetic_rank": eqset.claimed_arithmetic_rank,
        }, indent=2)
        system = eqset.system()
        generators = [
            f'{{\n      "label": {json.dumps(label)},\n      "poly": {poly}\n    }}'
            for (label, _), poly in zip(system, polys_json_text([p for _, p in system], 3))
        ]
        minors = polys_json_text(eqset.minor_gens, 2)
        _emit(
            f'{header[:-2]},\n  "generators": {json_array_text(generators, 1)},\n'
            f'  "minors": {json_array_text(minors, 1)}\n}}\n',
            args.out,
        )
        return EXIT_OK
    lines = [
        f"# scroll profile {profile}: d={profile.d}, N={profile.N}, "
        f"system size {eqset.system_size}"
    ]
    spelled = {}  # one spelling table for every generator
    lines.extend(f"{format_poly(p, spelled=spelled)}  # {label}" for label, p in eqset.system())
    rank = eqset.claimed_arithmetic_rank
    lines.append(
        f"# arithmetic rank = {rank} = N-2 (upper bound constructive; lower bound cited)"
        if profile.d >= 2 else f"# arithmetic rank = {rank} (rational normal curve case)"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    checks, report = check_suite(args.profile, args.field, args.budget)
    passed = all(ok for _, ok, _ in checks)
    if args.fmt == "json":
        doc = {
            "profile": list(args.profile.n),
            "passed": passed,
            "checks": [
                {"name": name, "passed": ok, "detail": detail}
                for name, ok, detail in checks
            ],
            "variety": report.to_json() if report is not None else None,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = []
        for name, ok, detail in checks:
            status = "PASS" if ok else "FAIL"
            lines.append(f"{status} {name}" + (f" ({detail})" if detail else ""))
        lines.append(("PASS" if passed else "FAIL") + f" suite for profile {args.profile}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_enumerate(args: argparse.Namespace) -> int:
    check_block_walk_budget(args.profile, args.field, args.budget)
    report = compare_varieties(equation_set(args.profile), args.field, args.budget)
    if args.fmt == "json":
        _emit(json.dumps(report.to_json(), indent=2) + "\n", args.out)
    else:
        lines = [
            f"profile {args.profile} over GF({report.q}): "
            f"visited {report.visited} points",
            f"count_J = {report.count_j}, count_P = {report.count_p}, "
            f"witnesses = {len(report.witnesses)}",
        ]
        for w in report.witnesses[:10]:
            lines.append(f"witness {list(w)}")
        lines.append("PASS: point sets agree" if report.passed else "FAIL: point sets differ")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_export(args: argparse.Namespace) -> int:
    check_construction_budget(args.profile, args.budget)
    eqset = equation_set(args.profile)
    _emit(cas_script(eqset, args.fmt), args.out)
    return EXIT_OK


# name: (help line, function), in the order the help lists them.
COMMANDS = {
    "equations": ("print the N-2 defining polynomials", cmd_equations),
    "verify": ("run the symbolic check suite, plus enumeration when --field is given", cmd_verify),
    "enumerate": ("compare the system's zero set with the minors' over GF(q)", cmd_enumerate),
    "export": ("emit a computer-algebra script declaring both ideals", cmd_export),
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(parser, args)
        return COMMANDS[args.command][1](args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
