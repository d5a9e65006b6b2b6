"""Command-line interface tests: outputs, exit codes, flag handling."""

import hashlib
import json
import re
import sys
import time
import tracemalloc

import pytest

from scrolleq import binomial_row, parse_poly
from scrolleq.cli import run


def lines_of(capsys):
    return capsys.readouterr().out.strip().splitlines()


# -- equations ------------------------------------------------------------------


def test_equations_2234(capsys):
    assert run(["--profile", "2,2,3,4", "equations"]) == 0
    out = lines_of(capsys)
    gen_lines = [l for l in out if not l.startswith("#")]
    assert len(gen_lines) == 12
    assert any("arithmetic rank = 12 = N-2" in l for l in out)
    assert any(l.endswith("# curve[1][1]") for l in gen_lines)
    assert any(l.endswith("# weight[7]") for l in gen_lines)


def test_equations_two_quadric_blocks(capsys):
    assert run(["--profile", "2,2", "equations"]) == 0
    gen_lines = [l for l in lines_of(capsys) if not l.startswith("#")]
    assert len(gen_lines) == 3


def test_equations_minimal(capsys):
    assert run(["--profile", "1,1", "equations"]) == 0
    gen_lines = [l for l in lines_of(capsys) if not l.startswith("#")]
    assert len(gen_lines) == 1


def test_equations_single_block_summary(capsys):
    assert run(["--profile", "4", "equations"]) == 0
    out = capsys.readouterr().out
    assert "arithmetic rank = 3 (rational normal curve case)" in out


def test_equations_json(capsys):
    assert run(["--profile", "2,2,3,4", "equations", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["system_size"] == 12
    assert doc["N"] == 14
    assert doc["arithmetic_rank"] == 12
    assert len(doc["generators"]) == 12
    assert len(doc["minors"]) == 55
    assert doc["generators"][0]["label"] == "curve[1][1]"


# -- verify ---------------------------------------------------------------------------


def test_verify_symbolic_only(capsys):
    assert run(["--profile", "2,2", "verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_with_field(capsys):
    assert run(["--profile", "1,2", "verify", "--field", "3"]) == 0
    out = capsys.readouterr().out
    assert "count_J=16 count_P=16" in out


def test_verify_full_profile_char_two(capsys):
    assert run(["--profile", "2,2,3,4", "verify", "--field", "2"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "variety-comparison q=2" in out


def test_seed_is_not_a_flag(capsys):
    # No flag sets a seed; the report keeps a null "seed" key until the
    # benchmark's reference digests of these bytes are re-recorded.
    with pytest.raises(SystemExit) as exc:
        run(["--profile", "1,1", "verify", "--field", "3", "--format", "json", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert run(["--profile", "1,1", "verify", "--field", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["variety"]["seed"] is None
    assert doc["variety"]["count_J"] == 16
    assert all(c["passed"] for c in doc["checks"])


# -- enumerate -------------------------------------------------------------------------


def test_enumerate_reports_counts(capsys):
    assert run(["--profile", "1,1", "enumerate", "--field", "3"]) == 0
    out = capsys.readouterr().out
    assert "count_J = 16" in out and "PASS" in out


def test_deep_walk_stays_under_the_recursion_limit(capsys):
    # A single block of degree 250 is walked one coordinate per level, 251
    # levels deep: more than the frames the lowered limit leaves free.
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        code = run(["--profile", "250", "enumerate", "--field", "2", "--budget", "1" + "0" * 100])
    finally:
        sys.setrecursionlimit(limit)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.endswith("count_J = 3, count_P = 3, witnesses = 0\nPASS: point sets agree\n")


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["plain", "json"])
def test_enumerate_without_field_is_usage_error(capsys, monkeypatch, fmt):
    from scrolleq import cli

    def refuse(*args, **kwargs):
        raise AssertionError("an enumeration ran")

    monkeypatch.setattr(cli, "compare_varieties", refuse)
    with pytest.raises(SystemExit) as exc:
        run(["--profile", "1,2", "enumerate", *fmt])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: enumerate needs --field\n")


def test_enumerate_budget_exit_code(capsys):
    code = run(["--profile", "2,2,3,4", "enumerate", "--field", "3", "--budget", "1000"])
    assert code == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_verify_field_budget_is_checked_before_the_symbolic_checks(capsys, monkeypatch):
    # The block walks of (97,89) over GF(2) need about 10^33 evaluations;
    # that depends on the profile and q alone, so nothing may be built and
    # no symbolic check may run.
    from scrolleq import verify

    def refuse(*args, **kwargs):
        raise AssertionError("the suite ran before the block walks were refused")

    for name in ["equation_set", "check_bridge_scroll_vanishing", "check_bridge_determinant_power",
                 "check_parametrization", "plucker_identity"]:
        monkeypatch.setattr(verify, name, refuse)
    assert run(["--profile", "97,89", "verify", "--field", "2"]) == 3
    assert capsys.readouterr().err.startswith("budget exceeded: enumeration needs an estimated ")


# verify on a system with one bridge's leading coefficient off by one.  Each
# pair's scroll-vanishing line is read off the parametrization and only a
# failing bridge is mapped again with u[j] renamed to v, for its residual.  The
# determinant power of one pair of degrees is checked on the first pair of
# blocks with them, so in (2,2,3,3) blocks (1,4), (2,3) and (2,4) repeat its
# verdict for (1,3), while their own bridges pass scroll vanishing.
MUTATED_BRIDGE_REPORTS = {
    ("2,3,4", (1, 3)): ("""\
PASS bridge-scroll-vanishing blocks (1,2)
PASS bridge-determinant-power blocks (1,2)
FAIL bridge-scroll-vanishing blocks (1,3) (residual u[1]^2*s^4*t^4*v)
FAIL bridge-determinant-power blocks (1,3)
PASS bridge-scroll-vanishing blocks (2,3)
PASS bridge-determinant-power blocks (2,3)
FAIL parametrization-vanishing (44/45 generators vanish; failing: weight[4])
PASS plucker-identity d=3
FAIL suite for profile (2, 3, 4)
""", "c34f18bd5e868fa9025645e7b918f0b7f49b3f790283feb85cfc69b50c5b2f61"),
    ("2,2,3,3", (1, 3)): ("""\
PASS bridge-scroll-vanishing blocks (1,2)
PASS bridge-determinant-power blocks (1,2)
FAIL bridge-scroll-vanishing blocks (1,3) (residual u[1]^3*s^6*t^6*v^2)
FAIL bridge-determinant-power blocks (1,3)
PASS bridge-scroll-vanishing blocks (1,4)
FAIL bridge-determinant-power blocks (1,4)
PASS bridge-scroll-vanishing blocks (2,3)
FAIL bridge-determinant-power blocks (2,3)
PASS bridge-scroll-vanishing blocks (2,4)
FAIL bridge-determinant-power blocks (2,4)
PASS bridge-scroll-vanishing blocks (3,4)
PASS bridge-determinant-power blocks (3,4)
FAIL parametrization-vanishing (55/56 generators vanish; failing: weight[4])
PASS plucker-identity d=4
FAIL suite for profile (2, 2, 3, 3)
""", "7e1232b2dfae6cdfbdd90d6f2aacf5cfd81422d332a562ffda63da03ae283dc6"),
}


@pytest.mark.parametrize("profile, pair", list(MUTATED_BRIDGE_REPORTS), ids=["234", "2233"])
def test_verify_reports_a_mutated_bridge_as_before(capsys, monkeypatch, profile, pair):
    from scrolleq import build_profile, equation_set, verify
    from test_verify import bump_bridge

    plain, json_digest = MUTATED_BRIDGE_REPORTS[profile, pair]
    mutant = bump_bridge(equation_set(build_profile(map(int, profile.split(",")))), pair)
    monkeypatch.setattr(verify, "equation_set", lambda profile: mutant)
    assert run(["--profile", profile, "verify"]) == 1
    assert capsys.readouterr().out == plain
    assert run(["--profile", profile, "verify", "--format", "json"]) == 1
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == json_digest
    doc = json.loads(text)
    assert [("PASS" if c["passed"] else "FAIL") + " " + c["name"]
            + (f" ({c['detail']})" if c["detail"] else "") for c in doc["checks"]] == (
        plain.splitlines()[:-1])


@pytest.mark.parametrize("pair", [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
                         ids=lambda pair: f"{pair[0]}{pair[1]}")
def test_verify_reports_each_pairs_own_bridge(capsys, monkeypatch, pair):
    # Blocks (1,3), (1,4), (2,3) and (2,4) of (2,2,3,3) share their degrees,
    # but each scroll-vanishing line reads its own bridge: only the mutated
    # pair fails, with its own residual.
    from scrolleq import build_profile, equation_set, verify
    from test_verify import bump_bridge

    mutant = bump_bridge(equation_set(build_profile([2, 2, 3, 3])), pair)
    monkeypatch.setattr(verify, "equation_set", lambda profile: mutant)
    assert run(["--profile", "2,2,3,3", "verify"]) == 1
    failed = [line for line in lines_of(capsys)
              if line.startswith("FAIL bridge-scroll-vanishing")]
    assert len(failed) == 1
    assert failed[0].startswith(f"FAIL bridge-scroll-vanishing blocks ({pair[0]},{pair[1]}) "
                                f"(residual u[{pair[0]}]")


def many_failures_mutant():
    """(2,2,3) with curve[3][2], minors 0, 5, 9, 14 and 20 and bridge (1,3)
    each off by one: seven of its 28 generators fail."""
    from scrolleq import build_profile, equation_set
    from test_verify import bump_bridge, bump_curve, bump_minor

    eqset = bump_curve(equation_set(build_profile([2, 2, 3])), 3, 2)
    for index in (0, 5, 9, 14, 20):
        eqset = bump_minor(eqset, index)
    # replace() drops the cached bridges, so the bridge is bumped last.
    return bump_bridge(eqset, (1, 3))


def test_verify_names_the_first_five_failing_generators(capsys, monkeypatch):
    # The failing generators are named curves first, then weights, then
    # minors, and only the first five of them.
    from scrolleq import verify

    mutant = many_failures_mutant()
    monkeypatch.setattr(verify, "equation_set", lambda profile: mutant)
    assert run(["--profile", "2,2,3", "verify"]) == 1
    text = capsys.readouterr().out
    assert ("FAIL parametrization-vanishing (21/28 generators vanish; failing: curve[3][2], "
            "weight[4], minor[0][1], minor[0][6], minor[1][5])") in text.splitlines()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5435da033834503f24cfa39a256421902b140654689f18b6083318c78928a327")
    assert run(["--profile", "2,2,3", "verify", "--format", "json"]) == 1
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "a0a9f8770f89e4271d5728ddfb4defa4e25058195a37f5a3507d962b5a4a6756")


@pytest.mark.parametrize("mutated, q", [(False, 3), (False, None), (True, None)],
                         ids=["123-q3", "123", "mutant"])
def test_check_suite_lines_are_the_json_checks(capsys, monkeypatch, mutated, q):
    from scrolleq import build_profile, check_suite, verify

    profile = "2,2,3" if mutated else "1,2,3"
    if mutated:
        mutant = many_failures_mutant()
        monkeypatch.setattr(verify, "equation_set", lambda profile: mutant)
    lines, report = check_suite(build_profile(map(int, profile.split(","))), q)
    field = [] if q is None else ["--field", str(q)]
    assert run(["--profile", profile, "verify", "--format", "json", *field]) == int(mutated)
    doc = json.loads(capsys.readouterr().out)
    assert [(c["name"], c["passed"], c["detail"]) for c in doc["checks"]] == lines
    if q is None:
        assert report is None and doc["variety"] is None
    else:
        assert (report.count_j, report.count_p) == (doc["variety"]["count_J"],
                                                     doc["variety"]["count_P"])


@pytest.mark.parametrize("value", ["10", "abc", "0", "-5", ""])
def test_budget_env_is_ignored(capsys, monkeypatch, value):
    # The budget is --budget or the default; no environment variable sets it.
    argv = ["--profile", "1,1", "enumerate", "--field", "3"]
    assert run(argv) == 0
    expected = capsys.readouterr()
    monkeypatch.setenv("SCROLLEQ_BUDGET", value)
    assert run(argv) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("value", ["-1", "0"])
def test_bad_budget_flag_is_usage_error(capsys, value):
    assert run(["--profile", "1,1", "enumerate", "--field", "3", "--budget", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --budget must be a positive integer")
    assert "budget exceeded" not in err
    assert err.count("\n") == 1


def test_eager_construction_budget_boundary_on_verify(capsys):
    # Five n_i = 1 blocks build 2 * C(5, 2) = 20 minor terms and no curve
    # equation; the eager construction estimate is the only refusal.
    argv = ["--profile", "1,1,1,1,1", "verify", "--budget"]
    assert run(argv + ["19"]) == 3
    assert capsys.readouterr().err == (
        "budget exceeded: construction needs an estimated 20 curve-equation and minor terms, "
        "budget is 19\n"
    )
    assert run(argv + ["20"]) == 0
    assert capsys.readouterr().out.endswith("PASS suite for profile (1, 1, 1, 1, 1)\n")


def test_verify_names_the_first_failing_minor(capsys, monkeypatch):
    from scrolleq import verify

    genuine = verify.generic_minor
    monkeypatch.setattr(verify, "generic_minor",
                        lambda i, j: -genuine(i, j) if (i, j) == (2, 5) else genuine(i, j))
    argv = ["--profile", "1,1,1,1,1,1", "verify"]
    assert run(argv) == 1
    [line] = [line for line in lines_of(capsys) if "plucker-identity" in line]
    assert line.startswith("FAIL plucker-identity d=6 (") and "(2,5)" in line
    assert run(argv + ["--format", "json"]) == 1
    [check] = [c for c in json.loads(capsys.readouterr().out)["checks"]
               if c["name"] == "plucker-identity d=6"]
    assert not check["passed"] and "(2,5)" in check["detail"]


def test_nonprime_field_is_usage_error(capsys):
    assert run(["--profile", "1,1", "enumerate", "--field", "4"]) == 2
    assert "not prime" in capsys.readouterr().err


@pytest.mark.parametrize("field, message", [
    # The smallest strong pseudoprime to bases 2..37.
    ("318665857834031151167461", "error: --field 318665857834031151167461 is not prime\n"),
    ("3317044064679887385961981", "error: 3317044064679887385961981 is too large for the "
     "primality test (limit 3317044064679887385961981)\n"),
])
def test_field_beyond_exact_primality_is_usage_error(capsys, field, message):
    assert run(["--profile", "1,1", "enumerate", "--field", field]) == 2
    assert capsys.readouterr().err == message


def test_nonprime_field_is_refused_before_any_work(capsys, no_expansion):
    assert run(["--profile", "2,3,5,7", "verify", "--field", "4"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --field 4 is not prime\n"


def test_scan_budget_is_checked_before_expansion(capsys, no_expansion):
    # The block of degree 7 alone has about 1.1e14 points over GF(101).
    assert run(["--profile", "2,3,5,7", "enumerate", "--field", "101"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: enumeration needs an estimated")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["enumerate", "verify"])
def test_block_walks_are_refused_before_the_system_is_built(capsys, monkeypatch, command):
    # One degree-2000 block has about 10^2228 points over GF(13); its curve
    # equations and minors pass the eager budget, so only the block-walk
    # budget refuses the command, and it needs only the profile and q.
    import scrolleq.cli
    import scrolleq.scroll
    import scrolleq.verify

    def refuse(profile):
        raise AssertionError("an equation set was built")

    for module in (scrolleq.cli, scrolleq.scroll, scrolleq.verify):
        monkeypatch.setattr(module, "equation_set", refuse)
    assert run(["--profile", "2000", command, "--field", "13"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: enumeration needs an estimated ")
    assert err.count("\n") == 1


def test_an_estimate_too_long_to_print_is_refused_in_one_line(capsys):
    # The product of 200 n_i = 1 cones over GF(999999999989) has
    # (q^400 - 1)/(q - 1) points: the estimate has 4,793 digits, past str().
    ones = ",".join(["1"] * 200)
    assert run(["--profile", ones, "enumerate", "--field", "999999999989"]) == 3
    assert capsys.readouterr().err == (
        "budget exceeded: enumeration needs an estimated more than 10^4792 generator "
        "evaluations, budget is 100000000\n"
    )


def test_cone_budget_is_checked_before_any_cone_is_built(capsys):
    # Each n_i = 1 block's cone is all of GF(1009)^2, about 1e6 points; the
    # product pass would visit 1010 * 1009^2 + 1010 points and evaluate the
    # weight generator and the minor at each.
    tracemalloc.start()
    try:
        code = run(["--profile", "1,1", "enumerate", "--field", "1009"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 10 * 2**20
    assert capsys.readouterr().err == (
        "budget exceeded: enumeration needs an estimated 2056525640 generator "
        "evaluations, budget is 100000000\n"
    )


def test_cone_budget_takes_a_64_bit_prime(capsys):
    q = 18446744073709551557  # the largest prime below 2^64
    assert run(["--profile", "1,1", "enumerate", "--field", str(q)]) == 3
    estimate = ((q + 1) * q**2 + (q + 1)) * 2
    assert capsys.readouterr().err == (
        f"budget exceeded: enumeration needs an estimated {estimate} generator "
        "evaluations, budget is 100000000\n"
    )


@pytest.mark.parametrize("argv, budget", [
    (["--profile", "3,5,7,8", "equations"], 10**8),
    (["--profile", "3,5,7,8", "export"], 10**8),
])
def test_construction_budget_refuses_before_expansion(capsys, no_expansion, argv, budget):
    # Weight 5 of (3,5,7,8) raises bridge(3, 8) to the 12th power and
    # bridge(5, 7) to the 11th; the group structure alone bounds the terms.
    start = time.perf_counter()
    code = run(argv + ["--budget", str(budget)])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget exceeded: construction needs an estimated ")
    assert captured.err.endswith(f" weight-generator terms, budget is {budget}\n")


def test_enumerate_expands_no_weight_generator(capsys, no_expansion):
    # Expanded, the weight generators of (4,6,7,7) are bounded by 9.4e10
    # terms; the comparison evaluates them through their bridges.
    assert run(["--profile", "4,6,7,7", "enumerate", "--field", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count_J"] == doc["count_P"] == 3 * (2**4 - 1)
    assert doc["witnesses"] == []


def test_construction_budget_boundary(capsys):
    # The five weight generators of (2,2,3,4) are bounded by 3 + 7 + 210 + 5
    # + 13 = 238 terms (they have 224).
    assert run(["--profile", "2,2,3,4", "equations", "--budget", "237"]) == 3
    assert "needs an estimated 238 weight-generator terms" in capsys.readouterr().err
    assert run(["--profile", "2,2,3,4", "equations", "--budget", "238"]) == 0
    capsys.readouterr()
    # (2,3,5,7) is bounded by about 1.6e6 terms: under the default budget,
    # so `equations` still expands and prints it.
    from scrolleq import build_profile, equation_set
    from scrolleq.verify import DEFAULT_BUDGET, check_construction_budget

    check_construction_budget(equation_set(build_profile([2, 3, 5, 7])), DEFAULT_BUDGET)


@pytest.mark.parametrize("command", ["equations", "verify", "enumerate", "export"])
def test_eager_construction_is_refused_before_anything_is_built(capsys, monkeypatch, command):
    import scrolleq.cli
    import scrolleq.scroll
    import scrolleq.verify

    def refuse(profile):
        raise AssertionError("an equation set was built")

    for module in (scrolleq.cli, scrolleq.scroll, scrolleq.verify):
        monkeypatch.setattr(module, "equation_set", refuse)
    n = 10**20 - 1
    field = ["--field", "2"] if command == "enumerate" else []
    start = time.perf_counter()
    assert run(["--profile", str(n), command, *field]) == 3
    assert time.perf_counter() - start < 1.0
    estimate = (n - 1) * (n + 2) // 2 + n * (n - 1)
    assert capsys.readouterr().err == (
        f"budget exceeded: construction needs an estimated {estimate} curve-equation and "
        "minor terms, budget is 100000000\n"
    )


def test_eager_construction_budget_boundary(capsys):
    # A degree-3 block has curve equations of 2 and 3 terms and three
    # 2-term minors: 11 terms.
    assert run(["--profile", "3", "equations", "--budget", "10"]) == 3
    assert capsys.readouterr().err == (
        "budget exceeded: construction needs an estimated 11 curve-equation and "
        "minor terms, budget is 10\n"
    )
    assert run(["--profile", "3", "equations", "--budget", "11"]) == 0


# -- export ------------------------------------------------------------------------------


def test_export_deterministic_file(tmp_path):
    out1 = tmp_path / "a.m2"
    out2 = tmp_path / "b.m2"
    assert run(["--profile", "2,3", "export", "--out", str(out1)]) == 0
    assert run(["--profile", "2,3", "export", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_unwritable_out_path_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.m2"
    assert run(["--profile", "1,1", "export", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}:")
    assert err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("target", ["missing/x.txt", ""], ids=["no-parent", "directory"])
def test_unwritable_out_path_is_refused_before_any_work(capsys, monkeypatch, tmp_path, target):
    from scrolleq import verify

    def no_work(profile):
        raise AssertionError("the command ran before --out was checked")

    monkeypatch.setattr(verify, "equation_set", no_work)
    path = tmp_path / target
    assert run(["--profile", "2,2,3,4", "verify", "--field", "2", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}:")
    assert err.count("\n") == 1


# SHA-256 of CLI outputs that must stay byte-identical: any drift in the
# renderer, the term order or the generators changes them.
PINNED_OUTPUTS = [
    (["--profile", "2,3", "export", "--format", "m2"],
     "a06bc1436e8064597e97c6ce115f03b6b36aa84483e3e0fd31613aabe2b3c483"),
    (["--profile", "2,3", "export", "--format", "singular"],
     "61eb8db4dd9564a0a180d5d946bf88ca3b15c7ae1db1b499b91ce11e8c5516cc"),
    (["--profile", "2,2,3,4", "export", "--format", "m2"],
     "194854e3fbf917f206cbd227feb09af1710c5ddf82463ffce49c72a989e6d03c"),
    (["--profile", "2,2,3,4", "equations"],
     "4b782aad554d7f95b3b0402cd9c1d303012a0e28e9bbae1330a6c961511eec61"),
    (["--profile", "2,2,3,4", "equations", "--format", "json"],
     "bdb3caa20f757d7102dad3c3824d6aee5f44293d5245a6aaa8319b8e615628d9"),
    (["--profile", "1", "equations", "--format", "json"],
     "702f81c1638c33fb25e7d3c3cccc066106eb3a5326eb3ef3cd0a17190cd50d7a"),
    # A single line has no system generators and no minors: both ideals empty.
    (["--profile", "1", "export", "--format", "m2"],
     "2d76bc044001f3d0738c36a34a57e66983db906f60f6ed152caa833e811633ec"),
    (["--profile", "1", "export", "--format", "singular"],
     "fbd4d5cfc519b19d40727c2d6a47fb6cc3a064f0ce5af9c3750f9b2c92a84074"),
    (["--profile", "1,2,3", "verify"],
     "682e406bd4728b9d767db709f26260fc6463bd9ea6dc78a416c44aee6f0768f8"),
    (["--profile", "1,2,3", "verify", "--format", "json"],
     "2cc4dd6e3617e18d662f8e2ee5bbf95d3065014aca224864346c5919cc39a96d"),
    (["--profile", "2,2", "enumerate", "--field", "3"],
     "5135749588502ea4e2ea63f4d0e5eaa8f841d662a3e06b6da5fe213c993fc363"),
    # d = 5 with swapped and repeated degree pairs: 107 generators and the
    # Plücker line.
    (["--profile", "2,3,2,4,3", "verify"],
     "97bb9f0bc3bec77d20ed36804bcd8d97b6f90351580ce4089686a5568b6b181a"),
    (["--profile", "2,3,2,4,3", "verify", "--format", "json"],
     "c600720af41558888a2d6351ffe8cc1d79b6fa4eb6f068b261c3a4970ffe002b"),
    # A single block is walked once, over all of projective space with one
    # coordinate per level: 49 points visited.
    (["--profile", "4", "enumerate", "--field", "3"],
     "2f23e69450fce3633b381a6c8d967f60638b81fdfbda08034bb631055d0a5b2d"),
]


@pytest.mark.parametrize("argv, digest", PINNED_OUTPUTS)
def test_output_bytes_are_pinned(capsys, argv, digest):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of comparison reports with "elapsed_ms" set to 0, the one field
# that varies from run to run: the counts, the witnesses and the null
# "seed".  (4) is a single block, walked one coordinate per level.
PINNED_REPORTS = [
    (["--profile", "4", "enumerate", "--field", "3", "--format", "json"],
     "c3e10ec538c32379f896537a0553248198930db96de578eb748058e013346acc"),
    (["--profile", "1,1", "enumerate", "--field", "3", "--format", "json"],
     "1eceab98bd0cf7d5227d48e146fe451fe4588f4b34bae475566b43b25358c153"),
    (["--profile", "2,2,3", "enumerate", "--field", "3", "--format", "json"],
     "55daaeef9535c9f5171b3f5c4f9497d93c2614bc26133feebcd7f87298eba7d6"),
    (["--profile", "1,2,3", "verify", "--field", "3", "--format", "json"],
     "7d59bba19431c3356f1f8ad3b553d9931238b394a14bd638ee5801e9068e2c79"),
]


@pytest.mark.parametrize("argv, digest", PINNED_REPORTS)
def test_report_bytes_are_pinned(capsys, argv, digest):
    assert run(argv) == 0
    out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="str() has no digit limit")
@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_coefficients_past_the_int_digit_limit_are_printed(tmp_path, fmt):
    # The one weight generator of (101,149) is its bridge, whose coefficients
    # in print order are the signed C(m, k) for m = lcm(101, 149) = 15,049:
    # up to 4,529 digits, more than str() writes by default.
    out = tmp_path / "out"
    assert run(["--profile", "101,149", "equations", "--format", fmt, "--out", str(out)]) == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            (weight,) = [g["poly"] for g in json.loads(out.read_text())["generators"]
                         if g["label"] == "weight[3]"]
            coeffs = [int(t["coeff"]) for t in weight["terms"]]
        else:
            (line,) = [l for l in out.read_text().splitlines() if l.endswith("  # weight[3]")]
            coeffs = list(parse_poly(line.split("  # ")[0]).terms.values())
    finally:
        sys.set_int_max_str_digits(limit)
    assert coeffs == binomial_row(15049)


def test_export_singular(capsys):
    assert run(["--profile", "1,1", "export", "--format", "singular"]) == 0
    assert "ring R = 0" in capsys.readouterr().out


def test_export_rejects_plain():
    with pytest.raises(SystemExit) as exc:
        run(["--profile", "1,1", "export", "--format", "plain"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["equations", "verify", "enumerate"])
@pytest.mark.parametrize("dialect", ["m2", "singular"])
def test_script_format_is_usage_error_outside_export(capsys, command, dialect):
    with pytest.raises(SystemExit) as exc:
        run(["--profile", "1,1", command, "--format", dialect])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: {command} needs --format plain|json, got {dialect!r}\n"
    )


def test_export_reports_unwritable_out_before_the_format(capsys, tmp_path):
    target = tmp_path / "missing" / "x.m2"
    assert run(["--profile", "1,1", "export", "--format", "plain", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    # The --out check runs first and returns; the format check would exit.
    assert err.startswith(f"error: cannot write {target}:")
    assert err.count("\n") == 1


# -- flags and usage -------------------------------------------------------------------------


def test_flags_before_or_after_command(capsys):
    assert run(["--profile", "1,1", "verify"]) == 0
    capsys.readouterr()
    assert run(["verify", "--profile", "1,1"]) == 0
    capsys.readouterr()


def test_flag_after_command_overrides_before(capsys):
    assert run(["--field", "3", "enumerate", "--profile", "1,1", "--field", "5"]) == 0
    assert "GF(5)" in capsys.readouterr().out


def test_usage_error_leaves_the_shared_parser_usable(capsys):
    # The parser is built once per process, so a call that fails to parse
    # must not leave anything behind for the next call.
    from scrolleq import cli

    with pytest.raises(SystemExit) as exc:
        run(["--profile", "2,2", "verify", "--format", "m2"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert run(["--profile", "2,2", "verify"]) == 0
    assert capsys.readouterr().out.endswith("\nPASS suite for profile (2, 2)\n")
    assert cli.build_parser() is cli.build_parser()


def test_help_text_is_the_freshly_built_parsers(capsys, monkeypatch):
    from scrolleq import cli

    monkeypatch.setenv("COLUMNS", "80")
    fresh = cli.build_parser.__wrapped__().format_help()
    assert "  verify     run the symbolic check suite" in fresh
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
        assert run(["--profile", "1,1", "verify"]) == 0
        capsys.readouterr()
    assert helps == [fresh, fresh]


def test_missing_profile_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["equations"])
    assert exc.value.code == 2


def test_invalid_profile_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["--profile", "0,2", "equations"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["--profile", "2,x", "equations"])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["--profile", "1,1", "frobnicate"])
    assert exc.value.code == 2


def test_bench_is_not_a_command(capsys):
    # Phase timings come from the scrollbench harness, not from the CLI.
    with pytest.raises(SystemExit) as exc:
        run(["--profile", "1,1", "bench"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'bench'" in captured.err
