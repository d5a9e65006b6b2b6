"""Command-line interface tests: outputs, exit codes, flag handling."""

import hashlib
import json
import time

import pytest

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


def test_verify_json_records_seed(capsys):
    assert run(["--profile", "1,1", "verify", "--field", "3", "--format", "json",
                "--seed", "42"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["variety"]["seed"] == 42
    assert doc["variety"]["count_J"] == 16
    assert all(c["passed"] for c in doc["checks"])


# -- enumerate -------------------------------------------------------------------------


def test_enumerate_reports_counts(capsys):
    assert run(["--profile", "1,1", "enumerate", "--field", "3"]) == 0
    out = capsys.readouterr().out
    assert "count_J = 16" in out and "PASS" in out


def test_enumerate_field_defaults():
    from scrolleq import build_profile
    from scrolleq.cli import default_field

    assert default_field(build_profile([1, 1])) == 3
    assert default_field(build_profile([2, 2, 3, 4])) == 2


def test_enumerate_without_field_uses_default(capsys):
    assert run(["--profile", "1,1", "enumerate"]) == 0
    assert "GF(3)" in capsys.readouterr().out
    assert run(["--profile", "2,2,3,4", "enumerate"]) == 0
    assert "GF(2)" in capsys.readouterr().out


def test_enumerate_budget_exit_code(capsys):
    code = run(["--profile", "2,2,3,4", "enumerate", "--field", "3", "--budget", "1000"])
    assert code == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_budget_env_default(capsys, monkeypatch):
    monkeypatch.setenv("SCROLLEQ_BUDGET", "10")
    assert run(["--profile", "1,1", "enumerate", "--field", "3"]) == 3
    monkeypatch.setenv("SCROLLEQ_BUDGET", "100000")
    assert run(["--profile", "1,1", "enumerate", "--field", "3"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("value", ["abc", "0", "-5", ""])
def test_bad_budget_env_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("SCROLLEQ_BUDGET", value)
    assert run(["--profile", "1,1", "enumerate", "--field", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SCROLLEQ_BUDGET must be a positive integer")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["-1", "0"])
def test_bad_budget_flag_is_usage_error(capsys, value):
    assert run(["--profile", "1,1", "enumerate", "--field", "3", "--budget", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --budget must be a positive integer")
    assert "budget exceeded" not in err
    assert err.count("\n") == 1


def test_nonprime_field_is_usage_error(capsys):
    assert run(["--profile", "1,1", "enumerate", "--field", "4"]) == 2
    assert "not prime" in capsys.readouterr().err


def test_nonprime_field_is_refused_before_any_work(capsys, no_expansion):
    assert run(["--profile", "2,3,5,7", "verify", "--field", "4"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --field 4 is not prime\n"


def test_scan_budget_is_checked_before_expansion(capsys, no_expansion):
    assert run(["--profile", "2,3,5,7", "enumerate", "--field", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: enumeration needs an estimated")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, budget", [
    (["--profile", "3,5,7,8", "equations"], 10**8),
    (["--profile", "3,5,7,8", "export"], 10**8),
    # 8.1e10 evaluations fit this budget, 9.4e10 generator terms do not.
    (["--profile", "4,6,7,7", "enumerate", "--field", "2"], 9 * 10**10),
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
    from scrolleq import cli

    def no_work(profile):
        raise AssertionError("the command ran before --out was checked")

    monkeypatch.setattr(cli, "equation_set", no_work)
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
]


@pytest.mark.parametrize("argv, digest", PINNED_OUTPUTS)
def test_output_bytes_are_pinned(capsys, argv, digest):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_export_singular(capsys):
    assert run(["--profile", "1,1", "export", "--format", "singular"]) == 0
    assert "ring R = 0" in capsys.readouterr().out


def test_export_rejects_plain():
    with pytest.raises(SystemExit) as exc:
        run(["--profile", "1,1", "export", "--format", "plain"])
    assert exc.value.code == 2


# -- bench ---------------------------------------------------------------------------------


def test_bench_rows(capsys):
    assert run(["--profile", "1,2", "bench", "--field", "3"]) == 0
    out = lines_of(capsys)
    phases = [l.split("\t")[0] for l in out]
    assert phases == ["construct", "symbolic", "enumerate q=3"]


def test_bench_json_without_field(capsys):
    assert run(["--profile", "1,1", "bench", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row["phase"] for row in doc] == ["construct", "symbolic"]
    assert all(row["ms"] >= 0 for row in doc)


# -- flags and usage -------------------------------------------------------------------------


def test_flags_before_or_after_command(capsys):
    assert run(["--profile", "1,1", "verify"]) == 0
    capsys.readouterr()
    assert run(["verify", "--profile", "1,1"]) == 0
    capsys.readouterr()


def test_flag_after_command_overrides_before(capsys):
    assert run(["--field", "3", "enumerate", "--profile", "1,1", "--field", "5"]) == 0
    assert "GF(5)" in capsys.readouterr().out


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
