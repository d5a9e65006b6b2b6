"""Self-tests of the benchmark harness.  Run from the repository root:

    python3 scrollbench/test_scrollbench.py
"""

from __future__ import annotations

import json
import unittest
from pathlib import Path

import hostspeed
import jobs
import tracer as tracing
from run import REFERENCE, Loop, end_to_end, load_program, tail_rank

ROOT = Path(__file__).resolve().parent.parent


class FakeCli:
    """Runs the real command, then rewrites its output."""

    def __init__(self, cli, old: str, new: str):
        self.cli, self.old, self.new = cli, old, new

    def run(self, argv):
        code, text = jobs.call_cli(self.cli, argv)
        print(text.replace(self.old, self.new), end="")
        return code


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.modules = load_program(ROOT)
        cls.reference = json.loads(REFERENCE.read_text())

    def loop_with(self, job, cli, reference=None):
        modules = dict(self.modules, cli=cli)
        loop = Loop([job], modules, reference or self.reference, seed=0, trace=False)
        loop.run(seconds=0)
        return loop

    def test_correct_job_passes(self):
        job = jobs.job_for("enumerate", (1, 1, 1), 5)
        loop = self.loop_with(job, self.modules["cli"])
        self.assertEqual((loop.attempted, loop.failed), (1, 0))

    def test_corrupted_count_is_a_failure(self):
        job = jobs.job_for("enumerate", (1, 1, 1), 5)
        fake = FakeCli(self.modules["cli"], '"count_J": 186', '"count_J": 187')
        loop = self.loop_with(job, fake)
        self.assertEqual((loop.attempted, loop.failed), (1, 1))
        _, lines = end_to_end(loop, "enumerate", 0.1)
        self.assertIn("failed_frac = 1 (1 of 1)", lines)
        # The count oracle catches it even when the digest was recorded from
        # the corrupted output.
        out, _ = jobs.execute(job, fake, self.modules["textio"])
        reference = {"enumerate": {job.key: {"sha256": jobs.output_digests(job, out.outputs)}}}
        self.assertIn("count_J=187", jobs.check(job, out, reference, 0, full=True))

    def test_mismatched_digest_is_a_failure(self):
        job = jobs.job_for("symbolic", (2, 3, 5), None)
        reference = json.loads(json.dumps(self.reference))
        reference["symbolic"][job.key]["sha256"]["verify"] = "0" * 64
        loop = self.loop_with(job, self.modules["cli"], reference)
        self.assertEqual((loop.attempted, loop.failed), (1, 1))
        self.assertIn("digest mismatch", loop.problems[0])

    def test_roundtrip_oracle_passes_and_catches_a_changed_term(self):
        job = jobs.job_for("roundtrip", (1, 2, 2), None, "singular")
        out, _ = jobs.execute(job, self.modules["cli"], self.modules["textio"])
        self.assertEqual(jobs.check(job, out, self.reference, 0, full=True), "")
        out.outputs[1] = out.outputs[1].replace('"coeff": "-1"', '"coeff": "-2"', 1)
        reference = {"roundtrip": {job.key: {"sha256": jobs.output_digests(job, out.outputs)}}}
        self.assertIn("does not vanish", jobs.check(job, out, reference, 0, full=True))

    def test_seed_fixes_the_job_list(self):
        scroll = self.modules["scroll"]
        for workload in jobs.WORKLOADS:
            first = jobs.job_list(workload, 7, scroll, self.reference)
            again = jobs.job_list(workload, 7, load_program(ROOT)["scroll"], self.reference)
            other = jobs.job_list(workload, 8, scroll, self.reference)
            self.assertEqual(first, again)
            self.assertNotEqual(first, other)
            self.assertEqual(len(first), jobs.JOBS_PER_LIST[workload])

    def test_parse_terms_reads_all_renderings(self):
        want = {((1, 0, 1), (1, 2, 1)): 1, ((1, 1, 2),): -1, ((2, 0, 3),): 12}
        for text in ("x[1][0]*x[1][2] - x[1][1]^2 + 12*x[2][0]^3",
                     "x_(1,0)*x_(1,2)-x_(1,1)^2+12*x_(2,0)^3",
                     "x(1)(0)*x(1)(2)-x(1)(1)^2+12*x(2)(0)^3"):
            self.assertEqual(jobs.parse_terms(text), want)


class TracerTest(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        # root [0,100] > a [10,40] > a1 [15,25]; root > b [50,90]
        parent = [-1, 0, 1, 0]
        start = [0, 10, 15, 50]
        end = [100, 40, 25, 90]
        self.assertEqual(tracing.self_times(parent, start, end), [30, 20, 10, 40])
        self.assertEqual(tracing.self_times(parent, start, end, lo=1, hi=3), [20, 10])

    def test_execution_profile_checks_nesting(self):
        tr = tracing.Tracer()
        spans = [tr.open("job"), tr.open("cli.run"), tr.open("polyring.mul")]
        for idx in reversed(spans):
            tr.close(idx)
        for idx, (s, e) in zip(spans, [(0, 100), (10, 70), (20, 50)]):
            tr.start[idx], tr.end[idx] = s, e
        tr.count(spans[2], {"terms_out": 4})
        prof = tracing.execution_profile(tr, spans[0])
        self.assertEqual((prof["job.self_ns"], prof["cli.run.self_ns"],
                          prof["polyring.mul.self_ns"]), (40, 30, 30))
        self.assertEqual(prof["polyring.mul.terms_out"], 4)
        tr.end[spans[2]] = 90  # a child longer than its parent: negative self time
        with self.assertRaises(AssertionError):
            tracing.execution_profile(tr, spans[0])

    def test_install_wraps_every_lookup_and_uninstall_restores(self):
        modules = load_program(ROOT)
        before = {(id(m), a): getattr(m, a) for m in modules.values() for a in dir(m)}
        poly_cls = modules["polyring"].Polynomial
        mul = poly_cls.__dict__["__mul__"]
        tr = tracing.Tracer()
        patches = tracing.install(tr, modules)
        try:
            for name, attr in (("cli", "equation_set"), ("verify", "bridge"),
                               ("cli", "compare_varieties"), ("polyring", "format_poly")):
                self.assertTrue(hasattr(getattr(modules[name], attr), "__wrapped__"), attr)
            root = tr.open("job")
            code, _ = jobs.call_cli(modules["cli"], ["--profile", "1,2", "verify"])
            tr.close(root)
        finally:
            tracing.uninstall(patches)
        self.assertEqual(code, 0)
        prof = tracing.execution_profile(tr, root)
        for name in ("cli.run", "scroll.equation_set", "scroll.bridge", "polyring.mul",
                     "polyring.substitute", "verify.check_bridge"):
            self.assertGreater(prof[name + ".calls"], 0, name)
        self.assertIs(poly_cls.__dict__["__mul__"], mul)
        after = {(id(m), a): getattr(m, a) for m in modules.values() for a in dir(m)}
        self.assertEqual(before.keys(), after.keys())
        self.assertTrue(all(before[k] is after[k] for k in before if not k[1].startswith("__")))


class HostSpeedTest(unittest.TestCase):
    def test_scale_maps_kernel_time_to_reference(self):
        ref = hostspeed.REFERENCE_NS
        self.assertEqual(hostspeed.scale(ref, ref), 1.0)
        self.assertEqual(hostspeed.scale(2 * ref, 2 * ref), 0.5)
        self.assertEqual(hostspeed.scale(ref, 3 * ref), 0.5)

    def test_measure_returns_result_and_scaled_time(self):
        result, raw, scale = hostspeed.measure(sorted, [3, 1, 2])
        self.assertEqual(result, [1, 2, 3])
        self.assertGreater(raw, 0)
        self.assertGreater(scale, 0)
        self.assertGreater(hostspeed.kernel_ns(), 0)


class ResultTest(unittest.TestCase):
    def test_tail_rank(self):
        idx, pct = tail_rank(60)
        self.assertEqual(idx, 49)
        self.assertAlmostEqual(pct, 100 * 50 / 60)
        self.assertEqual(tail_rank(5), (0, 20.0))


if __name__ == "__main__":
    unittest.main()
