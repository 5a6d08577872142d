"""Tests of the benchmark's own logic.

    python3 -m pytest bench/test_bench.py
"""

import sys
import unittest
from pathlib import Path

import checks
import reference
import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"

NATS_OK = "X = scons(0,X)\nX ~ scons(0,scons(0,scons(◇,◇)))\n"
SERVER_OK = (
    "X = cons(get(_A),X)\n"
    "X ~ cons(get(_A),cons(get(◇),cons(◇,◇)))\n"
    "Y = cons(_A,Y)\n"
    "Y ~ cons(_A,cons(X_1,cons(◇,◇)))\n"
)


class AnswerChecks(unittest.TestCase):
    def test_correct_answers_pass(self):
        self.assertTrue(checks.check_stream("nats", ("X",), 1, 3, 0, NATS_OK).ok)
        self.assertTrue(checks.check_stream("server", ("X", "Y"), 1, 3, 0, SERVER_OK).ok)
        both = checks.check_stream("nats", ("X",), 2, 3, 0, NATS_OK + "\n" + NATS_OK)
        self.assertEqual((both.ok, both.answers), (True, 2))

    def test_wrong_stream_is_rejected(self):
        wrong = "X = scons(a,X)\nX ~ scons(a,scons(a,scons(◇,◇)))\n"
        v = checks.check_stream("nats", ("X",), 1, 3, 0, wrong)
        self.assertFalse(v.ok)
        self.assertFalse(v.explained)

    def test_misaligned_server_answer_is_rejected(self):
        wrong = SERVER_OK.replace("Y ~ cons(_A,", "Y ~ cons(_Z,")
        v = checks.check_stream("server", ("X", "Y"), 1, 3, 0, wrong)
        self.assertEqual(set(v.failures), {"unexpected"})

    def test_inconsistent_unfolding_is_rejected(self):
        wrong = "X = scons(0,X)\nX ~ scons(0,scons(s(0),scons(◇,◇)))\n"
        v = checks.check_stream("nats", ("X",), 1, 3, 0, wrong)
        self.assertEqual(set(v.failures), {"unexpected"})

    def test_incomplete_answer_is_defect_c(self):
        incomplete = SERVER_OK.replace("X = cons(get(_A),X)", "X = cons(get(_A),_B)")
        v = checks.check_stream("server", ("X", "Y"), 1, 3, 0, incomplete)
        self.assertEqual(set(v.failures), {checks.DEFECT_DROPPED_BINDINGS})
        self.assertTrue(v.explained)

    def test_wrong_answer_count_and_exit_code(self):
        self.assertFalse(checks.check_stream("nats", ("X",), 2, 3, 0, NATS_OK).ok)
        self.assertFalse(checks.check_stream("nats", ("X",), 1, 3, 2, NATS_OK).ok)

    def test_ground_verdicts(self):
        self.assertTrue(checks.check_verdict(0, 0, "true\n", None).ok)
        self.assertTrue(checks.check_verdict(1, 1, "", None).ok)
        self.assertFalse(checks.check_verdict(1, 0, "true\n", None).ok)
        limit = checks.check_verdict(0, 2, "", None, false_limit_possible=True)
        self.assertEqual(set(limit.failures), {checks.DEFECT_FALSE_LIMIT})
        unexplained = checks.check_verdict(0, 2, "", None)
        self.assertFalse(unexplained.explained)

    def test_escaped_exception_fails_whatever_the_output(self):
        v = checks.check_verdict(1, None, "", RecursionError())
        self.assertEqual(set(v.failures), {checks.DEFECT_RECURSION})
        self.assertFalse(checks.check_verdict(1, None, "", KeyError()).explained)

    def test_unfold_cuts_variables_at_depth(self):
        eqs = {"X": checks.parse_term("f(X,_A)")}
        self.assertEqual(checks.unfold(eqs, "X", 2), ("f", ("f", checks.CUT, checks.CUT), "_A"))


class SelfTimes(unittest.TestCase):
    def test_synthetic_span_tree(self):
        spans = [
            ["root", 0.0, 10.0, -1, 0],
            ["a", 1.0, 4.0, 0, 0],
            ["b", 5.0, 9.0, 0, 0],
            ["c", 6.0, 8.0, 2, 0],
        ]
        self.assertEqual(tracing.self_times(spans), {0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0})

    def test_install_wraps_every_reference_and_uninstall_restores(self):
        sys.path.insert(0, str(SRC))
        from coresolve import coengine, unify

        original = unify.mgm
        tr = tracing.Tracer()
        tr.install()
        try:
            self.assertIsNot(unify.mgm, original)
            self.assertIs(coengine.mgm, unify.mgm)
            tr.begin(0)
            unify.mgm(unify.Var(1), unify.Var(2))
            tr.end("sld")
        finally:
            tr.uninstall()
        self.assertIs(unify.mgm, original)
        self.assertIs(coengine.mgm, original)
        self.assertEqual((tr.calls["unify.mgm"], tr.counts["unify.mgm.ok"]), (1, 1))


class Correction(unittest.TestCase):
    def test_times_scale_with_the_nearby_blocks(self):
        nominal = reference.NOMINAL_MS / 1000
        times = [0.010] * 8 + [0.020] * 8
        # The machine runs at nominal speed, then at half speed.
        blocks = [nominal] * 8 + [2 * nominal] * 8
        fixed = reference.corrected(times, blocks)
        self.assertAlmostEqual(fixed[0], 0.010)
        self.assertAlmostEqual(fixed[-1], 0.010)
        # Call 8 sees the 3 fast blocks before it and the 3 slow ones after.
        self.assertAlmostEqual(fixed[8], 0.020 / 1.5)

    def test_reference_block_takes_time(self):
        self.assertGreater(reference.block(), 0)


class Seeds(unittest.TestCase):
    def test_same_seed_same_program(self):
        self.assertEqual(workloads.generate_wide(7), workloads.generate_wide(7))
        self.assertNotEqual(workloads.generate_wide(7)[0], workloads.generate_wide(8)[0])

    def test_same_seed_same_queries(self):
        for build in (workloads.stream_answers, workloads.deep_loop):
            self.assertEqual(
                [q.argv for q in build(3, "programs")], [q.argv for q in build(3, "programs")]
            )
        first = workloads.wide_program(3, "wide.lp")[1]
        self.assertEqual([q.argv for q in first], [q.argv for q in workloads.wide_program(3, "wide.lp")[1]])

    def test_wide_pairs_have_the_planned_verdicts(self):
        _, edges, pairs = workloads.generate_wide(11)
        for label, a, b in pairs:
            self.assertEqual(workloads.reachable(edges, a, b), label.startswith("reach"), label)


if __name__ == "__main__":
    unittest.main()
