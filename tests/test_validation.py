"""Desk-scale checks of the calculus's convergence and correspondence
properties."""

import pytest

from conftest import check_lemma_4_1, grows_at_most, load_query, mk, replay
from coresolve import decirc
from coresolve.coengine import co_refute
from coresolve.derivation import Limits, Status, StepKind
from coresolve.program import parse_program, parse_query
from coresolve.terms import FreshVars, term_to_text
from coresolve.validation import (
    CorrespondenceReport,
    ValidationRefused,
    build_loop_unrolling,
    check_theorem_5_1,
)


class TestBuildLoopUnrolling:
    def _trace(self, name, query, **lim):
        p, q, fresh = load_query(name, query)
        result = co_refute(p, q, "restricted", Limits(**lim), fresh)
        assert result.status is Status.REFUTED
        return p, q, fresh, result.answers[0]

    def test_r_program_unrolls(self):
        p, q, fresh, answer = self._trace("r", "r(X,Y)")
        initial, steps = build_loop_unrolling(p, q, answer, 3, fresh)
        assert initial == tuple(q)
        # The unrolling is an honest S-derivation: it replays, and the open
        # goal keeps being a variant of the looping atom.
        goals = replay(initial, steps)
        assert len(goals) == len(steps) + 1
        assert all(len(g) >= 1 for g in goals[1:])

    def test_zero_rounds_is_loop_free_prefix(self):
        p, q, fresh, answer = self._trace("r", "r(X,Y)")
        _, steps = build_loop_unrolling(p, q, answer, 0, fresh)
        assert all(st.kind is not StepKind.LOOP for st in steps)

    def test_server_rounds_extend_answer(self):
        p, q, fresh, answer = self._trace("server", "resource(X,Y), zeros(Y)")
        _, few = build_loop_unrolling(p, q, answer, 2, fresh)
        p2, q2, fresh2, answer2 = self._trace("server", "resource(X,Y), zeros(Y)")
        _, more = build_loop_unrolling(p2, q2, answer2, 4, fresh2)
        t_few = q[0]
        for st in few:
            from coresolve.terms import apply_raw

            t_few = apply_raw(st.subst, t_few)
        t_more = q2[0]
        for st in more:
            from coresolve.terms import apply_raw

            t_more = apply_raw(st.subst, t_more)
        assert term_to_text(t_more).count("cons(get(") > term_to_text(
            t_few
        ).count("cons(get(")

    def test_rewrites_take_no_round(self):
        # Only a substitution step counts toward the rounds: the ground
        # ok(0) each round leaves behind is rewritten away on the side.
        fresh = FreshVars()
        p = parse_program("zs(scons(0,S)) :- ok(0), zs(S).\nok(0).\n", fresh)
        q = parse_query("zs(X)", fresh)
        answer = co_refute(p, q, "restricted", Limits(), fresh).answers[0]
        kept = [st for st in answer.steps if st.kind is not StepKind.LOOP]
        initial, steps = build_loop_unrolling(p, q, answer, 3, fresh)
        assert steps[: len(kept)] == kept
        S, R = StepKind.SUBST, StepKind.REWRITE
        unrolled = [(st.kind, st.clause_index) for st in steps[len(kept) :]]
        assert unrolled == [(S, 0), (R, 0), (R, 1)] * 2 + [(S, 0), (R, 0)]
        assert len(replay(initial, steps)) == len(steps) + 1

    def test_colp_trace_rejected(self):
        p, q, fresh = load_query("ex51", "p(X,s(X))")
        result = co_refute(p, q, "colp", Limits(), fresh)
        answer = result.answers[0]
        # The answer carries no mode: the refusal comes from its loop step,
        # whose atom the ancestor is not an instance of.
        assert any(st.kind is StepKind.LOOP for st in answer.steps)
        with pytest.raises(ValidationRefused, match="restricted loops"):
            build_loop_unrolling(p, q, answer, 2, fresh)


class TestTheorem51:
    @pytest.mark.parametrize(
        "name,query",
        [
            ("r", "r(X,Y)"),
            ("nats", "nats(X)"),
            ("server", "resource(X,Y), zeros(Y)"),
        ],
    )
    def test_corpus_agreement(self, name, query):
        p, q, fresh = load_query(name, query)
        report = check_theorem_5_1(p, q, d_max=8, rounds=16, fresh=fresh)
        assert report.answer is not None
        assert report.agrees
        assert len(report.table) == 8

    def test_facts_only_program_has_empty_table(self):
        p, q, fresh = load_query("nat", "nat(s(s(0)))")
        report = check_theorem_5_1(p, q, fresh=fresh)
        assert report.answer is None and report.table == []
        assert report.agrees

    def test_rows_past_the_derivation_are_short(self):
        # 30 rounds build the partial answer 17 levels deep: below that the
        # derivation side still has a variable where the answer has
        # structure, which is a shortfall of rounds, not a disagreement.
        p, q, fresh = load_query("nats", "nats(X)")
        report = check_theorem_5_1(p, q, d_max=30, rounds=30, fresh=fresh)
        assert report.marks() == ["ok"] * 17 + ["short"] * 13
        assert report.agrees

    def test_only_a_more_general_derivation_side_is_short(self):
        X = load_query("nats", "nats(X)")[1][0].args[0]
        zero, one = mk("0"), mk("1")
        rows = [
            (1, mk("f", X), mk("f", zero), False),  # derivation more general
            (2, mk("f", zero), mk("f", X), False),  # answer more general
            (3, mk("f", zero), mk("f", one), False),  # different
            (4, mk("f", X), mk("f", X), True),
        ]
        report = CorrespondenceReport(mk("q"), None, [], rows)
        assert report.marks() == ["short", "MISMATCH", "MISMATCH", "ok"]
        assert not report.agrees
        assert CorrespondenceReport(mk("q"), None, [], [rows[0], rows[3]]).agrees

    def test_refuses_without_restricted_refutation(self):
        p, q, fresh = load_query("ex51", "p(X,s(X))")
        with pytest.raises(ValidationRefused):
            check_theorem_5_1(p, q, fresh=fresh)

    def test_refuses_non_universal_program(self):
        p, q, fresh = load_query("case2", "resource(X,Y), zeros(Y)")
        with pytest.raises(ValidationRefused) as exc:
            check_theorem_5_1(p, q, fresh=fresh)
        assert "universal" in str(exc.value)

    def test_refuses_non_productive_program(self):
        p, q, fresh = load_query("bad", "bad(f(X))")
        with pytest.raises(ValidationRefused) as exc:
            check_theorem_5_1(p, q, fresh=fresh)
        assert "rewriting loop" in str(exc.value)


class TestValidateWork:
    @pytest.mark.parametrize("name, query", [("nats", "nats(X)"), ("server", "resource(X,Y)")])
    def test_linear_in_rounds(self, structs, name, query):
        # The looped atoms were rebuilt by replaying the derivation, and the
        # partial answer by applying each step's substitution to it in turn:
        # nats built 901 / 2,951 / 10,801 Structs at 50 / 100 / 200 rounds,
        # server 2,995 / 10,795 / 41,395.
        built = []
        for rounds in (50, 100, 200):
            p, q, fresh = load_query(name, query)
            structs.n = 0
            assert check_theorem_5_1(p, q, rounds=rounds, fresh=fresh).agrees
            built.append(structs.n)
        assert grows_at_most(built, 2.2), built


class TestLemma41:
    @pytest.mark.parametrize(
        "name,query",
        [("nats", "nats(X)"), ("server", "resource(X,Y), zeros(Y)")],
    )
    def test_distances_converge(self, name, query):
        p, q, fresh = load_query(name, query)
        ok, table = check_lemma_4_1(p, q, steps_count=20, d=8, fresh=fresh)
        assert ok
        assert table[-1][1].zero
        # Distinct non-zero distance levels strictly shrink: each pattern
        # round pushes the first disagreement at least one level deeper.
        exponents = []
        for _, d in table:
            if not d.zero and (not exponents or d.exponent != exponents[-1]):
                exponents.append(d.exponent)
        assert exponents == sorted(set(exponents))
        assert len(exponents) >= 3

    def test_refuses_case2(self):
        p, q, fresh = load_query("case2", "resource(X,Y), zeros(Y)")
        with pytest.raises(ValidationRefused):
            check_lemma_4_1(p, q, fresh=fresh)
