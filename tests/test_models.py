"""Bounded model oracles: forward closure and local backward closure."""

from conftest import const, load, load_query, mk
from coresolve.coengine import co_refute
from coresolve.derivation import Limits, Status, refute
from coresolve.models import gfp_local_check, ground_terms, lfp_enumerate, term_depth
from coresolve.program import parse_program
from coresolve.terms import FreshVars, Substitution, Var, apply_raw

X = Var(1, "X")
zero = const("0")


def s_(t):
    return mk("s", t)


class TestLfpEnumerate:
    def test_nat_cap4(self):
        p, _ = load("nat")
        got = lfp_enumerate(p, 4).atoms
        want = set()
        t = zero
        for _ in range(4):
            want.add(mk("nat", t))
            t = s_(t)
        assert got == want

    def test_no_facts_empty(self):
        p = parse_program("p(s(X)) :- p(X). q(0) :- p(0).")
        assert lfp_enumerate(p, 4).atoms == frozenset()

    def test_nats_defines_no_streams(self):
        p, _ = load("nats")
        got = lfp_enumerate(p, 4).atoms
        assert all(a.symbol.name == "nat" for a in got)

    def test_every_atom_sld_refutable(self):
        p, _ = load("nat")
        for atom in lfp_enumerate(p, 4).sorted():
            fresh = FreshVars(10**5)
            assert refute(p, [atom], "sld", Limits(), fresh).status is Status.REFUTED

    def test_complete_at_cap(self):
        # Every ground nat atom within the cap has a refutation and must be
        # enumerated; check by direct construction.
        p, _ = load("nat")
        got = lfp_enumerate(p, 5).atoms
        t = zero
        for _ in range(5):
            assert mk("nat", t) in got
            t = s_(t)
        assert mk("nat", t) not in got  # beyond the cap


class TestGroundTerms:
    def test_depths_respected(self):
        p, _ = load("nat")
        terms = ground_terms(p, 2)
        assert zero in terms and s_(s_(zero)) in terms
        assert all(term_depth(t) <= 2 for t in terms)


class TestGfpLocalCheck:
    def test_nat_omega(self):
        p, _ = load("nat")
        assert gfp_local_check(p, (mk("nat", X), Substitution({X: s_(X)})), 6)

    def test_bad_f_omega(self):
        p, _ = load("bad")
        assert gfp_local_check(
            p, (mk("bad", X), Substitution({X: mk("f", X)})), 4
        )

    def test_unmatched_head_false(self):
        p, _ = load("nat")
        assert not gfp_local_check(p, (mk("nat", mk("f", zero)), Substitution()), 4)

    def test_restricted_answers_pass(self):
        for name, query in [
            ("nats", "nats(X)"),
            ("server", "resource(X,Y), zeros(Y)"),
            ("r", "r(X,Y)"),
        ]:
            p, q, fresh = load_query(name, query)
            result = co_refute(p, q, "restricted", Limits(), fresh)
            assert result.status is Status.REFUTED
            answer = result.answers[0]
            for atom in q:
                assert gfp_local_check(p, (atom, answer.solved), 8, fresh)


class TestTermDepth:
    def test_depths(self):
        assert term_depth(zero) == 0 and term_depth(X) == 0
        assert term_depth(mk("f", s_(zero), X)) == 2

    def test_deep_term_does_not_recurse(self):
        t = X
        for _ in range(10_000):
            t = mk("f", zero, s_(t))
        assert term_depth(t) == 20_000

