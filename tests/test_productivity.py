"""Bounded productivity check: loop witnesses and their pumping."""

from conftest import load, mk
from coresolve.productivity import (
    GuardOutcome,
    ProductivityStatus,
    check_productive,
    guard_rewrite_chain,
)
from coresolve.program import parse_program
from coresolve.terms import FreshVars, Var, apply_raw, is_variant
from coresolve.unify import mgm

X, Y = Var(1, "X"), Var(2, "Y")


class TestVerdicts:
    def test_bad_program_non_productive(self):
        p, fresh = load("bad")
        verdict = check_productive(p, fresh=fresh)
        assert verdict.status is ProductivityStatus.NON_PRODUCTIVE
        assert len(verdict.witness.steps) == 1
        atoms = verdict.witness.atoms()
        assert is_variant(atoms[0], atoms[-1])

    def test_tautological_clause_non_productive(self):
        p, fresh = load("case1")
        verdict = check_productive(p, fresh=fresh)
        assert verdict.status is ProductivityStatus.NON_PRODUCTIVE

    def test_nats_no_loop(self):
        p, fresh = load("nats")
        verdict = check_productive(p, bound=10, fresh=fresh)
        assert verdict.status is ProductivityStatus.NO_LOOP_FOUND
        assert verdict.bound == 10


class TestGuard:
    def test_variant_on_chain(self):
        xp = Var(3, "Xp")
        chain = [mk("bad", mk("f", X))]
        assert (
            guard_rewrite_chain(chain, mk("bad", mk("f", xp)))
            is GuardOutcome.LOOP_WITNESS
        )

    def test_different_predicate(self):
        chain = [mk("nats", mk("scons", X, Y))]
        assert guard_rewrite_chain(chain, mk("nat", X)) is GuardOutcome.CONTINUE

    def test_instance_is_not_variant(self):
        chain = [mk("p", X, X)]
        assert guard_rewrite_chain(chain, mk("p", X, Y)) is GuardOutcome.CONTINUE


class TestWitnessSoundness:
    def _replayable(self, p, witness, fresh):
        """The witness replays as a rewriting derivation: every step's atom
        arises from its parent by matching the recorded clause."""
        atoms = witness.atoms()
        for parent, st in zip(atoms, witness.steps):
            out = mgm(st.clause.head, parent)
            assert out.ok
            assert apply_raw(out.substitution, st.clause.body[st.body_index]) == st.atom

    def test_witness_replays(self):
        for name in ("bad", "case1"):
            p, fresh = load(name)
            verdict = check_productive(p, fresh=fresh)
            self._replayable(p, verdict.witness, fresh)

    def test_loop_pumps(self):
        # Unroll the loop three times: each round must produce a variant of
        # the loop atom again, so the chain grows without bound.
        p, fresh = load("bad")
        verdict = check_productive(p, fresh=fresh)
        w = verdict.witness
        atom = w.atoms()[w.loop_start]
        current = atom
        for _ in range(3 * len(w.steps)):
            stepped = None
            for ci in range(len(p.clauses)):
                from coresolve.program import clause_instance

                clause = clause_instance(p.clauses[ci], fresh)
                out = mgm(clause.head, current)
                if out.ok and clause.body:
                    stepped = apply_raw(out.substitution, clause.body[0])
                    break
            assert stepped is not None
            current = stepped
        assert is_variant(current, atom)


class TestExhaustiveness:
    def test_no_loop_found_matches_brute_force(self):
        # On small synthetic programs, compare the checker with an
        # independent enumeration of all rewriting derivations.
        programs = [
            "p(f(X)) :- q(X). q(g(X)) :- p(X). r(0).",
            "p(f(X)) :- p(f(X)).",
            "p(f(X)) :- q(X), r(X). q(f(X)) :- p(X). r(0).",
            "s(c(X,Y)) :- s(X), t(Y). t(0).",
        ]
        for text in programs:
            fresh = FreshVars()
            p = parse_program(text, fresh)
            verdict = check_productive(p, bound=6, fresh=fresh)
            brute = self._brute_force_has_loop(p, verdict.roots, 6, fresh)
            assert (verdict.status is ProductivityStatus.NON_PRODUCTIVE) == brute

    @staticmethod
    def _brute_force_has_loop(p, roots, bound, fresh):
        from coresolve.program import clause_instance

        def grow(atom, chain):
            if len(chain) >= bound:
                return False
            for c in p.clauses:
                clause = clause_instance(c, fresh)
                out = mgm(clause.head, atom)
                if not out.ok:
                    continue
                for b in clause.body:
                    child = apply_raw(out.substitution, b)
                    if any(is_variant(prev, child) for prev in chain + [atom]):
                        return True
                    if grow(child, chain + [atom]):
                        return True
            return False

        return any(grow(r, []) for r in roots)
