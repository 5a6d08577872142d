"""Bounded productivity check: loop witnesses and their pumping."""

import random
import sys
from enum import Enum
from typing import Sequence

from conftest import PROGRAMS, load, mk, program_to_text, random_program, random_term, seed, var_pool
from coresolve import terms
from coresolve.productivity import (
    ProductivityStatus,
    RewritingWitness,
    WitnessStep,
    _variant_key,
    check_productive,
    default_roots,
)
from coresolve.program import clause_instance, parse_program
from coresolve.terms import (
    FreshVars,
    Struct,
    Substitution,
    Symbol,
    Term,
    Var,
    apply_raw,
    is_variant,
    term_to_text,
    variables_in_order,
)
from coresolve.unify import mgm

X, Y = Var(1, "X"), Var(2, "Y")


class GuardOutcome(Enum):
    CONTINUE = "continue"
    LOOP_WITNESS = "loop_witness"


def guard_rewrite_chain(chain: Sequence[Term], nxt: Term) -> GuardOutcome:
    """Online check for a rewriting chain: is the next rewritten atom a
    variant of something already on the chain?"""
    if any(is_variant(prev, nxt) for prev in chain):
        return GuardOutcome.LOOP_WITNESS
    return GuardOutcome.CONTINUE


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


def witness_shape(w):
    """The witness with its variables numbered in order of occurrence."""
    if w is None:
        return None
    terms = [w.root]
    for st in w.steps:
        terms += [st.clause.head, *st.clause.body, st.atom]
    key, _ = _variant_key(terms)
    return key, [(st.clause_index, st.clause.span, st.body_index) for st in w.steps], w.loop_start


def reference_check(p, bound, fresh):
    """The recursive search ``check_productive`` replaced: renames every
    candidate clause, matches its head, and compares each new atom with
    every atom on the chain.  Returns the verdict's status and witness."""

    def explore(atom, chain, steps):
        for ci in p.candidates(atom, matching=True):
            clause = clause_instance(p.clauses[ci], fresh)
            out = mgm(clause.head, atom)
            if not out.ok:
                continue
            for bi, b in enumerate(clause.body):
                child = apply_raw(out.substitution, b)
                step = WitnessStep(ci, clause, bi, child)
                for k, prev in enumerate(chain + [atom]):
                    if is_variant(prev, child):
                        return RewritingWitness(None, tuple(steps + [step]), k)
                if len(chain) + 1 < bound:
                    got = explore(child, chain + [atom], steps + [step])
                    if got is not None:
                        return got
        return None

    for root in default_roots(p, fresh):
        witness = explore(root, [], [])
        if witness is not None:
            return ProductivityStatus.NON_PRODUCTIVE, (root, witness.steps, witness.loop_start)
    return ProductivityStatus.NO_LOOP_FOUND, None


def random_rewriting_program(rnd: random.Random) -> str:
    """A small program whose clauses often rewrite an atom to a variant of
    an earlier one: heads over variables, constants and s/1 or c/2, bodies
    over the head's variables."""
    preds = [(f"p{i}", rnd.choice([1, 2])) for i in range(rnd.randint(1, 3))]
    lines = []
    for name, arity in preds:
        for _ in range(rnd.randint(1, 3)):
            vs: list[str] = []

            def head_arg():
                r = rnd.random()
                if r < 0.15:
                    return rnd.choice(["0", "a"])
                if r < 0.45:
                    vs.append(f"V{len(vs)}")
                    return vs[-1]
                new = [f"V{len(vs) + k}" for k in range(rnd.choice([1, 2]))]
                vs.extend(new)
                return ("s(" if len(new) == 1 else "c(") + ",".join(new) + ")"

            def body_arg():
                r = rnd.random()
                if vs and r < 0.6:
                    return rnd.choice(vs)
                if vs and r < 0.8:
                    return f"s({rnd.choice(vs)})"
                return rnd.choice(["0", "a", "W"])

            head = f"{name}({','.join(head_arg() for _ in range(arity))})"
            body = [
                f"{q}({','.join(body_arg() for _ in range(qa))})"
                for q, qa in rnd.sample(preds, rnd.choice([0, 1, 1, min(2, len(preds))]))
            ]
            lines.append(head + (" :- " + ", ".join(body) if body else "") + ".")
    return "\n".join(lines) + "\n"


class TestSameVerdicts:
    def test_matches_the_recursive_search(self):
        rnd = random.Random(seed())
        seen = set()
        for _ in range(150):
            text = random_rewriting_program(rnd)
            for bound in (2, 5, 8):
                p = parse_program(text, FreshVars())
                fresh, fresh_ref = FreshVars(10**7), FreshVars(10**7)
                verdict = check_productive(p, bound=bound, fresh=fresh)
                status, witness = reference_check(p, bound, fresh_ref)
                assert verdict.status is status, text
                seen.add(status)
                if witness is not None:
                    root, steps, loop_start = witness
                    w = verdict.witness
                    assert (w.root, w.steps, w.loop_start) == (root, steps, loop_start), text
                # The same fresh ids were drawn, in the same order.
                assert fresh.new() == fresh_ref.new()
        assert seen == set(ProductivityStatus)

    def test_rule_heads_are_enough_roots(self):
        # default_roots leaves out the heads of predicates with no rule,
        # which rewrite to nothing: status, bound and witness are those of
        # the full root list, up to the ids of renamed clauses (rewriting
        # the left-out heads drew some).
        rnd = random.Random(seed())
        texts = [path.read_text(encoding="utf-8") for path in sorted(PROGRAMS.glob("*.lp"))]
        texts += [program_to_text(random_program(rnd, FreshVars())[0]) for _ in range(200)]
        texts += [random_rewriting_program(rnd) for _ in range(150)]
        seen, dropped = set(), 0
        for text in texts:
            for bound in (3, 8):
                p, q = parse_program(text, FreshVars()), parse_program(text, FreshVars())
                verdict = check_productive(p, bound=bound)
                fresh = FreshVars(10**7)
                every = default_roots(q, fresh)[: len(q.predicates())]
                every += [c.head for c in q.clauses]
                full = check_productive(q, every, bound=bound, fresh=fresh)
                assert (verdict.status, verdict.bound) == (full.status, full.bound), text
                assert witness_shape(verdict.witness) == witness_shape(full.witness), text
                ruled = {c.head.symbol for c in q.clauses if c.body}
                assert verdict.roots == tuple(
                    r for k, r in enumerate(every) if k < len(q.predicates()) or r.symbol in ruled
                )
                seen.add(verdict.status)
                dropped += len(every) - len(verdict.roots)
        assert seen == set(ProductivityStatus) and dropped

    def test_variant_key(self):
        rnd = random.Random(seed())
        pool = var_pool(4)
        p = Symbol("p", 2)
        outcomes = set()
        for _ in range(400):
            a = Struct(p, (random_term(rnd, 2, pool), random_term(rnd, 2, pool)))
            # A renaming of a's variables onto the pool, often merging two.
            b = apply_raw(Substitution({v: rnd.choice(pool) for v in pool}), a)
            variant = is_variant(a, b)
            (key_a, slots_a), (key_b, _) = _variant_key((a,)), _variant_key((b,))
            assert (key_a == key_b) == variant
            assert slots_a == variables_in_order([a])
            # Several terms are keyed as the arguments of one term.
            assert a._ground and b._ground or _variant_key((a, b)) == (
                _variant_key((Struct(p, (a, b)),))[0][1:], variables_in_order([a, b])
            )
            outcomes.add(variant)
        assert outcomes == {True, False}


def nat_fact(n):
    return "p(" + "s(" * n + "0" + ")" * n + ")"


class TestDeepChains:
    # Chains of 3,000 atoms: one Python frame per atom would pass the
    # default recursion limit.

    def chain_root(self, fresh):
        return parse_program(f"{nat_fact(3000)}.", fresh).clauses[0].head

    def test_long_chain_without_a_loop(self):
        fresh = FreshVars()
        p = parse_program("p(s(X)) :- p(X).\n", fresh)
        verdict = check_productive(p, roots=[self.chain_root(fresh)], bound=5000, fresh=fresh)
        assert verdict.status is ProductivityStatus.NO_LOOP_FOUND
        assert 3000 > sys.getrecursionlimit()

    def test_witness_at_the_end_of_a_long_chain(self):
        fresh = FreshVars()
        p = parse_program("p(s(X)) :- p(X).\np(0) :- p(0).\n", fresh)
        verdict = check_productive(p, roots=[self.chain_root(fresh)], bound=5000, fresh=fresh)
        w = verdict.witness
        assert verdict.status is ProductivityStatus.NON_PRODUCTIVE
        assert (len(w.steps), w.loop_start) == (3001, 3000)
        assert term_to_text(w.steps[-1].atom) == "p(0)"
        assert [st.clause_index for st in w.steps] == [0] * 3000 + [1]

    def test_deep_ground_head_is_compared_whole(self):
        # Each atom p(s^k(0)) of the chain from the fact's own head matches
        # against that head again, whose s^n(0) is ground.  Walking it
        # pair by pair visited the k shared levels at every atom.
        fresh = FreshVars()
        p = parse_program(f"p(s(X)) :- p(X).\n{nat_fact(600)}.\n", fresh)
        code = terms._match_into.__code__
        calls = lines = 0

        def tracer(frame, event, arg):
            nonlocal calls, lines
            if frame.f_code is not code:
                return None
            calls += event == "call"
            lines += event == "line"
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            verdict = check_productive(p, bound=5000, fresh=fresh)
        finally:
            sys.settrace(previous)
        assert verdict.status is ProductivityStatus.NO_LOOP_FOUND
        # Lines run per match: a few dozen, however deep the fact.
        assert calls >= 600 and lines < 30 * calls
