"""Bounded model oracles: forward closure and local backward closure."""

import random
from dataclasses import dataclass, field
from typing import Optional

from conftest import (
    CORPUS_QUERIES, const, load, load_query, mk, random_term, scanning_resolve, seed, var_pool,
)
from coresolve.coengine import co_refute
from coresolve.derivation import Limits, Status, refute
from coresolve.models import gfp_local_check, ground_terms, lfp_enumerate, term_depth
from coresolve.program import Clause, Program, clause_instance, parse_program
from coresolve.terms import FreshVars, Substitution, Symbol, Var, apply_raw

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
                assert gfp_local_check(p, (atom, answer.solved), 8)


class TestTermDepth:
    def test_depths(self):
        assert term_depth(zero) == 0 and term_depth(X) == 0
        assert term_depth(mk("f", s_(zero), X)) == 2

    def test_deep_term_does_not_recurse(self):
        t = X
        for _ in range(10_000):
            t = mk("f", zero, s_(t))
        assert term_depth(t) == 20_000



# --- the check on value-graph objects, as it was: the reference of
# TestSameVerdicts.  A target is a node of the value graph, a finite layer
# (Mix) that a clause body instantiates over such nodes, or None for an
# unconstrained position.  Each attempt renames the clause apart.


@dataclass(eq=False)
class RefNode:
    symbol: Optional[Symbol]
    var: Optional[Var] = None
    children: list = field(default_factory=list)


def ref_build_node(term, subst):
    maps = [subst.bindings]
    memo = {}
    unfilled = []

    def node_for(t, level):
        if isinstance(t, Var):
            t, level = scanning_resolve(t, level, maps)
        key = (t, level)
        node = memo.get(key)
        if node is None:
            if isinstance(t, Var):
                node = RefNode(None, t)
            else:
                node = RefNode(t.symbol)
                if t.args:
                    unfilled.append((node, t.args, level))
            memo[key] = node
        return node

    root = node_for(term, 0)
    while unfilled:
        node, args, level = unfilled.pop()
        node.children = [node_for(a, level) for a in args]
    return root


@dataclass(frozen=True)
class Mix:
    symbol: Symbol
    children: tuple


def _target_key(t):
    if t is None:
        return None
    if isinstance(t, RefNode):
        return id(t)
    return (t.symbol, tuple(_target_key(c) for c in t.children))


def _match_target(pattern, target, binding):
    if isinstance(pattern, Var):
        prior = binding.get(pattern)
        if prior is None and pattern not in binding:
            binding[pattern] = target
            return True
        return _target_key(prior) == _target_key(target)
    if target is None or (isinstance(target, RefNode) and target.symbol is None):
        return all(_match_target(a, None, binding) for a in pattern.args)
    if target.symbol != pattern.symbol:
        return False
    return all(_match_target(a, c, binding) for a, c in zip(pattern.args, target.children))


def _instantiate(t, binding):
    if isinstance(t, Var):
        return binding.get(t)
    return Mix(t.symbol, tuple(_instantiate(a, binding) for a in t.args))


def reference_gfp_local_check(p, value, depth, fresh=None):
    fresh = fresh or FreshVars(10**7)
    root = ref_build_node(*value)
    memo = {}

    def derivable(target, budget):
        if budget <= 0 or target is None:
            return True
        if isinstance(target, RefNode) and target.symbol is None:
            return True
        key = (_target_key(target), budget)
        got = memo.get(key)
        if got is not None:
            return got
        memo[key] = True  # coinductive default while exploring this target
        ok = False
        for c in p.clauses:
            clause = clause_instance(c, fresh)
            binding = {}
            if not _match_target(clause.head, target, binding):
                continue
            if all(derivable(_instantiate(b, binding), budget - 1) for b in clause.body):
                ok = True
                break
        memo[key] = ok
        return ok

    return derivable(root, depth)


PREDICATES = [Symbol("p", 1), Symbol("q", 2)]


def random_check_program(rnd):
    """Clauses over p/1 and q/2 whose heads often repeat a variable and
    whose bodies may mention variables the head does not bind."""
    pool = var_pool(3, start=500)
    clauses = []
    for _ in range(rnd.randint(2, 5)):
        head = rnd.choice(PREDICATES)
        body = [rnd.choice(PREDICATES) for _ in range(rnd.choice([0, 1, 1, 2]))]
        clauses.append(Clause(
            mk(head.name, *[random_term(rnd, 1, pool) for _ in range(head.arity)]),
            tuple(mk(b.name, *[random_term(rnd, 2, pool) for _ in range(b.arity)]) for b in body),
        ))
    return Program(tuple(clauses))


def random_value(rnd):
    """An atom and a substitution over a pool of its own: bindings may be
    circular, aliases or pure variable cycles, and unbound variables stay
    free leaves."""
    pool = var_pool(4, start=900)
    pred = rnd.choice(PREDICATES)
    atom = mk(pred.name, *[random_term(rnd, 2, pool) for _ in range(pred.arity)])
    bindings = {}
    for v in pool:
        roll = rnd.random()
        if roll < 0.15:
            bindings[v] = rnd.choice(pool)
        elif roll < 0.65:
            bindings[v] = random_term(rnd, 2, pool)
    return atom, Substitution(bindings)


class TestSameVerdicts:
    def test_corpus_answers(self):
        checked = 0
        for name, query in CORPUS_QUERIES.items():
            for mode in ("colp", "restricted"):
                p, q, fresh = load_query(name, query)
                result = co_refute(p, q, mode, Limits(max_steps=1000, max_answers=3), fresh)
                for answer in result.answers:
                    for atom in q:
                        for depth in (1, 4, 8):
                            value = (atom, answer.solved)
                            want = reference_gfp_local_check(p, value, depth)
                            assert gfp_local_check(p, value, depth) is want, (name, mode)
                            checked += 1
        assert checked > 100

    def test_instantiated_nodes_are_not_value_nodes(self):
        # q(f(Z), W) instantiates f(a) as a new node, which is not the
        # value's own f(a) node, so the repeated Y of q(Y, Y) fails to
        # match, as the check on objects compared them by identity.
        p = parse_program("p(Z, W) :- q(f(Z), W).\nq(Y, Y).\n", FreshVars())
        a = const("a")
        value = (mk("p", a, mk("f", a)), Substitution())
        assert reference_gfp_local_check(p, value, 3) is False
        assert gfp_local_check(p, value, 3) is False

    def test_random_programs_and_values(self):
        rnd = random.Random(seed())
        verdicts = []
        for _ in range(200):
            p = random_check_program(rnd)
            for _ in range(3):
                value = random_value(rnd)
                depth = rnd.randint(1, 6)
                want = reference_gfp_local_check(p, value, depth)
                assert gfp_local_check(p, value, depth) is want, (p, value, depth)
                verdicts.append(want)
        assert verdicts.count(True) > 30 and verdicts.count(False) > 30
