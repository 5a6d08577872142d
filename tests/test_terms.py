"""Terms, substitutions, truncation, and the dyadic distance."""

import sys
import threading

import pytest

from conftest import (
    CircularSubstitutionError,
    Distance,
    apply,
    compose,
    const,
    distance,
    divergence_depth,
    mk,
    random_term,
    rename_apart,
    var_pool,
)
from coresolve.terms import (
    TRUNCATED,
    FreshVars,
    Struct,
    Substitution,
    Symbol,
    Var,
    cycle_members,
    is_instance,
    is_variant,
    term_to_text,
    truncate,
    variables_of,
)

X, Y, S = Var(1, "X"), Var(2, "Y"), Var(3, "S")
zero = const("0")


def s_(t):
    return mk("s", t)


class TestTermObjects:
    def test_hash_formulas_and_no_instance_dict(self):
        # Set and dict orders, and with them every printed answer, follow
        # these hashes: they are the ones the frozen dataclasses computed.
        f = Symbol("f", 2)
        t = Struct(f, (X, zero))
        assert hash(f) == hash(("f", 2))
        assert hash(X) == hash((1,))
        assert hash(t) == hash((f, (X, zero)))
        for obj in (f, X, t):
            assert not hasattr(obj, "__dict__")

    def test_nullary_structures_are_ground_and_hash_as_before(self):
        a = Symbol("a", 0)
        c = Struct(a)
        assert c._ground and Struct(a, ())._ground
        assert hash(c) == hash((a, ()))
        assert c == Struct(Symbol("a", 0)) and c != Struct(Symbol("b", 0))
        assert s_(c)._ground and not s_(X)._ground

    def test_immutable(self):
        for obj, name in ((Symbol("f", 1), "name"), (X, "id"), (s_(X), "args")):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
            with pytest.raises(AttributeError):
                setattr(obj, "extra", None)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            Symbol("", 0)
        with pytest.raises(ValueError, match="non-negative"):
            Symbol("f", -1)
        with pytest.raises(ValueError, match="applied to 1 arguments"):
            Struct(Symbol("f", 2), (X,))

    def test_equality_and_repr(self):
        assert Var(1, "A") == Var(1, "B") and hash(Var(1, "A")) == hash(Var(1, "B"))
        assert X != Y and X != s_(X) and s_(X) != X and X != 1
        assert Symbol("f", 1) != Symbol("f", 2) and Symbol("f", 1) == Symbol("f", 1)
        assert mk("f", X, zero) == mk("f", X, zero) and mk("f", X, zero) != mk("f", zero, X)
        assert repr(s_(X)) == (
            "Struct(symbol=Symbol(name='s', arity=1), args=(Var(id=1, hint='X'),))"
        )

    def test_deep_equality_does_not_recurse(self):
        a, b, c = X, X, Y
        for _ in range(10_000):
            a, b, c = s_(a), s_(b), s_(c)
        assert a == b and a is not b
        assert a != c


class TestFreshVars:
    def test_threads_draw_distinct_ids(self):
        fresh = FreshVars()
        drawn: list[list[int]] = [[] for _ in range(4)]

        def draw(ids):
            for _ in range(10_000):
                ids.append(fresh.new().id)

        threads = [threading.Thread(target=draw, args=(ids,)) for ids in drawn]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        ids = [i for chunk in drawn for i in chunk]
        assert len(ids) == 40_000
        assert len(set(ids)) == 40_000


    def test_block_draws_consecutive_ids(self):
        fresh = FreshVars(5)
        assert fresh.block(3) == 5
        assert fresh.block(1) == 8
        assert fresh.new().id == 9


class TestApply:
    def test_single_binding(self):
        sigma = Substitution({X: mk("scons", zero, Y)})
        assert apply(sigma, mk("nats", X)) == mk("nats", mk("scons", zero, Y))

    def test_identity(self):
        t = mk("f", mk("g", X, zero))
        assert apply(Substitution(), t) == t

    def test_single_pass_matches_chained_application(self):
        # {X↦s(Y), Y↦0} as one solved-form map applies like the two
        # single-binding substitutions in sequence.
        chained = apply(
            Substitution({Y: zero}), apply(Substitution({X: s_(Y)}), mk("nat", X))
        )
        solved = apply(Substitution({X: s_(zero), Y: zero}), mk("nat", X))
        assert chained == solved == mk("nat", s_(zero))

    def test_deep_terms_do_not_recurse(self):
        # Depth 10^4 is past any recursion limit.  A subterm no binding
        # changes comes back as the same object.
        deep, ground = X, zero
        for _ in range(10_000):
            deep, ground = s_(deep), s_(ground)
        assert apply(Substitution({X: zero}), deep) == ground
        pair = mk("f", deep, Y)
        image = apply(Substitution({Y: zero}), pair)
        assert image == mk("f", deep, zero) and image.args[0] is deep
        assert apply(Substitution({Y: zero}), deep) is deep

    def test_rejects_circular(self):
        sigma = Substitution({X: s_(X)})
        assert sigma.circular
        with pytest.raises(CircularSubstitutionError):
            apply(sigma, mk("nat", X))


class TestCompose:
    def test_chains_bindings(self):
        xp = Var(4, "Xp")
        inner = Substitution({X: mk("scons", xp, Y)})
        outer = Substitution({xp: zero})
        composed = compose(outer, inner)
        assert composed.get(X) == mk("scons", zero, Y)

    def test_identity_neutral(self):
        s = Substitution({X: s_(Y)})
        assert compose(Substitution(), s) == s
        assert compose(s, Substitution()) == s

    def test_associativity_random(self, rng):
        # Each substitution binds layer k's variable to a term over later
        # layers only, so every composition stays non-circular.
        pool = var_pool(6)
        for _ in range(100):
            subs = [
                Substitution({pool[k]: random_term(rng, 2, pool[k + 1 :])})
                for k in range(3)
            ]
            c, b, a = subs
            lhs = compose(c, compose(b, a))
            rhs = compose(compose(c, b), a)
            for v in pool:
                assert apply(lhs, v) == apply(rhs, v)

    def test_coherence_with_apply(self, rng):
        pool = var_pool(6)
        for _ in range(100):
            a = Substitution({pool[0]: random_term(rng, 2, pool[1:])})
            b = Substitution({pool[1]: random_term(rng, 2, pool[2:])})
            t = random_term(rng, 3, pool)
            assert apply(compose(b, a), t) == apply(b, apply(a, t))


class TestTruncate:
    def test_depth_zero(self):
        assert truncate(0, mk("nat", zero)) is TRUNCATED
        assert truncate(0, X) is TRUNCATED

    def test_cuts_at_depth(self):
        t = mk("stream", mk("scons", zero, Y))
        assert truncate(2, t) == mk("stream", mk("scons", TRUNCATED, TRUNCATED))

    def test_keeps_shallow_nodes(self):
        t = mk("nat", s_(s_(zero)))
        assert truncate(3, t) == mk("nat", s_(s_(TRUNCATED)))

    def test_idempotent(self, rng):
        pool = var_pool(3)
        for _ in range(50):
            t = random_term(rng, 4, pool)
            for n in range(5):
                assert truncate(n, truncate(n, t)) == truncate(n, t)

    def test_monotone(self, rng):
        pool = var_pool(3)
        for _ in range(50):
            s = random_term(rng, 4, pool)
            t = random_term(rng, 4, pool)
            for n in range(5):
                if truncate(n, s) == truncate(n, t):
                    for m in range(n + 1):
                        assert truncate(m, s) == truncate(m, t)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            truncate(-1, zero)

    def test_deep_terms_do_not_recurse(self):
        t = zero
        for _ in range(10_000):
            t = s_(t)
        assert truncate(10_001, t) == t
        cut = truncate(10_000, t)
        assert divergence_depth(cut, t) == 10_001
        assert truncate(10_000, cut) == cut


class TestDistance:
    def test_equal_terms(self):
        t = mk("f", X)
        assert distance(t, t).zero

    def test_first_divergence_depth(self):
        d = distance(mk("nat", zero), mk("nat", s_(zero)))
        assert d == Distance(False, 2)

    def test_root_clash(self):
        d = distance(mk("nat", zero), mk("stream", X))
        assert d == Distance(False, 1)
        assert d.value() == 0.5

    def test_ultrametric_law(self, rng):
        pool = var_pool(3)
        for _ in range(200):
            a = random_term(rng, 3, pool)
            b = random_term(rng, 3, pool)
            c = random_term(rng, 3, pool)
            assert distance(a, c) <= max(distance(a, b), distance(b, c))


    def test_divergence_depth_is_the_first_differing_truncation(self, rng):
        pool = var_pool(2)
        for _ in range(300):
            a, b = random_term(rng, 4, pool), random_term(rng, 4, pool)
            differ = [n for n in range(1, 7) if truncate(n, a) != truncate(n, b)]
            assert divergence_depth(a, b) == (differ[0] if differ else None)

    def test_deep_terms_do_not_recurse(self):
        a, b, c = zero, zero, const("1")
        for _ in range(10_000):
            a, b, c = s_(a), s_(b), s_(c)
        assert divergence_depth(a, b) is None
        assert divergence_depth(a, c) == 10_001
        assert distance(a, c) == Distance(False, 10_001)


class TestVariables:
    def test_ground(self):
        assert variables_of(mk("nat", zero)) == set()

    def test_collects_all(self):
        t = mk("fibs", X, Y, mk("cons", X, S))
        assert variables_of(t) == {X, Y, S}

    def test_repeated_once(self):
        assert variables_of(mk("p", X, X)) == {X}

    def test_cached_groundness(self, rng):
        assert not X._ground
        assert mk("nat", mk("s", zero))._ground
        pool = var_pool(3)
        for _ in range(300):
            t = random_term(rng, 4, pool)
            assert t._ground == (not variables_of(t))


class TestRenameApart:
    def test_single_variable(self):
        fresh = FreshVars(100)
        t2, renaming = rename_apart(mk("nats", X), fresh)
        assert is_variant(t2, mk("nats", X))
        assert renaming.get(X) is not None

    def test_successive_renamings_disjoint(self):
        fresh = FreshVars(100)
        a, _ = rename_apart(mk("p", X, Y), fresh)
        b, _ = rename_apart(mk("p", X, Y), fresh)
        assert variables_of(a).isdisjoint(variables_of(b))

    def test_invertible(self, rng):
        fresh = FreshVars(1000)
        pool = var_pool(4)
        for _ in range(100):
            t = random_term(rng, 3, pool)
            t2, renaming = rename_apart(t, fresh)
            inverse = Substitution({w: v for v, w in renaming.items()})
            assert apply(inverse, t2) == t


class TestInstanceVariant:
    def test_not_instance_paper_shape(self):
        # p(f(Y'),s(X'1)) has no matcher onto p(f(f(Y)),X1).
        yp, xp1, yy, x1 = Var(10, "Yp"), Var(11, "Xp1"), Var(12, "Y"), Var(13, "X1")
        general = mk("p", mk("f", yp), s_(xp1))
        specific = mk("p", mk("f", mk("f", yy)), x1)
        assert not is_instance(general, specific)

    def test_self_instance(self):
        t = mk("p", X, s_(Y))
        assert is_instance(t, t)

    def test_clause_head_instance(self):
        a, b = Var(20, "A"), Var(21, "B")
        a1, b1, c1 = Var(22, "A1"), Var(23, "B1"), Var(24, "C1")
        general = mk("r", a, b)
        specific = mk("r", mk("f", a1, b1, c1), s_(b1))
        assert is_instance(general, specific)

    def test_variant_renaming(self):
        assert is_variant(mk("nats", X), mk("nats", Y))

    def test_variant_repeated_vs_distinct(self):
        assert not is_variant(mk("p", X, X), mk("p", X, Y))

    def test_variant_iff_mutual_instance(self, rng):
        pool = var_pool(3)
        for _ in range(200):
            a = random_term(rng, 3, pool)
            b = random_term(rng, 3, pool)
            assert is_variant(a, b) == (is_instance(a, b) and is_instance(b, a))


class TestCycleMembers:
    @staticmethod
    def reachable_from(starts, succ):
        seen, stack = set(), list(starts)
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                stack.extend(succ[n])
        return seen

    def test_agrees_with_reachability_oracle(self, rng):
        # A node lies on a cycle iff it is reachable from one of its
        # successors.  Graphs mix self-edges, rings (multi-node components)
        # and acyclic tails whose edges only point to later nodes.
        shapes = {"self_edge": 0, "ring": 0, "off_cycle": 0}
        for _ in range(300):
            n = rng.randint(1, 30)
            succ = {}
            for i in range(n):
                pool = range(i + 1, n) if rng.random() < 0.4 else range(n)
                succ[i] = [rng.choice(pool) for _ in range(rng.randint(0, 3)) if pool]
                if rng.random() < 0.1:
                    succ[i].append(i)
            if n > 1 and rng.random() < 0.3:
                ring = rng.sample(range(n), rng.randint(2, n))
                for a, b in zip(ring, ring[1:] + ring[:1]):
                    succ[a].append(b)
            roots = rng.sample(range(n), rng.randint(1, n))
            got = cycle_members(roots, succ.__getitem__)
            scope = self.reachable_from(roots, succ)
            want = {v for v in scope if v in self.reachable_from(succ[v], succ)}
            assert got == want
            shapes["self_edge"] += sum(v in succ[v] for v in got)
            shapes["ring"] += sum(v not in succ[v] for v in got)
            shapes["off_cycle"] += len(scope - got)
        assert min(shapes.values()) > 50, shapes


def test_term_text_round_shape():
    t = mk("fibs", X, mk("cons", zero, Y))
    assert term_to_text(t) == "fibs(X,cons(0,Y))"
