"""Terms, substitutions, truncation, and the dyadic distance."""

import pytest

from conftest import random_term, var_pool
from coresolve.terms import (
    TRUNCATED,
    CircularSubstitutionError,
    Distance,
    FreshVars,
    Substitution,
    Var,
    apply,
    compose,
    const,
    distance,
    is_instance,
    is_variant,
    mk,
    rename_apart,
    term_to_text,
    truncate,
    variables_of,
)

X, Y, S = Var(1, "X"), Var(2, "Y"), Var(3, "S")
zero = const("0")


def s_(t):
    return mk("s", t)


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


def test_term_text_round_shape():
    t = mk("fibs", X, mk("cons", zero, Y))
    assert term_to_text(t) == "fibs(X,cons(0,Y))"
