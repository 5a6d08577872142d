"""Matching, unification with occurs check, and rational-tree unification."""

from conftest import nodes_bisimilar, random_term, var_pool
from coresolve.rational import build_node
from coresolve.terms import (
    Substitution,
    Var,
    apply,
    apply_raw,
    const,
    is_variant,
    mk,
    truncate,
    variables_of,
)
from coresolve.unify import UnifyKind, mgm, mgu, occurs_in, rational_unify

X, Y, Z = Var(1, "X"), Var(2, "Y"), Var(3, "Z")
Xp, Yp = Var(4, "Xp"), Var(5, "Yp")
zero = const("0")


def s_(t):
    return mk("s", t)


class TestMgm:
    def test_binds_pattern_only(self):
        pattern = mk("nats", mk("scons", X, Y))
        target = mk("nats", mk("scons", zero, Yp))
        out = mgm(pattern, target)
        assert out.kind is UnifyKind.MATCHER
        assert apply(out.substitution, pattern) == target
        assert out.substitution.domain() <= variables_of(pattern)

    def test_ground_identity(self):
        t = mk("nat", s_(zero))
        out = mgm(t, t)
        assert out.kind is UnifyKind.MATCHER
        assert out.substitution.is_identity()

    def test_fails_on_more_general_target(self):
        assert not mgm(mk("nats", mk("scons", X, Y)), mk("nats", Z)).ok


class TestMgu:
    def test_occurs_check_failure(self):
        x1 = Var(10, "X1")
        assert not mgu(mk("p", x1, x1), mk("p", X, s_(X))).ok

    def test_proper_unifier(self):
        out = mgu(mk("nats", mk("scons", Xp, Y)), mk("nats", X))
        assert out.kind is UnifyKind.PROPER_UNIFIER
        assert out.substitution.get(X) == mk("scons", Xp, Y)

    def test_identical_ground_is_matcher(self):
        out = mgu(mk("nat", zero), mk("nat", zero))
        assert out.kind is UnifyKind.MATCHER
        assert out.substitution.is_identity()

    def test_var_var_orientation(self):
        # Younger (higher-id) variable bound to the older one.
        out = mgu(mk("p", X), mk("p", Y))
        assert out.substitution.get(Y) == X

    def test_symmetry_up_to_variant(self, rng):
        pool = var_pool(3)
        for _ in range(200):
            a = random_term(rng, 3, pool)
            b = random_term(rng, 3, pool)
            ab, ba = mgu(a, b), mgu(b, a)
            assert ab.ok == ba.ok
            if ab.ok:
                assert is_variant(
                    apply(ab.substitution, a), apply(ba.substitution, a)
                )


class TestRationalUnify:
    def test_circular_stream_answer(self):
        out = rational_unify(mk("nats", Yp), mk("nats", mk("scons", zero, Yp)))
        assert out.kind is UnifyKind.RATIONAL_UNIFIER
        assert out.substitution.get(Yp) == mk("scons", zero, Yp)

    def test_no_occurs_check(self):
        x1 = Var(10, "X1")
        out = rational_unify(mk("p", x1, x1), mk("p", X, s_(X)))
        assert out.kind is UnifyKind.RATIONAL_UNIFIER
        assert out.substitution.circular

    def test_clash_fails(self):
        assert not rational_unify(mk("f", const("a")), mk("f", const("b"))).ok

    def test_sound_at_every_depth(self, rng):
        # The two sides of a solved equation denote the same rational tree,
        # free variables included: their value-graph nodes are bisimilar.
        pool = var_pool(3)
        checked = 0
        for _ in range(300):
            a = random_term(rng, 3, pool)
            b = random_term(rng, 3, pool)
            out = rational_unify(a, b)
            if not out.ok:
                continue
            checked += 1
            substs = [out.substitution]
            assert nodes_bisimilar(build_node(a, substs), build_node(b, substs))
        assert checked > 50


class TestOccursIn:
    def test_direct(self):
        assert occurs_in(X, s_(X))

    def test_absent(self):
        assert not occurs_in(X, s_(Y))

    def test_deep(self):
        assert occurs_in(X, mk("f", mk("g", mk("f", X)), Y))


class TestCrossLaws:
    def test_mgm_success_implies_mgu_matcher(self, rng):
        pool = var_pool(3)
        hits = 0
        for _ in range(300):
            pattern = random_term(rng, 3, pool)
            target = random_term(rng, 3, [])
            out = mgm(pattern, target)
            if not out.ok:
                continue
            hits += 1
            u = mgu(pattern, target)
            assert u.kind is UnifyKind.MATCHER
            assert u.substitution == out.substitution
        assert hits > 10

    def test_mgu_success_implies_rational_equal(self, rng):
        pool = var_pool(3)
        for _ in range(300):
            a = random_term(rng, 3, pool)
            b = random_term(rng, 3, pool)
            u = mgu(a, b)
            if not u.ok:
                continue
            r = rational_unify(a, b)
            assert r.ok
            assert not r.substitution.circular
            assert apply(r.substitution, a) == apply(r.substitution, b)

    def test_computed_unifiers_idempotent(self, rng):
        pool = var_pool(3)
        for _ in range(300):
            a = random_term(rng, 3, pool)
            b = random_term(rng, 3, pool)
            u = mgu(a, b)
            if not u.ok:
                continue
            sigma = u.substitution
            t = random_term(rng, 3, pool)
            assert apply(sigma, apply(sigma, t)) == apply(sigma, t)
