"""Value graphs for rational trees: bisimulation and solved answers."""

import pytest

from conftest import (
    const, counting_lines, grows_at_most, mk, random_term, scanning_build_node, values_bisimilar,
    var_pool,
)
from coresolve import rational
from coresolve.decirc import unfold
from coresolve.rational import solved_answer
from coresolve.terms import FreshVars, Substitution, Var, term_to_text
from coresolve.unify import UnifyKind, mgu, rational_unify

X, Y, Z = Var(1, "X"), Var(2, "Y"), Var(3, "Z")
zero = const("0")


def s_(t):
    return mk("s", t)


def rational_equal(s, t, substs=()):
    return values_bisimilar((s, substs), (t, substs))


class TestBisimulation:
    def test_same_circular_value_different_bindings(self):
        # X = s(X) and Y = s(s(Y)) denote the same rational tree.
        sx = Substitution({X: s_(X)})
        syy = Substitution({Y: s_(s_(Y))})
        assert values_bisimilar((X, [sx]), (Y, [syy]))

    def test_different_values_distinguished(self):
        sx = Substitution({X: s_(X)})
        sy = Substitution({Y: mk("f", Y)})
        assert not values_bisimilar((X, [sx]), (Y, [sy]))

    def test_rational_equal_on_finite_terms(self):
        assert rational_equal(s_(zero), s_(zero))
        assert not rational_equal(s_(zero), s_(s_(zero)))

    def test_free_variables_by_identity(self):
        assert rational_equal(mk("p", X, X), mk("p", X, X))
        assert not rational_equal(mk("p", X, X), mk("p", X, Y))


class TestIndexedBuild:
    """``build_node`` finds a variable's binding level in an index; its
    graph must be the scanning build's, node for node."""

    def test_same_graph_as_the_scanning_build(self, rng):
        pool = var_pool(6)
        cycles = multi_level = 0
        for _ in range(4000):
            substs = []
            for _ in range(rng.randint(1, 4)):
                bind = {v: random_term(rng, 2, pool) for v in pool if rng.random() < 0.35}
                if rng.random() < 0.3:
                    # A variable-to-variable cycle, or a chain into one.
                    ring = rng.sample(pool, rng.randint(2, 4))
                    bind.update(zip(ring, ring[1:] + ring[:1]))
                    cycles += 1
                substs.append(Substitution(bind))
            multi_level += any(sum(v in s for s in substs) > 1 for v in pool)
            terms = [random_term(rng, 3, pool) for _ in range(rng.randint(1, 3))]
            assert rational.build_node(terms, substs) == scanning_build_node(terms, substs)
        assert cycles > 500 and multi_level > 1000


class TestSolvedAnswer:
    def test_single_circular_query_var(self):
        seq = [Substitution({X: mk("scons", Y, X)}), Substitution({Y: zero})]
        solved = solved_answer([X, Y], seq)
        assert solved.get(X) == mk("scons", zero, X)
        assert solved.get(Y) == zero

    def test_reuses_query_variable_names(self):
        # The free variable Z is not a query variable: a fresh _A stands for it.
        theta = Substitution({X: mk("f", X, Y, Z), Y: s_(Y)})
        solved = solved_answer([X, Y], [theta])
        free = solved.get(X).args[2]
        assert solved.get(X) == mk("f", X, Y, free)
        assert free not in (X, Y, Z) and free.display == "_A" and free not in solved
        assert solved.get(Y) == s_(Y)

    def test_plain_variable_aliasing(self):
        solved = solved_answer([X, Y], [Substitution({Y: X})])
        assert solved.get(Y) == X
        assert solved.get(X) is None

    def test_pure_variable_cycle_keeps_its_aliasing(self):
        # The cycle has no structure: it is one free variable, its oldest,
        # and the younger ones are bound to it, as mgu binds them.
        solved = solved_answer([X, Y], [Substitution({X: Y, Y: X})])
        assert solved == Substitution({Y: X}) == mgu(X, Y).substitution
        # Its oldest is X, no query variable: both are bound to one fresh one.
        solved = solved_answer([Y, Z], [Substitution({X: Z, Z: Y, Y: X})])
        free = solved.get(Y)
        assert isinstance(free, Var) and free not in (X, Y, Z) and free.display == "_A"
        assert solved == Substitution({Y: free, Z: free})

    def test_non_circular_sequence_collapses(self):
        seq = [Substitution({X: s_(Y)}), Substitution({Y: zero})]
        solved = solved_answer([X], seq)
        assert solved.get(X) == s_(zero)
        assert not solved.circular

    def test_later_copy_of_a_bound_query_variable_is_renamed(self):
        # Y advances to the second substitution, where X is free again: the
        # value is f(X') with X' free, not the circular f(f(...)).
        seq = [Substitution({X: mk("f", Y)}), Substitution({Y: X})]
        solved = solved_answer([X], seq)
        leaf = solved.get(X).args[0]
        assert isinstance(leaf, Var) and leaf not in (X, Y)
        assert not solved.circular
        assert unfold(solved, X, 3) == mk("f", leaf)
        # A query variable whose value is that copy is bound to it.
        solved = solved_answer([X, Y], seq)
        assert solved.get(Y) == solved.get(X).args[0]
        assert solved.get(Y) not in (X, Y)


class TestOnePass:
    def test_solved_answer_walks_its_graph_once(self, monkeypatch):
        # It walked the graph three times: in minimize, to collect the
        # edges between blocks, and to pick one node per block.  The graph
        # is now built once, with only the nodes reachable from the query
        # variables, and minimized once, on its arrays.
        calls = {"build_node": 0, "minimize": 0}
        sizes = []
        build, minimize = rational.build_node, rational.minimize

        def counted_build(terms, substs):
            calls["build_node"] += 1
            return build(terms, substs)

        def counted_minimize(labels, kids):
            calls["minimize"] += 1
            sizes.append(len(labels))
            return minimize(labels, kids)

        monkeypatch.setattr(rational, "build_node", counted_build)
        monkeypatch.setattr(rational, "minimize", counted_minimize)
        W = Var(4, "W")
        theta = Substitution({X: mk("f", X, Y, Z), Y: s_(Y), W: s_(zero)})
        solved = solved_answer([X, Y], [theta])
        assert solved.get(X) == mk("f", X, Y, solved.get(X).args[2])
        assert calls == {"build_node": 1, "minimize": 1}
        # X's value, Y's value and the free leaf Z; W's value is not built.
        assert sizes == [3]

    def test_deep_finite_answer(self):
        # Deeper than the interpreter's recursion allows; the finite part
        # of the graph takes one bottom-up pass, not one round per level.
        n = 10_000
        t = zero
        for _ in range(n):
            t = s_(t)
        solved = solved_answer([X], [Substitution({X: Y}), Substitution({Y: t})])
        assert term_to_text(solved.get(X)) == "s(" * n + "0" + ")" * n

    def test_deep_circular_answer(self):
        # X = s^n(X) is the same rational tree as X = s(X).
        t = X
        for _ in range(2_000):
            t = s_(t)
        solved = solved_answer([X], [Substitution({X: t})])
        assert solved.get(X) == s_(X)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="minimize refines the nodes above a cycle in Moore rounds, one per "
               "level of distinguishing depth (ROADMAP item 9)",
    )
    def test_minimize_is_linear_in_the_cycle_length(self):
        # X = s^n(g(X)) is a cycle of n + 1 distinct nodes: minimize ran
        # 5,715 / 21,415 / 82,815 / 325,615 lines at n = 50 / 100 / 200 / 400.
        lines = []
        for n in (50, 100, 200, 400):
            t = mk("g", X)
            for _ in range(n):
                t = s_(t)
            with counting_lines(rational.minimize.__code__) as counted:
                solved = solved_answer([X], [Substitution({X: t})])
            if not values_bisimilar((X, [solved]), (X, [Substitution({X: t})])):
                pytest.fail(f"a wrong solved form at n = {n}")
            lines.append(counted.n)
        assert grows_at_most(lines, 2.2), lines


def recomputed_cycle_vars(s: Substitution) -> frozenset:
    """The cycle variables found afresh from the bindings alone."""
    return Substitution(dict(s.items())).cycle_vars()


class TestCarriedCycleSets:
    """Rational unification and solved-form answers hand the cycle
    variables they found to the substitution they build; the set must be
    the one the bindings themselves give."""

    def test_rational_unifiers(self, rng):
        pool = var_pool(3)
        cases = circular = 0
        while cases < 600:
            a = random_term(rng, 4, pool)
            b = random_term(rng, 4, pool)
            out = rational_unify(a, b)
            if not out.ok:
                continue
            cases += 1
            sigma = out.substitution
            assert sigma.cycle_vars() == recomputed_cycle_vars(sigma), (a, b)
            circular += out.kind is UnifyKind.RATIONAL_UNIFIER
        assert circular > 100

    def test_solved_answers(self, rng):
        pool = var_pool(4)
        circular = 0
        for _ in range(600):
            # Variable-to-variable bindings make aliases and pure cycles.
            seq = [
                Substitution({
                    v: rng.choice(pool) if rng.random() < 0.3 else random_term(rng, 2, pool)
                    for v in pool
                    if rng.random() < 0.6
                })
                for _ in range(rng.randint(1, 3))
            ]
            query = [v for v in pool if rng.random() < 0.7] or pool[:1]
            solved = solved_answer(query, seq, FreshVars(10**6))
            assert solved.cycle_vars() == recomputed_cycle_vars(solved), (query, seq)
            circular += solved.circular
        assert circular > 100
