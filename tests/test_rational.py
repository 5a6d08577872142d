"""Value graphs for rational trees: bisimulation and solved answers."""

from conftest import const, mk, nodes_bisimilar
from coresolve import rational
from coresolve.decirc import unfold
from coresolve.rational import build_node, solved_answer
from coresolve.terms import Substitution, Var, term_to_text

X, Y, Z = Var(1, "X"), Var(2, "Y"), Var(3, "Z")
zero = const("0")


def s_(t):
    return mk("s", t)


def rational_equal(s, t, substs=()):
    return nodes_bisimilar(build_node(s, substs), build_node(t, substs))


class TestBisimulation:
    def test_same_circular_value_different_bindings(self):
        # X = s(X) and Y = s(s(Y)) denote the same rational tree.
        sx = Substitution({X: s_(X)})
        syy = Substitution({Y: s_(s_(Y))})
        a = build_node(X, [sx])
        b = build_node(Y, [syy])
        assert nodes_bisimilar(a, b)

    def test_different_values_distinguished(self):
        sx = Substitution({X: s_(X)})
        sy = Substitution({Y: mk("f", Y)})
        assert not nodes_bisimilar(build_node(X, [sx]), build_node(Y, [sy]))

    def test_rational_equal_on_finite_terms(self):
        assert rational_equal(s_(zero), s_(zero))
        assert not rational_equal(s_(zero), s_(s_(zero)))

    def test_free_variables_by_identity(self):
        assert rational_equal(mk("p", X, X), mk("p", X, X))
        assert not rational_equal(mk("p", X, X), mk("p", X, Y))


class TestSolvedAnswer:
    def test_single_circular_query_var(self):
        seq = [Substitution({X: mk("scons", Y, X)}), Substitution({Y: zero})]
        solved = solved_answer([X, Y], seq)
        assert solved.get(X) == mk("scons", zero, X)
        assert solved.get(Y) == zero

    def test_reuses_query_variable_names(self):
        theta = Substitution({X: mk("f", X, Y, Z), Y: s_(Y)})
        solved = solved_answer([X, Y], [theta])
        assert solved.get(X) == mk("f", X, Y, Z)
        assert solved.get(Y) == s_(Y)

    def test_plain_variable_aliasing(self):
        solved = solved_answer([X, Y], [Substitution({Y: X})])
        assert solved.get(Y) == X
        assert solved.get(X) is None

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
        # edges between blocks, and to pick one node per block.
        calls = 0
        walk = rational.reachable

        def counted(roots):
            nonlocal calls
            calls += 1
            return walk(roots)

        monkeypatch.setattr(rational, "reachable", counted)
        theta = Substitution({X: mk("f", X, Y, Z), Y: s_(Y)})
        solved = solved_answer([X, Y], [theta])
        assert solved.get(X) == mk("f", X, Y, Z)
        assert calls == 1

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
