"""Single-step reductions, the compound S-step, and refutation search."""

import random
from types import SimpleNamespace

import pytest

from conftest import (
    CORPUS_QUERIES,
    PROGRAMS,
    const,
    ground_term,
    load_query,
    mk,
    program_to_text,
    random_program,
    random_term,
    replay,
    seed,
    use_eager_rules,
)
from coresolve import coengine, derivation, unify
from coresolve.derivation import (
    Bindings,
    Limits,
    _SearchState,
    Status,
    StepKind,
    refute,
    rewrite_step,
    s_compound,
    sld_step,
)
from coresolve.program import parse_program, parse_query
from coresolve.terms import (
    FreshVars,
    Struct,
    Substitution,
    Var,
    apply_raw,
    is_variant,
    term_to_text,
    variables_in_order,
)

zero = const("0")


def setup(text, query):
    fresh = FreshVars()
    p = parse_program(text, fresh)
    q = tuple(parse_query(query, fresh))
    return p, q, fresh


NATS = "nat(0). nat(s(X)) :- nat(X). nats(scons(X,Y)) :- nat(X), nats(Y)."
BAD = "bad(f(X)) :- bad(f(X))."


def partial_answer(steps, k, query):
    """The query under the composition of the first k step substitutions."""
    if k > len(steps):
        raise ValueError("k exceeds the number of recorded steps")
    t = query
    for st in steps[:k]:
        t = apply_raw(st.subst, t)
    return t


def produce(p, goal, i, fresh, store):
    """The first clause's substitution-plus-rewrite at ``goal[i]``, read
    through ``store`` as the search reads it; the step pushes to it."""
    goal = goal[:i] + (store.walk(goal[i]),) + goal[i + 1 :]
    for ci in range(len(p.clauses)):
        got = s_compound(p, goal, i, ci, fresh, store)
        if got is not None:
            return got
    raise AssertionError(f"no production step at atom {i}")


class TestSldStep:
    def test_body_replaces_atom(self):
        p, g, fresh = setup(NATS, "nats(X)")
        got = sld_step(p, g, 0, 2, fresh, Bindings())
        assert got is not None
        g2, st = got
        assert len(g2) == 2
        assert g2[0].symbol.name == "nat" and g2[1].symbol.name == "nats"
        assert st.kind is StepKind.SLD

    def test_fact_closes_goal(self):
        p, g, fresh = setup(NATS, "nat(0)")
        g2, _ = sld_step(p, g, 0, 0, fresh, Bindings())
        assert g2 == ()

    def test_variant_loop_goal(self):
        p, g, fresh = setup(BAD, "bad(f(X))")
        g2, _ = sld_step(p, g, 0, 0, fresh, Bindings())
        assert len(g2) == 1 and is_variant(g2[0], g[0])

    def test_length_change_is_body_minus_one(self):
        p, g, fresh = setup(NATS, "nats(scons(0,Y))")
        g2, st = sld_step(p, g, 0, 2, fresh, Bindings())
        assert len(g2) - len(g) == len(st.clause.body) - 1


class TestRewriteStep:
    def test_matcher_applied_to_body_only(self):
        p, g, fresh = setup(NATS, "nats(scons(Xp,Y)), marker(Xp)")
        # Add a second atom by hand to watch the frame condition.
        got = rewrite_step(p, g, 0, 2, fresh, Bindings())
        assert got is not None
        g2, st = got
        assert g2[-1] == g[-1]  # untouched
        assert st.kind is StepKind.REWRITE

    def test_fails_on_more_general_atom(self):
        p, g, fresh = setup(NATS, "nats(X)")
        for ci in range(len(p.clauses)):
            assert rewrite_step(p, g, 0, ci, fresh, Bindings()) is None

    def test_self_loop(self):
        p, g, fresh = setup(BAD, "bad(f(X))")
        g2, _ = rewrite_step(p, g, 0, 0, fresh, Bindings())
        assert len(g2) == 1 and is_variant(g2[0], g[0])


class TestSubstStep:
    """The substitution half of ``s_compound``, seen through ``replay``."""

    def test_instantiates_whole_goal(self):
        p, g, fresh = setup(NATS, "nats(X), other(X)")
        got = s_compound(p, g, 0, 2, fresh, Bindings())
        assert got is not None
        g3, pair = got
        assert [st.kind for st in pair] == [StepKind.SUBST, StepKind.REWRITE]
        g2 = replay(g, pair)[1]
        assert len(g2) == len(g)
        assert g2[0].args[0].symbol.name == "scons"
        assert g2[1].args[0] == g2[0].args[0]  # lockstep instantiation
        assert [t.symbol.name for t in g3] == ["nat", "nats", "other"]

    def test_fact_instantiation(self):
        p, g, fresh = setup(NATS, "nat(Xp)")
        g3, pair = s_compound(p, g, 0, 0, fresh, Bindings())
        assert replay(g, pair)[1] == (mk("nat", zero),)
        assert g3 == ()

    def test_matcher_classified_out(self):
        p, g, fresh = setup(NATS, "nat(0)")
        assert s_compound(p, g, 0, 0, fresh, Bindings()) is None


class TestSStep:
    """S-moves as the S-mode search takes them."""

    def test_production_after_rewrites(self):
        p, g, fresh = setup(NATS, "nat(s(X))")
        result = refute(p, g, "s", Limits(), fresh)
        assert result.status is Status.REFUTED
        kinds = [st.kind for st in result.answers[0].steps]
        assert kinds == [StepKind.REWRITE, StepKind.SUBST, StepKind.REWRITE]

    def test_ground_goal_closes(self):
        p, g, fresh = setup(NATS, "nat(s(0))")
        result = refute(p, g, "s", Limits(), fresh)
        steps = result.answers[0].steps
        assert replay(g, steps)[-1] == ()
        # Rewriting consumed nat(s(0)) -> nat(0) and the fact closed the
        # goal without a substitution step.
        assert all(st.kind is StepKind.REWRITE for st in steps)

    def test_rewrite_divergence(self):
        p, g, fresh = setup(BAD, "bad(f(X))")
        result = refute(p, g, "s", Limits(max_rewrite_chain=1), fresh)
        assert result.status is Status.LIMIT_EXCEEDED
        assert result.diverged and not result.answers
        assert result.steps_used == 1


class TestRefute:
    def test_ground_nat(self):
        p, g, fresh = setup(NATS, "nat(s(s(0)))")
        for mode in ("sld", "s"):
            result = refute(p, g, mode, Limits(), fresh)
            assert result.status is Status.REFUTED

    def test_infinite_sld_hits_limit(self):
        p, g, fresh = setup(NATS, "nats(X)")
        result = refute(p, g, "sld", Limits(max_steps=50), fresh)
        assert result.status is Status.LIMIT_EXCEEDED

    def test_no_clause_fails(self):
        p, g, fresh = setup(NATS, "nat(f(0))")
        result = refute(p, g, "sld", Limits(), fresh)
        assert result.status is Status.FAILED

    def test_trace_replay_reaches_empty_goal(self):
        p, g, fresh = setup(NATS, "nat(s(s(0)))")
        result = refute(p, g, "s", Limits(), fresh)
        goals = replay(g, result.answers[0].steps)
        assert goals[0] == g and goals[-1] == ()

    def test_answer_binds_query_vars(self):
        p, g, fresh = setup(NATS, "nat(X)")
        result = refute(p, g, "sld", Limits(), fresh)
        st = result.answers[0].steps[0]
        assert st.subst.get(variables_in_order(g)[0]) == zero


class TestPartialAnswer:
    def test_zero_steps_is_query(self):
        p, g, fresh = setup(NATS, "nats(X)")
        assert partial_answer((), 0, g[0]) == g[0]

    def test_nats_prefix_grows(self):
        p, g, fresh = setup(NATS, "nats(X)")
        # Production steps at the leftmost atom; nothing here rewrites.
        steps = []
        goal, store = g, Bindings()
        for _ in range(6):
            goal, pair = produce(p, goal, 0, fresh, store)
            steps += pair
        t = partial_answer(steps, len(steps), g[0])
        assert term_to_text(t).startswith("nats(scons(0,scons(0,")

    def test_server_partial_answer(self):
        # Fair round-robin production steps: both the resource and the
        # zeros atom get to contribute, so the stream head becomes get(0).
        p, q, fresh = load_query("server", "resource(X,Y), zeros(Y)")
        goal, store = tuple(q), Bindings()
        steps = []
        for k in range(4):
            goal, pair = produce(p, goal, k % len(goal), fresh, store)
            steps += pair
        t = partial_answer(steps, len(steps), q[0])
        assert term_to_text(t).startswith("resource(cons(get(0),")

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            partial_answer((), 1, zero)


def tree_program() -> str:
    """300 edge/2 facts, last to first: a ternary tree of 300 nodes under
    ``a`` with ``b`` its last leaf, and one stray edge; plus path/2."""
    names = ["a"] + [f"n{i}" for i in range(1, 299)] + ["b"]
    facts = [f"edge({names[(i - 1) // 3]},{names[i]})." for i in range(1, 300)]
    facts.append("edge(c,d).")
    rules = "path(X,Y) :- edge(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y).\n"
    return "\n".join(reversed(facts)) + "\n" + rules


class TestClauseIndex:
    @pytest.mark.parametrize("mode,steps", [("sld", 104), ("cos", 560)])
    def test_renames_only_clauses_that_fit(self, monkeypatch, mode, steps):
        # A scan of every clause unifies all 302 heads at each selected
        # atom: about 300 head unifications per charged step in sld and 110
        # in cos, at these same step counts.
        renames = 0
        resolve = derivation.resolve_head

        def counted(c, atom, fresh, matching=False):
            nonlocal renames
            renames += 1
            return resolve(c, atom, fresh, matching)

        monkeypatch.setattr(derivation, "resolve_head", counted)
        p, q, fresh = setup(tree_program(), "path(a,b)")
        if mode == "sld":
            result = refute(p, q, "sld", Limits(), fresh)
        else:
            result = coengine.co_refute(p, q, "restricted", Limits(), fresh)
        assert result.status is Status.REFUTED
        assert result.steps_used == steps
        assert renames <= 3 * steps


def full_outcome(result):
    """Every field of a ``Result``, each step's substitution in binding
    order, each loop unifier's cycle variables and each answer's solved
    form in order included."""
    answers = [
        ([(st.kind, st.atom_index, st.clause_index, list(st.subst.items()), st.ancestor, st.atom,
           st.subst.cycle_vars() if st.kind is StepKind.LOOP else None)
          for st in a.steps], list(a.solved.items()))
        for a in result.answers
    ]
    return (answers, result.status, result.steps_used, result.diverged, result.limits_hit,
            result.loop_failures)


class TestBindings:
    def test_a_second_binding_of_a_variable_is_refused(self):
        # The store unwinds by insertion order, so a rebinding would undo
        # the wrong binding; it must fail where it happens.
        x = Var(1, "X")
        store = Bindings()
        store.push({x: zero})
        with pytest.raises(ValueError, match="rebinds"):
            store.push({x: const("1")})


class TestStoreAgainstEagerRules:
    """The search with its binding store against the same search with the
    eager rules of ``conftest``, which apply each step's bindings to the
    whole goal and push nothing: in all four modes, with and without fair
    selection, every step, answer and verdict must be the same."""

    @pytest.fixture
    def pushes(self, monkeypatch):
        counter = SimpleNamespace(n=0)
        push = derivation.Bindings.push

        def counted(store, s):
            counter.n += 1
            push(store, s)

        monkeypatch.setattr(derivation.Bindings, "push", counted)
        return counter

    @staticmethod
    def outcome(text, query, mode, limits):
        fresh = FreshVars()
        p = parse_program(text, fresh)
        q = parse_query(query, fresh)
        if mode in ("sld", "s"):
            return full_outcome(refute(p, q, mode, limits, fresh))
        return full_outcome(coengine.co_refute(p, q, mode, limits, fresh))

    def agree(self, monkeypatch, text, query, max_steps):
        for mode in ("sld", "s", "colp", "restricted"):
            for fair in (False, True):
                limits = Limits(max_steps=max_steps, max_answers=3, fair=fair)
                got = self.outcome(text, query, mode, limits)
                with monkeypatch.context() as m:
                    use_eager_rules(m)
                    want = self.outcome(text, query, mode, limits)
                assert got == want, (text, query, mode, fair)

    def test_corpus(self, monkeypatch, pushes):
        for name, query in sorted(CORPUS_QUERIES.items()):
            text = (PROGRAMS / f"{name}.lp").read_text(encoding="utf-8")
            self.agree(monkeypatch, text, query, 300)
        assert pushes.n > 1000

    def test_random_programs(self, monkeypatch, pushes):
        # 60 steps: the eager rules rebuild every atom at every step, and
        # on a program like ``p0(f(H0)) :- p0(H0),p0(H0).`` the goal's
        # shared subterms are rebuilt as trees, which takes seconds at 200.
        rnd = random.Random(seed())
        for _ in range(150):
            fresh = FreshVars()
            p, preds = random_program(rnd, fresh)
            pool = [fresh.new(f"Q{k}") for k in range(3)]
            sym = rnd.choice(preds)
            if rnd.random() < 0.2:
                atom = pool[0]  # a variable query atom
            else:
                atom = Struct(sym, tuple(random_term(rnd, 2, pool) for _ in range(sym.arity)))
            self.agree(monkeypatch, program_to_text(p), term_to_text(atom), 60)
        assert pushes.n > 1000


class TestGroundShortcut:
    @pytest.mark.parametrize("n", [200, 800])
    def test_structs_per_step_do_not_grow_with_depth(self, monkeypatch, n):
        # Each sld step on nat(s^n(0)) binds the clause variable to a ground
        # subterm of the goal.  Rebuilding that binding for mgu's solved
        # form made about n/2 Structs per charged step (105 at n = 200, 405
        # at n = 800).
        built = 0
        construct = Struct.__init__

        def counted(self, *args):
            nonlocal built
            built += 1
            construct(self, *args)

        monkeypatch.setattr(Struct, "__init__", counted)
        query = "nat(" + "s(" * n + "0" + ")" * n + ")"
        p, q, fresh = setup("nat(0). nat(s(X)) :- nat(X).", query)
        built = 0
        result = refute(p, q, "sld", Limits(), fresh)
        assert result.status is Status.REFUTED
        assert result.steps_used == n + 1
        assert built <= 8 * result.steps_used

    @pytest.mark.parametrize("n", [200, 800])
    def test_structs_per_step_on_a_deep_open_goal(self, monkeypatch, n):
        # On nat(s^n(X)) the binding is a non-ground subterm of the goal
        # that no other binding changes.  mgu's solved form rebuilt it
        # level by level: about n/2 Structs per charged step (105 at
        # n = 200, 405 at n = 800).
        built = 0
        construct = Struct.__init__

        def counted(self, *args):
            nonlocal built
            built += 1
            construct(self, *args)

        monkeypatch.setattr(Struct, "__init__", counted)
        query = "nat(" + "s(" * n + "X" + ")" * n + ")"
        p, q, fresh = setup("nat(0). nat(s(X)) :- nat(X).", query)
        built = 0
        result = refute(p, q, "sld", Limits(), fresh)
        assert result.status is Status.REFUTED
        assert result.steps_used == n + 1
        assert built <= 8 * result.steps_used

    @pytest.mark.parametrize("n", [200, 800])
    def test_unification_walks_per_step_do_not_grow_with_depth(self, monkeypatch, n):
        # Each sld step on nat(s^n(X)) binds the renamed clause variable,
        # at its first occurrence, to a subterm of the goal.  The occurs
        # check and the solved form's resolution each walked all of that
        # subterm anyway: about n nodes per charged step (206 at n = 200,
        # 806 at n = 800).  Every node they visit goes through one
        # ``_walk``; now each step makes 3 calls.
        walks = 0
        walk = unify._walk

        def counted(t, bind):
            nonlocal walks
            walks += 1
            return walk(t, bind)

        monkeypatch.setattr(unify, "_walk", counted)
        query = "nat(" + "s(" * n + "X" + ")" * n + ")"
        p, q, fresh = setup("nat(0). nat(s(X)) :- nat(X).", query)
        result = refute(p, q, "sld", Limits(), fresh)
        assert result.status is Status.REFUTED
        assert result.steps_used == n + 1
        assert walks <= 8 * result.steps_used

    @pytest.mark.parametrize("mode", ["sld", "s"])
    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_built_atoms_are_not_walked_again(self, monkeypatch, mode, n):
        # q(Z) binds Z, so every later atom is selected with a bound store.
        # Only nat(s^n(X)) was built before that binding; each atom after
        # it is built by the move into its goal and is already current.
        # Walking every selected atom made n + 1 store walks, each a copy
        # of the atom: quadratic in n.
        walks = 0
        resolve = derivation._resolve_full

        def counted(t, bind):
            nonlocal walks
            walks += 1
            return resolve(t, bind)

        monkeypatch.setattr(derivation, "_resolve_full", counted)
        query = "q(Z), nat(" + "s(" * n + "X" + ")" * n + ")"
        p, q, fresh = setup("q(a). nat(0). nat(s(X)) :- nat(X).", query)
        result = refute(p, q, mode, Limits(max_rewrite_chain=2 * n), fresh)
        assert result.status is Status.REFUTED
        assert walks == 1


def first_steps_of_moves(steps):
    """The position of each move's first step: a substitution step and the
    rewrite after it are one move, every other step is a move of its own."""
    out, k = [], 0
    while k < len(steps):
        out.append(k)
        k += 2 if steps[k].kind is StepKind.SUBST else 1
    return out


class TestFairSelection:
    """With ``Limits(fair=True)`` the search selects, at a goal reached by
    ``moves`` moves, the atom at index ``moves % len(goal)``; without it,
    always the first."""

    def selections(self, mode, fair):
        query = "nat(s(s(X))), nats(Y)" if mode == "cos" else "nat(s(s(X))), nat(s(Y))"
        p, q, fresh = setup(NATS, query)
        limits = Limits(fair=fair)
        if mode == "cos":
            result = coengine.co_refute(p, q, "restricted", limits, fresh)
            (answer,) = result.answers
            entries = coengine.co_replay(coengine.annotate(q), answer.steps, "restricted")
            goals = [tuple(e.atom for e in g) for g in entries]
        else:
            result = refute(p, q, mode, limits, fresh)
            (answer,) = result.answers
            goals = replay(q, answer.steps)
        steps = answer.steps
        return [
            (steps[k].atom_index, moves % len(goals[k]))
            for moves, k in enumerate(first_steps_of_moves(steps))
        ]

    @pytest.mark.parametrize("mode", ["sld", "s", "cos"])
    def test_atom_index_follows_the_move_count(self, mode):
        pairs = self.selections(mode, fair=True)
        assert all(got == want for got, want in pairs), pairs
        # The second atom is selected at some move, so the rule is seen.
        assert any(got for got, _ in pairs)

    @pytest.mark.parametrize("mode", ["sld", "s", "cos"])
    def test_first_atom_without_fair(self, mode):
        assert all(got == 0 for got, _ in self.selections(mode, fair=False))


class TestChargeEach:
    def test_same_as_that_many_single_charges(self):
        # The reference stops at the first charge(1) that fails, as the
        # loop check did per candidate: steps_used ends at max_steps + 1.
        rnd = random.Random(seed())
        crossed = 0
        for _ in range(3000):
            max_steps = rnd.randint(0, 30)
            spent, n = rnd.randint(0, max_steps + 3), rnd.randint(0, 40)
            bulk, single = (_SearchState(Limits(max_steps=max_steps), True) for _ in range(2))
            bulk.steps_used = single.steps_used = spent
            want = all(single.charge(1) for _ in range(n))
            got = bulk.charge_each(n)
            assert (got, bulk.steps_used, bulk.limits_hit) == (
                want, single.steps_used, single.limits_hit
            ), (max_steps, spent, n)
            crossed += spent < max_steps < spent + n - 1
        assert crossed > 100


class TestGroundSldStep:
    def test_matching_gives_what_unifying_gives(self):
        # sld_step reads a ground atom through the matching path: the same
        # substitution, in the same order, the same body and the same ids.
        rnd = random.Random(seed())
        fitted = 0
        for _ in range(300):
            p, _ = random_program(rnd, FreshVars())
            # A ground instance of one head, so that some clauses fit.
            head = rnd.choice(p.clauses).head
            atom = apply_raw(Substitution({v: ground_term(rnd, 2) for v in variables_in_order([head])}), head)
            for c in p.clauses:
                a = unify.resolve_head(c, atom, FreshVars(100))
                b = unify.resolve_head(c, atom, FreshVars(100), matching=True)
                assert (a is None) == (b is None)
                if a is not None:
                    fitted += 1
                    assert a.kind is b.kind is unify.UnifyKind.MATCHER
                    assert list(a.substitution.items()) == list(b.substitution.items())
                    assert (a.body, a.renaming) == (b.body, b.renaming)
        assert fitted > 300

    @pytest.mark.parametrize("mode", ["s", "cos"])
    def test_no_production_attempt_on_a_ground_atom(self, mode):
        p, q, fresh = load_query("nat", "nat(s(s(0)))")
        compound = s_compound if mode == "s" else coengine.co_s_compound
        goal = q if mode == "s" else coengine.annotate(q)
        before = fresh.new().id
        assert compound(p, goal, 0, 1, fresh, Bindings()) is None
        assert fresh.new().id == before + 1  # no ids drawn
