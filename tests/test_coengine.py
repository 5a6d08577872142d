"""Co-S-resolution: ancestor bookkeeping, loop detection in both modes,
and the full search."""

import random
import sys
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis import seed as hypothesis_seed

from conftest import (
    CONSTS,
    CORPUS_QUERIES,
    FUNCS,
    PROGRAMS,
    ground_term,
    load_query,
    mk,
    per_candidate_loop_moves,
    random_program,
    random_term,
    seed,
    var_pool,
)
from coresolve import coengine, unify
from coresolve.coengine import (
    Entry,
    LoopFailReason,
    LoopFailure,
    annotate,
    co_refute,
    co_replay,
    co_rewrite,
    co_s_compound,
    colp_loop,
    preflight_warnings,
    restricted_loop,
)
from coresolve.derivation import Bindings, Limits, Status, StepKind, _SearchState
from coresolve.program import parse_program, parse_query
from coresolve.terms import (
    FreshVars,
    Struct,
    Substitution,
    Var,
    apply_raw,
    is_instance,
    is_variant,
    term_to_text,
)
from coresolve.unify import _rational_solve, rational_unify


def setup(text, query):
    fresh = FreshVars()
    p = parse_program(text, fresh)
    q = parse_query(query, fresh)
    return p, annotate(q), fresh


def answers_text(result):
    return [
        {v.display: term_to_text(t) for v, t in a.solved.items()}
        for a in result.answers
    ]


class TestCoRewrite:
    def test_body_inherits_grown_ancestors(self):
        p, g, fresh = setup("r(f(A,B,C),s(B)) :- r(A,B).", "r(f(A1,B1,C1),s(B1))")
        got = co_rewrite(p, g, 0, 0, fresh, Bindings())
        assert got is not None
        g2, st = got
        assert len(g2) == 1
        assert g2[0].ancestors == (g[0].atom,)
        assert is_variant(g2[0].atom, mk("r", Var(90, "A"), Var(91, "B")))

    def test_fact_use_empties_entry(self):
        p, g, fresh = setup("nat(0).", "nat(0)")
        g2, _ = co_rewrite(p, g, 0, 0, fresh, Bindings())
        assert g2 == ()

    def test_rest_of_goal_untouched(self):
        p, g, fresh = setup(
            "p(s(X1),X2,Y1,Y2) :- q(X2,X2,Y1,Y2). q(X1,X2,s(Y1),Y2) :- p(X1,X2,Y2,Y2).",
            "p(s(X),s(Y),s(Z),s(W)), other(X)",
        )
        got = co_rewrite(p, g, 0, 0, fresh, Bindings())
        assert got is not None
        g2, _ = got
        assert g2[0].atom.symbol.name == "q"
        assert g2[1] == g[1]


class TestCoSubst:
    """The substitution half of ``co_s_compound``."""

    def test_ancestors_instantiated_in_lockstep(self):
        p, g, fresh = setup("p(X,s(X)) :- q(X). q(s(X)) :- p(X,X).", "q(X)")
        # Give the entry an ancestor mentioning X, as rewriting would.
        x = g[0].atom.args[0]
        g = (Entry(g[0].atom, (mk("p", x, mk("s", x)),)),)
        store = Bindings()
        got = co_s_compound(p, g, 0, 1, fresh, store)
        assert got is not None
        g3, (st, _) = got
        assert st.kind is StepKind.SUBST
        img = st.subst.get(x)
        assert img is not None and img.symbol.name == "s"
        assert store.map == dict(st.subst.items())  # pushed, not applied
        g2 = co_replay(g, [st], "restricted")[1]
        # The ancestor saw the same substitution as the atom.
        assert g2[0].ancestors[0].args[0] == img
        # The body entry inherits both, atom last, read through the store.
        assert tuple(map(store.walk, g3[0].ancestors)) == g2[0].ancestors + (g2[0].atom,)

    def test_matcher_classified_out(self):
        p, g, fresh = setup("nat(0).", "nat(0)")
        assert co_s_compound(p, g, 0, 0, fresh, Bindings()) is None


class TestColpLoop:
    def test_circular_unifier_closes_goal(self):
        p, g, fresh = setup("x(0).", "nats(Yp)")
        from coresolve.coengine import Entry

        yp = g[0].atom.args[0]
        ancestor = mk("nats", mk("scons", mk("0"), yp))
        g = (Entry(g[0].atom, (ancestor,)),)
        got = colp_loop(g, 0, ancestor, Bindings(), {})
        assert got is not None
        rest, theta = got
        assert rest == ()
        assert theta.get(yp) == mk("scons", mk("0"), yp)
        assert theta.circular

    def test_clash_fails(self):
        from coresolve.coengine import Entry

        atom = mk("p", mk("a"))
        ancestor = mk("p", mk("b"))
        g = (Entry(atom, (ancestor,)),)
        assert colp_loop(g, 0, ancestor, Bindings(), {}) is None


class TestRestrictedLoop:
    def test_accepts_instance_with_circular_unifier(self):
        from coresolve.coengine import Entry

        a1, b1, c1 = Var(1, "A1"), Var(2, "B1"), Var(3, "C1")
        atom = mk("r", a1, b1)
        ancestor = mk("r", mk("f", a1, b1, c1), mk("s", b1))
        g = (Entry(atom, (ancestor,)),)
        got = restricted_loop(g, 0, ancestor, {})
        assert not isinstance(got, LoopFailure)
        rest, theta = got
        assert rest == ()
        assert theta.get(a1) == mk("f", a1, b1, c1)
        assert theta.get(b1) == mk("s", b1)

    def test_rejects_non_instance(self):
        from coresolve.coengine import Entry

        x1 = Var(1, "X1")
        atom = mk("p", x1, x1)
        ancestor = mk("p", mk("s", x1), mk("s", mk("s", x1)))
        g = (Entry(atom, (ancestor,)),)
        got = restricted_loop(g, 0, ancestor, {})
        assert isinstance(got, LoopFailure)
        assert got.reason is LoopFailReason.NOT_AN_INSTANCE

    def test_rejects_trivial_unifier(self):
        from coresolve.coengine import Entry

        x, y = Var(1, "X"), Var(2, "Y")
        atom = mk("q", x, y)
        ancestor = mk("q", x, y)
        g = (Entry(atom, (ancestor,)),)
        got = restricted_loop(g, 0, ancestor, {})
        assert isinstance(got, LoopFailure)
        assert got.reason is LoopFailReason.TRIVIAL_UNIFIER

    def test_theta_not_applied_to_rest(self):
        from coresolve.coengine import Entry

        a1, b1, c1 = Var(1, "A1"), Var(2, "B1"), Var(3, "C1")
        atom = mk("r", a1, b1)
        ancestor = mk("r", mk("f", a1, b1, c1), mk("s", b1))
        other = Entry(mk("w", a1), ())
        g = (Entry(atom, (ancestor,)), other)
        got = restricted_loop(g, 0, ancestor, {})
        rest, _ = got
        assert rest == (other,)  # untouched, per the displayed rule


class TestCoRefute:
    def test_nats_circular_answer(self):
        p, q, fresh = load_query("nats", "nats(X)")
        result = co_refute(p, q, "restricted", Limits(), fresh)
        assert result.status is Status.REFUTED
        assert answers_text(result) == [{"X": "scons(0,X)"}]

    def test_ex51_colp_succeeds_restricted_fails(self):
        p, q, fresh = load_query("ex51", "p(X,s(X))")
        colp = co_refute(p, q, "colp", Limits(), fresh)
        assert colp.status is Status.REFUTED
        assert answers_text(colp) == [{"X": "s(X)"}]
        p, q, fresh = load_query("ex51", "p(X,s(X))")
        restricted = co_refute(p, q, "restricted", Limits(), fresh)
        assert restricted.status is Status.FAILED
        reasons = {f.reason for f in restricted.loop_failures}
        assert LoopFailReason.NOT_AN_INSTANCE in reasons

    def test_r_program_restricted_answer(self):
        p, q, fresh = load_query("r", "r(X,Y)")
        result = co_refute(p, q, "restricted", Limits(), fresh)
        assert result.status is Status.REFUTED
        (answer,) = result.answers
        assert [st.kind for st in answer.steps].count(StepKind.LOOP) == 1
        text = {v.display: term_to_text(t) for v, t in answer.solved.items()}
        # The clause variable C is a free variable of the answer: _A.
        assert text == {"X": "f(X,Y,_A)", "Y": "s(Y)"}

    def test_trace_replay_and_ancestor_discipline(self):
        p, q, fresh = load_query("server", "resource(X,Y), zeros(Y)")
        result = co_refute(p, q, "restricted", Limits(), fresh)
        answer = result.answers[0]
        goals = co_replay(annotate(q), answer.steps, "restricted")
        assert goals[-1] == ()
        # Every ancestor entered the list as the selected atom of an
        # earlier rewriting step on that entry's chain.
        for k, st in enumerate(answer.steps):
            if st.kind is StepKind.REWRITE:
                entry = goals[k][st.atom_index]
                replayed = goals[k + 1]
                for e in replayed:
                    if e.ancestors and e.ancestors[-1] == entry.atom:
                        assert e.ancestors[: len(entry.ancestors)] == entry.ancestors

    def test_mode_refinement(self):
        # Wherever the restricted rule fires, the colp rule fires too.
        from coresolve.coengine import Entry

        cases = [
            (mk("r", Var(1, "A"), Var(2, "B")),
             mk("r", mk("f", Var(1, "A"), Var(2, "B"), Var(3, "C")), mk("s", Var(2, "B")))),
            (mk("nats", Var(4, "Y")), mk("nats", mk("scons", mk("0"), Var(4, "Y")))),
        ]
        for atom, ancestor in cases:
            g = (Entry(atom, (ancestor,)),)
            restricted = restricted_loop(g, 0, ancestor, {})
            if not isinstance(restricted, LoopFailure):
                assert colp_loop(g, 0, ancestor, Bindings(), {}) is not None

    def test_preflight_warnings(self):
        p, q, _ = load_query("fibs", "fibs(0,s(0),F)")
        warnings = preflight_warnings(p)
        assert any("universal" in w for w in warnings)
        p, q, _ = load_query("bad", "bad(f(X))")
        warnings = preflight_warnings(p)
        assert any("rewriting loop" in w for w in warnings)
        p, q, _ = load_query("nats", "nats(X)")
        assert preflight_warnings(p) == []


def _rebuilt(t):
    """A structurally equal copy of ``t`` that shares no Struct object."""
    if isinstance(t, Var):
        return t
    return Struct(t.symbol, tuple(_rebuilt(a) for a in t.args))


def _one_entry(atom, ancestor):
    return (Entry(atom, (ancestor,)),)


class TestLoopFilters:
    """The facts that let co_refute drop loop candidates before solving."""

    def test_instance_implies_rational_unifier(self, rng):
        # Matching binds each atom variable once, so the loop equations
        # reduce to one binding per variable: they cannot clash.
        pool = var_pool(4)
        checked = 0
        for _ in range(2000):
            atom = random_term(rng, 3, pool)
            if rng.random() < 0.5:
                sigma = Substitution(
                    {v: random_term(rng, 2, pool) for v in pool if rng.random() < 0.6}
                )
                ancestor = apply_raw(sigma, atom)
            else:
                ancestor = random_term(rng, 3, pool)
            if is_instance(atom, ancestor):
                checked += 1
                assert not isinstance(_rational_solve(atom, ancestor), str)
        assert checked >= 500

    def test_restricted_never_closes_on_ground_atom(self, rng):
        pool = var_pool(3)
        for _ in range(500):
            atom = random_term(rng, 3, [])
            ancestor = rng.choice(
                [atom, _rebuilt(atom), random_term(rng, 3, []), random_term(rng, 3, pool)]
            )
            got = restricted_loop(_one_entry(atom, ancestor), 0, ancestor, {})
            assert isinstance(got, LoopFailure)

    def test_colp_on_ground_pair_closes_iff_equal(self, rng):
        closed = 0
        for _ in range(500):
            atom = random_term(rng, 2, [])
            ancestor = _rebuilt(atom) if rng.random() < 0.3 else random_term(rng, 2, [])
            got = colp_loop(_one_entry(atom, ancestor), 0, ancestor, Bindings(), {})
            assert (got is not None) == (atom == ancestor)
            closed += got is not None
        assert 0 < closed < 500

    def test_symbol_mismatch_never_closes(self, rng):
        pool = var_pool(3)
        checked = 0
        for _ in range(1000):
            atom = random_term(rng, 3, pool)
            ancestor = random_term(rng, 3, pool)
            if not (isinstance(atom, Struct) and isinstance(ancestor, Struct)):
                continue
            if atom.symbol == ancestor.symbol:
                continue
            checked += 1
            g = _one_entry(atom, ancestor)
            assert colp_loop(g, 0, ancestor, Bindings(), {}) is None
            assert isinstance(restricted_loop(g, 0, ancestor, {}), LoopFailure)
        assert checked >= 200


class TestLoopRuleCost:
    def test_struct_comparisons_do_not_grow_with_ancestors(self, monkeypatch):
        # _loop_moves hands each rule an ancestor from the entry's own list,
        # so neither rule scans the list to check it.
        eq = Struct.__eq__
        calls = 0

        def counting_eq(self, other):
            nonlocal calls
            calls += 1
            return eq(self, other)

        monkeypatch.setattr(Struct, "__eq__", counting_eq)
        y = Var(1, "Y")
        atom = mk("nats", y)
        candidate = mk("nats", mk("scons", mk("0"), y))
        costs = {}
        for n in (10, 10_000):
            others = tuple(mk("nats", mk(f"c{i}")) for i in range(n - 1))
            g = (Entry(atom, others + (candidate,)),)
            for name, rule in (("colp_loop", partial(colp_loop, store=Bindings(), memo={})),
                               ("restricted_loop", partial(restricted_loop, memo={}))):
                calls = 0
                got = rule(g, 0, candidate)
                assert not isinstance(got, LoopFailure) and got is not None
                costs[name, n] = calls
        for name in ("colp_loop", "restricted_loop"):
            assert costs[name, 10_000] == costs[name, 10]


STREAMS = [("nats", "nats(X)"), ("server", "resource(X,Y)"), ("r", "r(X,Y)")]


class TestLoopUnifierMemo:
    """A search unifies each loop shape once: a later pair of the shape,
    up to a renaming that keeps the age order of its variables, gets the
    stored unifier with its own variables put in."""

    @pytest.fixture
    def solves(self, monkeypatch):
        # Counts rational solves through every module global that refers
        # to ``unify._rational_solve``, however it was imported.
        counter = SimpleNamespace(n=0)
        original = unify._rational_solve

        def counted(a, b):
            counter.n += 1
            return original(a, b)

        for name, module in list(sys.modules.items()):
            if name == "coresolve" or name.startswith("coresolve."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counted)
        return counter

    @pytest.mark.parametrize("mode", ["colp", "restricted"])
    @pytest.mark.parametrize("name,query", STREAMS)
    def test_a_stream_solves_few_loop_pairs(self, solves, name, query, mode):
        # One solve per answer without the memo: 20 / 40 / 60.
        counts = []
        for k in (20, 40, 60):
            p, q, fresh = load_query(name, query)
            solves.n = 0
            result = co_refute(p, q, mode, Limits(max_answers=k), fresh)
            assert len(result.answers) == k
            counts.append(solves.n)
        assert counts[-1] <= 10, counts
        assert all(n <= k / 4 + 5 for n, k in zip(counts, (20, 40, 60))), counts

    @pytest.mark.parametrize("shape", [
        lambda x, y: mk("p", y, x),  # X and Y are one class
        lambda x, y: mk("p", mk("f", y), x),  # X = f(X)
    ], ids=["swapped", "circular"])
    def test_renamings_of_other_age_order_get_their_own_unifier(self, solves, shape):
        # A class is named after its oldest variable, so the pairs with X
        # older and with Y older have different unifiers.  Each pair must
        # get what a fresh rational_unify gives, named by its own variables
        # (their hints show in --trace text, which prints the repr).
        memo = {}
        for x_id, y_id in ((1, 2), (4, 3), (5, 6), (8, 7)):
            x, y = Var(x_id, f"X{x_id}"), Var(y_id, f"Y{y_id}")
            atom, ancestor = mk("p", x, y), shape(x, y)
            want = rational_unify(atom, ancestor)
            solves.n = 0
            got = coengine._loop_unifier(memo, atom, ancestor)
            assert solves.n == (x_id < 5)  # the last two pairs are hits
            assert got.kind is want.kind
            assert list(got.substitution.items()) == list(want.substitution.items())
            assert got.substitution.cycle_vars() == want.substitution.cycle_vars()
            assert repr(got.substitution) == repr(want.substitution)
        assert len(memo) == 2

    def test_loop_rules_agree_with_fresh_unification_on_hits(self):
        # The same, through both loop rules, on the circular shape.
        memo = {}
        for x_id, y_id in ((1, 2), (4, 3), (5, 6), (8, 7)):
            x, y = Var(x_id, f"X{x_id}"), Var(y_id, f"Y{y_id}")
            atom, ancestor = mk("p", x, y), mk("p", mk("f", y), x)
            g = (Entry(atom, (ancestor,)),)
            want = rational_unify(atom, ancestor).substitution
            for rule in (partial(colp_loop, store=Bindings()), restricted_loop):
                rest, theta = rule(g, 0, ancestor, memo=memo)
                assert rest == ()
                assert repr(theta) == repr(want) and theta.cycle_vars() == want.cycle_vars()


# Loop pair sides over a small signature, as shapes: a variable is its
# rank in age order among the three the sides share, a term a tuple.
SHAPES = st.recursive(
    st.sampled_from([("c0",), ("c1",)]) | st.integers(0, 2),
    lambda kids: st.tuples(st.just("f"), kids) | st.tuples(st.just("g"), kids, kids),
    max_leaves=6,
)


def _pool_term(shape, pool):
    if isinstance(shape, int):
        return pool[shape]
    return mk(shape[0], *(_pool_term(k, pool) for k in shape[1:]))


@hypothesis_seed(seed())
@settings(database=None, deadline=None, max_examples=150)
@given(
    sides=st.tuples(SHAPES, SHAPES, SHAPES, SHAPES),
    ids=st.lists(st.integers(4, 99), min_size=3, max_size=3, unique=True),
)
def test_memo_gives_every_pair_a_fresh_unifier(sides, ids):
    # Every pair colp tries goes through the memo, instance or not, so a
    # pair, its renaming that keeps the age order of its variables (a hit)
    # and one that may not must each get what a fresh rational_unify gives.
    memo = {}
    for order in (range(1, 4), sorted(ids), ids):
        pool = [Var(i, f"V{i}") for i in order]
        atom, ancestor = (mk("p", *(_pool_term(shape, pool) for shape in pair))
                          for pair in (sides[:2], sides[2:]))
        want = rational_unify(atom, ancestor)
        got = coengine._loop_unifier(memo, atom, ancestor)
        assert (got.kind, got.reason) == (want.kind, want.reason)
        if want.ok:
            assert list(got.substitution.items()) == list(want.substitution.items())
            assert got.substitution.cycle_vars() == want.substitution.cycle_vars()


def nat_term(n):
    return "s(" * n + "0" + ")" * n


class TestSameBehaviour:
    """The search records loop steps without replaying the derivation, and
    drops loop candidates through cheap filters; neither may show."""

    def test_corpus_queries_cover_every_program(self):
        assert set(CORPUS_QUERIES) == {p.stem for p in PROGRAMS.glob("*.lp")}

    @pytest.mark.parametrize("mode", ["colp", "restricted"])
    @pytest.mark.parametrize("name", sorted(CORPUS_QUERIES))
    def test_loop_uses_match_replay(self, name, mode):
        p, q, fresh = load_query(name, CORPUS_QUERIES[name])
        limits = Limits(max_answers=5, max_steps=500)
        result = co_refute(p, q, mode, limits, fresh)
        for answer in result.answers:
            goals = co_replay(annotate(q), answer.steps, mode)
            assert goals[-1] == ()
            for k, st in enumerate(answer.steps):
                if st.kind is StepKind.LOOP:
                    entry = goals[k][st.atom_index]
                    assert st.atom == entry.atom
                    assert st.ancestor in entry.ancestors

    def test_corpus_yields_loop_uses_in_both_modes(self):
        # Guards the test above against passing vacuously.
        for mode in ("colp", "restricted"):
            p, q, fresh = load_query("server", CORPUS_QUERIES["server"])
            result = co_refute(p, q, mode, Limits(max_answers=5), fresh)
            assert len(result.answers) == 5
            assert all(
                [st.kind for st in a.steps].count(StepKind.LOOP) == 2 for a in result.answers
            )

    def test_colp_closes_ground_atom_on_equal_ancestor(self):
        p, q, fresh = load_query("bad", "bad(f(a))")
        result = co_refute(p, q, "colp", Limits(), fresh)
        assert result.status is Status.REFUTED
        (answer,) = result.answers
        (use,) = [st for st in answer.steps if st.kind is StepKind.LOOP]
        assert use.atom == use.ancestor == q[0]

    # Steps charged before the loop filters existed.  N = 64 and 96 hit the
    # rewrite-chain bound: the known false limit, pinned here so a fix shows.
    @pytest.mark.parametrize("mode", ["colp", "restricted"])
    @pytest.mark.parametrize(
        "n,steps,status",
        [
            (8, 45, Status.REFUTED),
            (32, 561, Status.REFUTED),
            (63, 2080, Status.REFUTED),
            (64, 2144, Status.LIMIT_EXCEEDED),
            (96, 2144, Status.LIMIT_EXCEEDED),
        ],
    )
    def test_nat_depth_steps_pinned(self, mode, n, steps, status):
        p, q, fresh = load_query("nat", f"nat({nat_term(n)})")
        result = co_refute(p, q, mode, Limits(), fresh)
        assert (result.steps_used, result.status) == (steps, status)


def deep_ground_term(rnd, depth):
    """A ground term with one path of exactly ``depth`` constructors."""
    if depth == 0:
        return Struct(rnd.choice(CONSTS))
    f = rnd.choice(FUNCS)
    k = rnd.randrange(f.arity)
    return Struct(f, tuple(deep_ground_term(rnd, depth - 1) if j == k else ground_term(rnd, 1)
                           for j in range(f.arity)))


def observed(result):
    """Everything a search reports, printed answers first, and each loop
    unifier's bindings in the order traces print them and its cycle
    variables, which ``Step`` equality does not compare."""
    loops = [(list(st.subst.items()), st.subst.cycle_vars())
             for a in result.answers for st in a.steps if st.kind is StepKind.LOOP]
    return (answers_text(result), [a.steps for a in result.answers], loops, result.status,
            result.steps_used, result.limits_hit, result.loop_failures)


class TestLoopCandidates:
    """``_loop_moves`` tries only the candidates its filters keep and
    charges each run of dropped ones in one addition; it must report what
    the per-candidate reference does, also when the budget runs out inside
    a dropped run."""

    @pytest.fixture
    def crossings(self, monkeypatch):
        # Counts bulk charges that run out after paying at least one step
        # and before reaching the candidate: the budget edge falls inside
        # a run of dropped candidates.
        counter = {"n": 0}
        charge_each = _SearchState.charge_each

        def counted(state, n):
            if n >= 2 and state.steps_used < state.limits.max_steps < state.steps_used + n - 1:
                counter["n"] += 1
            return charge_each(state, n)

        monkeypatch.setattr(_SearchState, "charge_each", counted)
        return counter

    def same_result(self, monkeypatch, p, q, mode, limits):
        got = observed(co_refute(p, q, mode, limits))
        with monkeypatch.context() as m:
            m.setattr(coengine, "_loop_moves", per_candidate_loop_moves)
            want = observed(co_refute(p, q, mode, limits))
        assert got == want

    @pytest.mark.parametrize("mode", ["colp", "restricted"])
    def test_corpus_at_small_budgets(self, monkeypatch, crossings, mode):
        for name, query in sorted(CORPUS_QUERIES.items()):
            p, q, _ = load_query(name, query)
            for max_steps in range(3, 120, 9):
                self.same_result(monkeypatch, p, q, mode, Limits(max_steps=max_steps, max_answers=3))
        assert crossings["n"] > 0

    @pytest.mark.parametrize("mode", ["colp", "restricted"])
    def test_self_recursive_random_programs(self, monkeypatch, crossings, mode):
        # Deep ground query arguments give the recursive clauses long
        # derivations, so the ancestor lists grow past a few entries.
        # Programs are drawn until 40 are tried and a budget edge has fallen
        # inside a dropped run, which a seed may take more programs to reach.
        rnd = random.Random(seed())
        tried = 0
        while tried < 40 or not crossings["n"]:
            if tried == 400:
                pytest.fail(f"no budget edge fell inside a dropped run in {tried} programs")
            fresh = FreshVars()
            p, _ = random_program(rnd, fresh)
            looping = [c.head.symbol for c in p.clauses
                       if any(b.symbol == c.head.symbol for b in c.body)]
            if not looping:
                continue
            tried += 1
            sym = rnd.choice(looping)
            args = tuple(fresh.new(f"X{k}") if rnd.random() < 0.3
                         else deep_ground_term(rnd, rnd.randint(2, 10)) for k in range(sym.arity))
            max_answers = rnd.randint(1, 3)
            for max_steps in range(1, 40):
                limits = Limits(max_steps=max_steps, max_answers=max_answers)
                self.same_result(monkeypatch, p, [Struct(sym, args)], mode, limits)
        assert crossings["n"] > 0
