"""Decircularization and bounded unfolding of circular substitutions."""

import io
import json
from pathlib import Path

import pytest

from conftest import (
    apply, apply_prefix, const, grows_at_most, load_query, mk, random_term, reference_names,
    reference_text, var_pool,
)
from coresolve.cli import _print_answer
from coresolve.coengine import co_refute
from coresolve.decirc import decircularize, unfold
from coresolve.derivation import Limits
from coresolve.rational import build_node, solved_answer
from coresolve.terms import (
    TRUNCATED,
    FreshVars,
    Struct,
    Substitution,
    Var,
    _unfolding_step,
    generation_var,
    iter_subterms,
    term_to_text,
    truncate,
    truncated_text,
    variables_in_order,
    variables_of,
)
from coresolve.unify import UnifyKind, rational_unify

A, B, C = Var(1, "A"), Var(2, "B"), Var(3, "C")
X, Y = Var(4, "X"), Var(5, "Y")
zero = const("0")


def s_(t):
    return mk("s", t)


SIGMA_AB = Substitution({A: mk("f", A, B, C), B: s_(B)})


class TestDecircularize:
    def test_interacting_components(self):
        # Per generation: A's copy mentions the same generation of B's
        # chain, and the free variable C gets a per-generation copy.
        prefix = decircularize(SIGMA_AB, 3)
        assert len(prefix) == 3
        first = prefix[0]
        a_img = first.get(A)
        b_img = first.get(B)
        assert a_img.symbol.name == "f" and b_img.symbol.name == "s"
        a1 = a_img.args[0]
        b1 = a_img.args[1]
        assert isinstance(a1, Var) and isinstance(b1, Var)
        assert b_img.args[0] == b1  # generations interleave consistently
        second = prefix[1]
        assert set(second.domain()) == {a1, b1}
        assert not any(p.circular for p in prefix)

    def test_non_circular_passthrough(self):
        sigma = Substitution({X: s_(Y)})
        assert decircularize(sigma, 5) == [sigma]

    def test_simple_chain(self):
        sigma = Substitution({X: s_(X)})
        prefix = decircularize(sigma, 2)
        assert len(prefix) == 2
        x1 = prefix[0].get(X).args[0]
        assert prefix[0].get(X) == s_(x1)
        x2 = prefix[1].get(x1).args[0]
        assert prefix[1].get(x1) == s_(x2)
        assert x1 != X and x2 != x1

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            decircularize(SIGMA_AB, 0)

    def test_freshness(self):
        subject = mk("r", A, B)
        prefix = decircularize(SIGMA_AB, 4)
        forbidden = SIGMA_AB.domain() | variables_of(subject)
        introduced = set()
        for p in prefix:
            for v, t in p.items():
                introduced |= (variables_of(t) | {v}) - forbidden
        assert A not in introduced and B not in introduced

    def test_generations_are_named_by_generation_var(self):
        # Generation n binds the generation n-1 copies of the cycle variables.
        first, second = decircularize(SIGMA_AB, 2)
        assert first.domain() == {A, B}
        assert second.domain() == {generation_var(A, 1), generation_var(B, 1)}
        assert second.get(generation_var(B, 1)) == s_(generation_var(B, 2))

    def test_calls_agree(self):
        assert decircularize(SIGMA_AB, 4) == decircularize(SIGMA_AB, 4)
        assert decircularize(CLOSED_CHAIN, 2) == decircularize(CLOSED_CHAIN, 2)

    def test_chain_into_a_cycle_is_linear(self, structs):
        # Y0 ↦ f(Y1), …, Yn-1 ↦ f(X), X ↦ s(X): each generation resolves all
        # its images in one walk, so the chain's values share their tails.
        built = []
        for n in (250, 500, 1000):
            ys = [Var(1000 + i, f"Y{i}") for i in range(n)]
            sigma = Substitution({**{y: mk("f", z) for y, z in zip(ys, ys[1:] + [X])}, X: s_(X)})
            structs.n = 0
            first, second = decircularize(sigma, 2)
            built.append(structs.n)
            assert first.get(ys[0]).args[0] == first.get(ys[1])
            assert len(first) == n + 1 and len(second) == 1
        assert grows_at_most(built, 2.2), built


# Chains of 10,000 bindings X_i ↦ f(X_{i+1}), once left open at X_10000 and
# once closed back to X_0: deep enough to overflow a recursive analysis.
CHAIN = [Var(100 + i, f"X{i}") for i in range(10_001)]
OPEN_CHAIN = Substitution({v: mk("f", w) for v, w in zip(CHAIN, CHAIN[1:])})
CLOSED_CHAIN = Substitution({**OPEN_CHAIN.bindings, CHAIN[-1]: mk("f", CHAIN[0])})


class TestCircularComponents:
    def test_cycle_members(self):
        assert SIGMA_AB.cycle_vars() == {A, B}
        assert CLOSED_CHAIN.circular
        assert CLOSED_CHAIN.cycle_vars() == set(CHAIN)

    def test_reaching_a_cycle_is_not_on_it(self):
        sigma = Substitution({X: mk("f", Y, Y, C), Y: s_(Y)})
        assert sigma.cycle_vars() == {Y}

    def test_acyclic_empty(self):
        assert Substitution({X: s_(Y)}).cycle_vars() == set()
        assert OPEN_CHAIN.cycle_vars() == set()
        assert not OPEN_CHAIN.circular


class TestUnfold:
    def test_nats_answer(self):
        sigma = Substitution({X: mk("scons", zero, X)})
        got = unfold(sigma, mk("nats", X), 4)
        assert term_to_text(got) == "nats(scons(0,scons(0,scons(◇,◇))))"

    def test_identity_is_truncate(self, rng):
        pool = var_pool(3)
        for _ in range(30):
            t = random_term(rng, 4, pool)
            for n in range(4):
                assert unfold(Substitution(), t, n) == truncate(n, t)

    def test_ab_sigma_depth3(self):
        got = unfold(SIGMA_AB, mk("r", A, B), 3)
        assert term_to_text(got) == "r(f(f(◇,◇,◇),s(◇),C),s(s(◇)))"

    def test_depth_zero(self):
        assert unfold(SIGMA_AB, A, 0) is TRUNCATED

    def test_substitution_sequence_stratified(self):
        # X resolves through the first substitution; variables it leaves
        # free advance to the next one.
        first = Substitution({X: mk("scons", Y, X)})
        second = Substitution({Y: zero})
        got = unfold(solved_answer([X], [first, second]), X, 3)
        assert term_to_text(got) == "scons(0,scons(0,scons(◇,◇)))"

    def test_generations_past_two_to_the_twenty(self):
        # Each generation has its own copy, whatever its number, and the
        # copies of distinct variables stay apart.
        gen = (1 << 20) + 2
        term, g = _unfolding_step(X, gen, 1, {}, frozenset())
        assert (term, g) == (generation_var(X, gen - 1), gen) and term.hint == "X_1048577"
        assert term.id < 0 and term not in {generation_var(X, 1), generation_var(Y, 1)}

    def test_free_variables_copied_per_round(self):
        got = unfold(Substitution({X: mk("f", X, Y)}), X, 3)
        assert term_to_text(got) == "f(f(f(◇,◇),Y_1),Y)"

    def test_truncation_coherence(self):
        for sigma, t in [
            (SIGMA_AB, mk("r", A, B)),
            (Substitution({X: mk("scons", zero, X)}), mk("nats", X)),
            (Substitution({X: mk("f", mk("f", X, C), C)}), X),
        ]:
            for m in range(1, 7):
                for n in range(m + 1):
                    assert truncate(n, unfold(sigma, t, m)) == unfold(sigma, t, n)


class TestFaithfulness:
    def check(self, sigma, t, k_max=6):
        for k in range(1, k_max + 1):
            prefix = decircularize(sigma, k)
            unrolled = apply_prefix(prefix, t)
            for n in range(k + 1):
                assert truncate(n, unrolled) == unfold(sigma, t, n)

    def test_ab_sigma(self):
        self.check(SIGMA_AB, mk("r", A, B))

    def test_nested_cycle(self):
        self.check(Substitution({X: mk("f", mk("f", X, C), C)}), X)

    def test_mutual_cycle(self):
        self.check(Substitution({X: mk("f", Y, C), Y: mk("f", X, C)}), mk("p", X, Y))

    def test_variable_reaching_a_cycle(self):
        self.check(Substitution({X: mk("f", Y, Y, C), Y: s_(Y)}), mk("p", X, Y))

    def test_random_rational_unifiers(self, rng):
        pool = var_pool(3, start=10)
        found = 0
        while found < 50:
            a = random_term(rng, 3, pool)
            b = random_term(rng, 3, pool)
            out = rational_unify(a, b)
            if out.kind is not UnifyKind.RATIONAL_UNIFIER:
                continue
            found += 1
            self.check(out.substitution, a, k_max=5)


def graph_truncation(graph, depth):
    """The value graph of ``build_node`` for one term cut at ``depth``, as
    a term."""
    (root,), labels, kids = graph

    def cut(n, depth):
        if depth == 0:
            return TRUNCATED
        if isinstance(labels[n], Var):
            return labels[n]
        return Struct(labels[n], tuple(cut(c, depth - 1) for c in kids[n]))

    return cut(root, depth)


def without_generations(t, variables, depth):
    """t with every generation copy of the given variables turned back into
    the variable itself."""
    back = {
        generation_var(v, g): v for v in variables for g in range(1, depth + 1)
    }
    return apply(Substitution(back), t)


def random_variable_cycles(rnd, count):
    """Seeded circular substitutions over a pool of four variables, each
    with at least one variable-to-variable binding."""
    pool = var_pool(4, start=200)
    while count:
        bindings = {}
        for v in pool:
            roll = rnd.random()
            if roll < 0.35:
                bindings[v] = rnd.choice([w for w in pool if w != v])
            elif roll < 0.75:
                bindings[v] = random_term(rnd, 2, pool)
        sigma = Substitution(bindings)
        if not sigma.circular or not any(isinstance(t, Var) for _, t in sigma.items()):
            continue
        count -= 1
        yield sigma, random_term(rnd, 2, pool)


class TestVariableCycles:
    """A cycle that passes through a variable-to-variable binding: the
    binding takes a generation but adds no level, and the walk goes on to
    the depth asked for, as the rational tree does."""

    def test_depth_through_variable_binding(self):
        # Cut at depth 3 like ``truncate``: three f levels, then the leaf.
        # On the cycle (X ↦ Y) or an alias of it (Y ↦ X), the layered
        # decircularization spent a generation there and left a variable
        # above the cut.
        want = mk("f", mk("f", mk("f", TRUNCATED)))
        assert unfold(Substitution({X: Y, Y: mk("f", X)}), X, 3) == want
        assert unfold(Substitution({X: mk("f", X), Y: X}), Y, 3) == want

    def test_pure_variable_cycle_terminates(self):
        # No structure at all: the oldest variable of the cycle stands for
        # it, as in the value graph and in mgu's answers.
        sigma = Substitution({X: Y, Y: X})
        assert unfold(sigma, X, 5) == X
        assert unfold(sigma, Y, 5) == X
        assert unfold(sigma, mk("p", Y, zero), 5) == mk("p", X, zero)

    def test_random_against_value_graph(self, rng):
        # Against the value graph cut at the same depth, up to the renaming
        # of free variables per generation.  Where no variable is bound to
        # a cycle variable, the layered decircularization agrees exactly.
        layered = 0
        for sigma, t in random_variable_cycles(rng, 200):
            free = variables_in_order([t, *(img for _, img in sigma.items())])
            exact = not any(img in sigma.cycle_vars() for _, img in sigma.items())
            layered += exact
            for depth in range(7):
                got = unfold(sigma, t, depth)
                want = graph_truncation(build_node([t], [sigma]), depth)
                assert without_generations(got, free, depth) == want, (sigma, t, depth)
                if depth and exact:
                    assert got == truncate(depth, apply_prefix(decircularize(sigma, depth), t))
        assert layered >= 20


class TestWalkCost:
    def test_depth_ten_thousand(self):
        got = unfold(Substitution({X: s_(X)}), X, 10_000)
        text = term_to_text(got)
        assert text == "s(" * 10_000 + "◇" + ")" * 10_000

    def test_decircularize_depth_ten_thousand(self):
        n = 10_000
        t = X
        for _ in range(n):
            t = s_(t)
        # C reaches the cycle; its image mentions Y, whose non-circular
        # binding is resolved away.
        sigma = Substitution({X: t, C: mk("g", X, Y), Y: mk("f", A)})
        first, second = decircularize(sigma, 2)
        assert not (first.circular or second.circular)
        chain = "s(" * n + "X_{}" + ")" * n
        assert term_to_text(first.get(X)) == chain.format(1)
        assert term_to_text(first.get(C)) == "g(X_1,f(A))"
        ((x1, image),) = second.items()
        assert x1.hint == "X_1" and term_to_text(image) == chain.format(2)

    def test_builds_one_struct_per_printed_node(self, monkeypatch):
        # The layered unfold built every generation, applied each in turn
        # and then truncated the result.
        built = 0
        construct = Struct.__init__

        def counted(self, *args):
            nonlocal built
            built += 1
            construct(self, *args)

        monkeypatch.setattr(Struct, "__init__", counted)
        for sigma, t in [
            (SIGMA_AB, mk("r", A, B)),
            (Substitution({X: mk("scons", zero, X)}), mk("nats", X)),
            (Substitution({X: mk("f", mk("f", X, C), C)}), X),
        ]:
            built = 0
            got = unfold(sigma, t, 5)
            assert built <= sum(1 for _ in iter_subterms(got))


STREAMS = Path(__file__).resolve().parent / "golden" / "streams.json"


def text_and_term(sigma, v, depth, names):
    """The unfolding of v written by the text walk, and the reference text
    of the term walk's unfolding."""
    got = truncated_text(depth, v, sigma.bindings, sigma.cycle_vars(), names.get)
    return got, reference_text(unfold(sigma, v, depth), names)


def random_case(rng, pool):
    """A seeded solved form, or a raw substitution of the pool (which the
    walk takes as well), with the variables it answers for."""
    if rng.random() < 0.5:
        seq = [
            Substitution({
                v: rng.choice(pool) if rng.random() < 0.3 else random_term(rng, 2, pool)
                for v in pool
                if rng.random() < 0.6
            })
            for _ in range(rng.randint(1, 3))
        ]
        query = [v for v in pool if rng.random() < 0.7] or pool[:1]
        return solved_answer(query, seq, FreshVars(10**6)), query
    bindings = {v: random_term(rng, 2, pool) for v in pool if rng.random() < 0.5}
    if rng.random() < 0.3:
        # A variable-to-variable cycle, or a chain into one.
        ring = rng.sample(pool, rng.randint(2, 3))
        bindings.update(zip(ring, ring[1:] + ring[:1]))
    return Substitution(bindings), pool


KINDS = {
    "depth 0",
    "alias of a cycle variable",
    "free leaf at generation >= 2",
    "copy of a variable with no hint",
    "pure variable cycle",
}


def kinds_of(sigma, v, depth, unfolded):
    """Which of KINDS, the walk's special cases, one unfolding of v shows."""
    img, cycle = sigma.get(v), sigma.cycle_vars()
    copies = [w for w in iter_subterms(unfolded) if isinstance(w, Var) and w.id < 0]
    shown = {
        "depth 0": depth == 0,
        "alias of a cycle variable": v not in cycle and isinstance(img, Var) and img in cycle,
        "free leaf at generation >= 2": any(not w.hint.startswith("_G") for w in copies),
        "copy of a variable with no hint": any(w.hint.startswith("_G") for w in copies),
        # Only the oldest variable of a pure variable cycle is left bound.
        "pure variable cycle": any(w in sigma for w in variables_of(unfolded)),
    }
    return {kind for kind, there in shown.items() if there}


class TestTextWalk:
    """``truncated_text`` writes what the reference writer writes for the
    term ``unfold`` builds, with the names an answer is printed with, and
    ``term_to_text`` writes what it writes for the term itself."""

    @pytest.mark.parametrize("mode", ["cos", "colp"])
    @pytest.mark.parametrize("name,query", sorted({
        (r["program"], r["query"]) for r in json.loads(STREAMS.read_text(encoding="utf-8"))
    }))
    def test_stream_answers(self, mode, name, query):
        p, q, fresh = load_query(name, query)
        engine = "restricted" if mode == "cos" else "colp"
        result = co_refute(p, q, engine, Limits(max_answers=60), fresh)
        query_vars = variables_in_order(q)
        assert len(result.answers) == 60
        for answer in result.answers:
            solved = answer.solved
            shown = [v for v in query_vars if v in solved]
            names = reference_names(query_vars, [solved.get(v) for v in shown])
            printed = []
            for v in shown:
                for depth in range(9):
                    got, want = text_and_term(solved, v, depth, names)
                    assert got == want, (answer, v, depth)
                printed.append(f"{v} = {reference_text(solved.get(v), names)}")
                printed.append(f"{v} ~ {reference_text(unfold(solved, v, 8), names)}")
            out = io.StringIO()
            _print_answer(query_vars, solved, 8, out)
            assert out.getvalue().splitlines() == printed

    def test_random_substitutions(self, rng):
        pool = [*var_pool(3, start=300), Var(303)]  # the last has no hint
        seen: set[str] = set()
        cases = 0
        while cases < 2000 or seen != KINDS:
            if cases == 50_000:
                pytest.fail(f"no case of {sorted(KINDS - seen)} in {cases} draws")
            sigma, answered = random_case(rng, pool)
            names = reference_names(answered, [t for _, t in sigma.items()])
            v = rng.choice(pool)
            depth = rng.randint(0, 8)
            got, want = text_and_term(sigma, v, depth, names)
            assert got == want, (sigma, v, depth)
            assert term_to_text(sigma.get(v) or v, names.get) == reference_text(sigma.get(v) or v, names)
            seen |= kinds_of(sigma, v, depth, unfold(sigma, v, depth))
            cases += 1

    def test_depth_three_thousand(self):
        p, q, fresh = load_query("nats", "nats(X)")
        solved = co_refute(p, q, "restricted", Limits(max_answers=1), fresh).answers[0].solved
        (x,) = variables_in_order(q)
        got, want = text_and_term(solved, x, 3000, {})
        assert got == want == "scons(0," * 2999 + "scons(◇,◇)" + ")" * 2999
