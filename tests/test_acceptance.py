"""Acceptance criteria: one test class per criterion.

1. Corpus verdict matrix (exact answers, statuses, and failure reasons).
2. SLD/S refutation equivalence on random programs, cross-checked against
   a brute-force derivation enumerator written directly over mgu.
3. Loop-answer / derivation correspondence at every depth for every
   restricted-mode corpus success.
4. Convergence of partial answers to the answer's unfolding.
5. Unification laws on random term pairs.
6. Decircularization faithfulness, exact equality.
7. Model-oracle coherence (bounded least model; backward closure of
   restricted answers).

Last, the library's entry points refuse out-of-range arguments.
"""

import random

import pytest

from conftest import (
    CONSTS,
    CORPUS_QUERIES,
    FUNCS,
    PROGRAMS,
    apply,
    apply_prefix,
    check_lemma_4_1,
    compose,
    const,
    distance,
    load,
    load_query,
    ground_term,
    mk,
    program_to_text,
    random_program,
    random_term,
    seed,
    var_pool,
)
from coresolve.cli import main
from coresolve.coengine import LoopFailReason, co_refute
from coresolve.decirc import decircularize, unfold
from coresolve.derivation import Limits, Status, StepKind, refute
from coresolve.models import gfp_local_check, lfp_enumerate
from coresolve.productivity import ProductivityStatus, check_productive
from coresolve.program import (
    Clause,
    Program,
    check_universal,
    clause_instance,
    parse_program,
)
from coresolve.terms import (
    FreshVars,
    Struct,
    Substitution,
    Symbol,
    Var,
    apply_raw,
    generation_var,
    is_variant,
    term_to_text,
    truncate,
    variables_in_order,
    variables_of,
)
from coresolve.unify import UnifyKind, mgm, mgu, rational_unify
from coresolve.validation import check_theorem_5_1


def lp(name):
    return str(PROGRAMS / f"{name}.lp")


def co_run(name, query, mode, **lim):
    p, q, fresh = load_query(name, query)
    return co_refute(p, q, mode, Limits(**lim), fresh), q


def solved_text(result):
    answer = result.answers[0]
    return {v.display: term_to_text(t) for v, t in answer.solved.items()}


def reasons(result):
    return {f.reason for f in result.loop_failures}


# --- criterion 1: corpus verdict matrix ---------------------------------------


class TestCriterion1CorpusMatrix:
    def test_nat_nats(self):
        p, _, fresh = load_query("nats", "nats(X)")
        assert check_universal(p).universal
        verdict = check_productive(p, bound=64, fresh=fresh)
        assert verdict.status is ProductivityStatus.NO_LOOP_FOUND
        result, _ = co_run("nats", "nats(X)", "restricted")
        assert result.status is Status.REFUTED
        assert solved_text(result) == {"X": "scons(0,X)"}

    def test_bad_non_productive_one_step(self):
        p, _, fresh = load_query("bad", "bad(f(X))")
        verdict = check_productive(p, fresh=fresh)
        assert verdict.status is ProductivityStatus.NON_PRODUCTIVE
        assert len(verdict.witness.steps) == 1

    def test_server_circular_answer_and_unfolding(self):
        result, q = co_run("server", "resource(X,Y), zeros(Y)", "restricted")
        assert result.status is Status.REFUTED
        assert solved_text(result) == {
            "X": "cons(get(0),X)",
            "Y": "cons(0,Y)",
        }
        answer = result.answers[0]
        x = variables_in_order(q)[0]
        unfolded = unfold(answer.solved, x, 6)
        assert term_to_text(unfolded).startswith("cons(get(0),cons(get(0),")

    def test_case1_non_productive(self):
        p, _, fresh = load_query("case1", "resource(X,Y)")
        verdict = check_productive(p, fresh=fresh)
        assert verdict.status is ProductivityStatus.NON_PRODUCTIVE

    def test_case2_universality_violation(self):
        p, _, _ = load_query("case2", "resource(X,Y)")
        report = check_universal(p)
        assert len(report.violations) == 1
        _, _, extras = report.violations[0]
        assert [v.hint for v in extras] == ["Z"]

    def test_case3_colp_succeeds_restricted_does_not(self):
        colp, _ = co_run("case3", "resource(X,Y,Z)", "colp")
        assert colp.status is Status.REFUTED
        restricted, _ = co_run("case3", "resource(X,Y,Z)", "restricted")
        assert restricted.status is not Status.REFUTED
        assert not restricted.answers

    def test_ex21_colp_succeeds_restricted_does_not(self):
        colp, _ = co_run("ex21", "p(s(X1),X2,Y1,Y2)", "colp")
        assert colp.status is Status.REFUTED
        restricted, _ = co_run(
            "ex21", "p(s(X1),X2,Y1,Y2)", "restricted", max_steps=300
        )
        assert restricted.status is not Status.REFUTED
        assert not restricted.answers

    def test_ex51_unifiers_and_reason(self):
        colp, _ = co_run("ex51", "p(X,s(X))", "colp")
        assert colp.status is Status.REFUTED
        assert solved_text(colp) == {"X": "s(X)"}
        restricted, _ = co_run("ex51", "p(X,s(X))", "restricted")
        assert restricted.status is not Status.REFUTED
        assert LoopFailReason.NOT_AN_INSTANCE in reasons(restricted)

    def test_ex52_unifiers_and_reason(self):
        colp, _ = co_run("ex52", "p(Y,s(X))", "colp")
        assert colp.status is Status.REFUTED
        assert solved_text(colp) == {"Y": "f(Y)", "X": "s(X)"}
        restricted, _ = co_run("ex52", "p(Y,s(X))", "restricted", max_steps=300)
        assert restricted.status is not Status.REFUTED
        assert LoopFailReason.NOT_AN_INSTANCE in reasons(restricted)

    def test_r_program_restricted_answer(self):
        result, q = co_run("r", "r(X,Y)", "restricted")
        assert result.status is Status.REFUTED
        answer = result.answers[0]
        # The answer binds, up to renaming, A to f(A,B,C) and B to s(B);
        # over the query variables that reads X=f(X,Y,_), Y=s(Y).
        x, y = variables_in_order(q)
        a, b, c = Var(901, "A"), Var(902, "B"), Var(903, "C")
        got = mk("pair", answer.solved.get(x), answer.solved.get(y))
        want = apply_raw(
            Substitution({a: x, b: y}), mk("pair", mk("f", a, b, c), mk("s", b))
        )
        assert is_variant(got, want), term_to_text(got)
        (use,) = [st for st in answer.steps if st.kind is StepKind.LOOP]
        assert use.subst.circular

    def test_fibs_violation_and_limit(self):
        p, _, _ = load_query("fibs", "fibs(0,s(0),F)")
        report = check_universal(p)
        assert len(report.violations) == 1
        assert [v.hint for v in report.violations[0][2]] == ["Z"]
        argv = ["run", lp("fibs"), "-q", "fibs(0,s(0),F)", "--max-steps", "500"]
        assert main(argv) == 2


# --- criterion 2: SLD/S refutation equivalence --------------------------------


LIM_SLD = Limits(max_steps=4000, max_depth=12, max_answers=30)
LIM_S = Limits(max_steps=8000, max_depth=12, max_answers=30)


def random_query(rnd, preds, fresh):
    sym = rnd.choice(preds)

    def arg():
        # Mostly ground arguments: a variable under a recursive predicate
        # makes the bounded search tree large, which only slows the
        # comparison down without sharpening it.
        r = rnd.random()
        if r < 0.2:
            return fresh.new("Q")
        if r < 0.35:
            f = rnd.choice(FUNCS)
            return Struct(f, tuple(fresh.new("Q") for _ in range(f.arity)))
        return ground_term(rnd, 2)

    return Struct(sym, tuple(arg() for _ in range(sym.arity)))


def answer_substitution(steps, query_vars):
    """Composed step substitutions restricted to the query variables."""
    acc = Substitution()
    for st in steps:
        acc = compose(st.subst, acc)
    keep = set(query_vars)
    return Substitution({v: t for v, t in acc.items() if v in keep})


def answers_of(p, query, mode, limits, fresh):
    result = refute(p, [query], mode, limits, fresh)
    qvars = variables_in_order([query])
    answers = [
        apply_raw(answer_substitution(answer.steps, qvars), query)
        for answer in result.answers
    ]
    # A bound prunes its branch and the search goes on, so only a run no
    # bound cut, answers found or not, enumerates its tree exhaustively.
    exhaustive = not result.limits_hit and len(answers) < limits.max_answers
    return result.status, answers, exhaustive


def same_up_to_variant(xs, ys):
    return all(any(is_variant(x, y) for y in ys) for x in xs) and all(
        any(is_variant(y, x) for x in xs) for y in ys
    )


def brute_force_refutable(p, query, depth, fresh):
    """Independent bounded enumeration of SLD derivations, written
    directly over mgu rather than the engine's step functions."""

    def go(goal, budget):
        if not goal:
            return True
        if budget == 0:
            return False
        atom = goal[0]
        for c in p.clauses:
            clause = clause_instance(c, fresh)
            out = mgu(clause.head, atom)
            if not out.ok:
                continue
            sigma = out.substitution
            rest = tuple(
                apply_raw(sigma, b) for b in clause.body + tuple(goal[1:])
            )
            if go(rest, budget - 1):
                return True
        return False

    return go((query,), depth)


class TestCriterion2RefutationEquivalence:
    def test_sld_equals_s_on_random_programs(self):
        rnd = random.Random(seed() + 2)
        skipped = 0
        brute_checked = 0
        for pi in range(300):
            fresh = FreshVars(10**4)
            p, preds = random_program(rnd, fresh)
            for _ in range(5):
                query = random_query(rnd, preds, fresh)
                st_sld, ans_sld, full_sld = answers_of(
                    p, query, "sld", LIM_SLD, fresh
                )
                st_s, ans_s, full_s = answers_of(p, query, "s", LIM_S, fresh)
                if not (full_sld and full_s):
                    skipped += 1
                    continue
                assert (st_sld is Status.REFUTED) == (st_s is Status.REFUTED), (
                    p,
                    term_to_text(query),
                    st_sld,
                    st_s,
                )
                if st_sld is Status.FAILED:
                    assert st_s is Status.FAILED
                if st_sld is Status.REFUTED:
                    assert same_up_to_variant(ans_sld, ans_s), (
                        p,
                        term_to_text(query),
                    )
            if pi < 30:
                query = random_query(rnd, preds, fresh)
                st_sld, _, full_sld = answers_of(
                    p,
                    query,
                    "sld",
                    Limits(max_steps=4000, max_depth=8),
                    fresh,
                )
                brute = brute_force_refutable(p, query, 8, fresh)
                if st_sld is Status.REFUTED:
                    assert brute, (p, term_to_text(query))
                elif full_sld:
                    assert not brute, (p, term_to_text(query))
                brute_checked += 1
        assert brute_checked == 30
        # The generator is tuned so truncated searches stay a small
        # minority of the 1500 comparisons.
        assert skipped <= 200


# --- parse and print are inverse ------------------------------------------------

NIL = Symbol("nil", 0)
CONS = Symbol("cons", 2)
# Spacing the reader must skip, comments with punctuation in them included.
GAPS = ["", "", " ", "  ", "\t", "\n", "\r\n", " % a (comment) [x|y] :- .\n", "%\n"]


def noisy_text(p, rnd):
    """``p`` as text with list sugar for ``cons``/``nil`` and random
    whitespace and comments between tokens."""
    out = []

    def gap():
        out.append(rnd.choice(GAPS))

    def term(t):
        gap()
        if isinstance(t, Var):
            out.append(t.display)
        elif t.symbol in (CONS, NIL):
            out.append("[")
            first = True
            while t.symbol == CONS:
                if not first:
                    gap()
                    out.append(",")
                first = False
                term(t.args[0])
                t = t.args[1]
                if isinstance(t, Var):
                    break
            if not (isinstance(t, Struct) and t.symbol == NIL):
                gap()
                out.append("|")
                term(t)
            gap()
            out.append("]")
        else:
            out.append(t.symbol.name)
            if t.args:
                gap()
                out.append("(")
                for i, a in enumerate(t.args):
                    if i:
                        gap()
                        out.append(",")
                    term(a)
                gap()
                out.append(")")

    for c in p.clauses:
        term(c.head)
        if c.body:
            gap()
            out.append(":-")
            for i, b in enumerate(c.body):
                if i:
                    gap()
                    out.append(",")
                term(b)
        gap()
        out.append(".")
    gap()
    return "".join(out)


def same_clauses(p, q):
    """Clause for clause equal, up to a renaming of variables that keeps
    their names."""
    if len(p.clauses) != len(q.clauses):
        return False
    for c, d in zip(p.clauses, q.clauses):
        vs, ws = list(c.var_positions), list(d.var_positions)
        if [v.hint for v in vs] != [w.hint for w in ws]:
            return False
        renaming = Substitution(dict(zip(vs, ws)))
        if apply_raw(renaming, c.head) != d.head:
            return False
        if tuple(apply_raw(renaming, b) for b in c.body) != d.body:
            return False
    return True


class TestParsePrintRoundTrip:
    def test_parse_of_printed_program_is_the_program(self):
        rnd = random.Random(seed() + 11)
        sugar = 0
        for pi in range(300):
            fresh = FreshVars(10**4)
            if pi % 2:
                p, _ = random_program(rnd, fresh)
            else:
                p, _ = random_program(rnd, fresh, CONSTS + [NIL], FUNCS + [CONS])
            assert same_clauses(p, parse_program(program_to_text(p)))
            text = noisy_text(p, rnd)
            sugar += "[" in text
            assert same_clauses(p, parse_program(text)), text
        assert sugar > 100


def random_indexed_program(rnd, fresh):
    """A random program for the clause index: predicates of arity 0 to 2
    whose heads have variable, constant or compound first arguments, in
    random order."""
    preds = [Symbol(f"q{i}", rnd.choice([0, 1, 2, 2])) for i in range(rnd.randint(1, 3))]
    clauses = []
    for _ in range(rnd.randint(1, 12)):
        sym = rnd.choice(preds)
        pool = [fresh.new(f"H{k}") for k in range(3)]
        head = Struct(sym, tuple(random_term(rnd, 2, pool) for _ in range(sym.arity)))
        clauses.append(Clause(head))
    return Program(tuple(clauses)), preds


class TestClauseIndexSoundness:
    def test_left_out_clauses_never_fit(self):
        rnd = random.Random(seed() + 7)
        stray = Symbol("stray", 1)
        left_out = {False: 0, True: 0}
        for pi in range(200):
            fresh = FreshVars(10**4)
            if pi % 2:
                p, preds = random_program(rnd, fresh)
            else:
                p, preds = random_indexed_program(rnd, fresh)
            heads = [c.head.symbol for c in p.clauses]
            assert p.predicates() == list(dict.fromkeys(heads))
            for _ in range(10):
                r = rnd.random()
                if r < 0.05:
                    atom = fresh.new("Q")
                else:
                    sym = stray if r < 0.1 else rnd.choice(preds)
                    pool = [fresh.new("Q") for _ in range(2)]
                    atom = Struct(sym, tuple(random_term(rnd, 2, pool) for _ in range(sym.arity)))
                for matching in (False, True):
                    offered = list(p.candidates(atom, matching=matching))
                    assert offered == sorted(set(offered))
                    for ci in set(range(len(p.clauses))) - set(offered):
                        left_out[matching] += 1
                        head = clause_instance(p.clauses[ci], fresh).head
                        fits = mgm(head, atom) if matching else mgu(head, atom)
                        assert not fits.ok, (term_to_text(atom), ci, matching)
        # Both lookups leave clauses out, so the checks above are not vacuous.
        assert left_out[False] > 500 and left_out[True] > left_out[False]


# --- criterion 3: loop answers correspond to derivations -----------------------


def scan_every_clause(p):
    """The universality violations found by comparing the body variables
    of every clause, facts included, with those of its head."""
    violations = []
    for i, c in enumerate(p.clauses):
        head_vars = variables_of(c.head)
        extras = tuple(v for v in variables_in_order(c.body) if v not in head_vars)
        if extras:
            violations.append((i, c.span, extras))
    return tuple(violations)


class TestUniversalityCheck:
    def test_skipping_facts_changes_no_report(self):
        programs = [load(name)[0] for name in CORPUS_QUERIES]
        rnd = random.Random(seed() + 13)
        for _ in range(200):
            p, _ = random_program(rnd, FreshVars(10**4))
            programs.append(p)
            # Its rules read backwards, which have existential variables.
            programs.append(Program(tuple(
                Clause(c.body[0], (c.head,)) if c.body else c for c in p.clauses
            )))
        flagged = 0
        for p in programs:
            report = check_universal(p)
            assert report.violations == scan_every_clause(p)
            flagged += not report.universal
        assert flagged > 50


class TestCriterion3LoopAnswerCorrespondence:
    @pytest.mark.parametrize(
        "name,query",
        [
            ("nats", "nats(X)"),
            ("server", "resource(X,Y), zeros(Y)"),
            ("r", "r(X,Y)"),
        ],
    )
    def test_agreement_at_every_depth(self, name, query):
        p, q, fresh = load_query(name, query)
        report = check_theorem_5_1(p, q, d_max=8, rounds=16, fresh=fresh)
        assert report.answer is not None
        assert len(report.table) == 8
        for d, lhs, rhs, ok in report.table:
            assert ok, (d, term_to_text(lhs), term_to_text(rhs))


# --- criterion 4: convergence of partial answers -------------------------------


class TestCriterion4Convergence:
    @pytest.mark.parametrize(
        "name,query",
        [("nats", "nats(X)"), ("server", "resource(X,Y), zeros(Y)")],
    )
    def test_distances_decrease_to_zero(self, name, query):
        p, q, fresh = load_query(name, query)
        ok, table = check_lemma_4_1(p, q, steps_count=20, d=8, fresh=fresh)
        assert ok
        assert table[-1][1].zero
        # Each pattern round pushes the first disagreement at least one
        # level deeper: the distinct distance exponents, in order of first
        # appearance, strictly increase.
        exponents = []
        for _, dist in table:
            if not dist.zero and (
                not exponents or dist.exponent != exponents[-1]
            ):
                exponents.append(dist.exponent)
        assert exponents == sorted(set(exponents))
        assert len(exponents) >= 3


# --- criterion 5: unification laws ---------------------------------------------


class TestCriterion5UnificationLaws:
    def test_thousand_random_pairs(self):
        rnd = random.Random(seed() + 5)
        # Disjoint pools: a matcher of a onto b is a unifier only when the
        # two terms share no variables, as with standardized-apart clauses.
        # The pattern's variables are the younger ones so mgu's variable
        # orientation (younger bound to older) matches the matcher's.
        pool_a = var_pool(4, start=10)
        pool_b = var_pool(4, start=1)
        for _ in range(1000):
            a = random_term(rnd, 3, pool_a)
            b = random_term(rnd, 3, pool_b)
            m = mgm(a, b)
            u = mgu(a, b)
            r = rational_unify(a, b)
            if m.ok:
                # A matcher is in particular a unifier, and mgu reports
                # it as such.
                assert u.ok and u.kind is UnifyKind.MATCHER
                assert apply(m.substitution, a) == b
            if u.ok:
                assert r.ok and not r.substitution.circular
                sigma = u.substitution
                assert apply(sigma, a) == apply(sigma, b)
                t = random_term(rnd, 3, pool_a + pool_b)
                assert apply(sigma, apply(sigma, t)) == apply(sigma, t)
            c = random_term(rnd, 3, pool_a + pool_b)
            assert distance(a, c) <= max(distance(a, b), distance(b, c))


# --- criterion 6: decircularization faithfulness --------------------------------


class TestCriterion6Decircularization:
    def _check_exact(self, sigma, t, k_max=6):
        for k in range(1, k_max + 1):
            unrolled = apply_prefix(decircularize(sigma, k), t)
            for n in range(k + 1):
                assert truncate(n, unrolled) == unfold(sigma, t, n)

    def test_interacting_components_sigma(self):
        a, b, c = Var(1, "A"), Var(2, "B"), Var(3, "C")
        sigma = Substitution({a: mk("f", a, b, c), b: mk("s", b)})
        self._check_exact(sigma, mk("r", a, b))

    def test_fifty_random_circular_sigmas(self):
        rnd = random.Random(seed() + 6)
        pool = var_pool(3, start=50)
        found = 0
        while found < 50:
            a = random_term(rnd, 3, pool)
            b = random_term(rnd, 3, pool)
            out = rational_unify(a, b)
            if out.kind is not UnifyKind.RATIONAL_UNIFIER:
                continue
            found += 1
            self._check_exact(out.substitution, a, k_max=5)


# --- criterion 7: model-oracle coherence ----------------------------------------


class TestCriterion7ModelOracle:
    def test_lfp_nat_cap5_exact(self):
        p, _, _ = load_query("nat", "nat(0)")
        got = lfp_enumerate(p, 5).atoms
        want = set()
        t = const("0")
        for _ in range(5):
            want.add(mk("nat", t))
            t = mk("s", t)
        assert got == want

    @pytest.mark.parametrize(
        "name,query",
        [
            ("nats", "nats(X)"),
            ("server", "resource(X,Y), zeros(Y)"),
            ("r", "r(X,Y)"),
        ],
    )
    def test_restricted_answers_backward_closed(self, name, query):
        p, q, fresh = load_query(name, query)
        result = co_refute(p, q, "restricted", Limits(), fresh)
        assert result.status is Status.REFUTED
        answer = result.answers[0]
        for atom in q:
            assert gfp_local_check(p, (atom, answer.solved), 8)


# --- argument errors ------------------------------------------------------------------


@pytest.mark.parametrize("call", [
    lambda p, q: unfold(Substitution(), q[0], -1),
    lambda p, q: check_productive(p, bound=0),
    lambda p, q: refute(p, q, mode="x"),
    lambda p, q: co_refute(p, q, mode="x"),
    lambda p, q: generation_var(Var(1, "X"), -1),
], ids=["unfold", "check_productive", "refute", "co_refute", "generation_var"])
def test_out_of_range_argument_is_a_value_error(call):
    p, q, _ = load_query("nats", "nats(X)")
    with pytest.raises(ValueError):
        call(p, q)
