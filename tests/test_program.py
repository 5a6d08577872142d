"""Program parsing, printing, the universality check, and the counted work
of parsing and searching as the input doubles."""

import random
from types import SimpleNamespace

import pytest

from conftest import (
    PROGRAMS,
    counting_lines,
    grows_at_most,
    load,
    load_query,
    program_to_text,
    random_program,
    seed,
)
from coresolve import coengine, derivation, unify
from coresolve.cli import main
from coresolve.coengine import co_refute
from coresolve.derivation import Limits, Status, _SearchState, refute
from coresolve.program import (
    Clause,
    ParseError,
    Program,
    Span,
    _Parser,
    check_universal,
    clause_instance,
    parse_program,
    parse_query,
)
from coresolve.models import ground_terms
from coresolve.terms import FreshVars, Struct, Symbol, Var, term_to_text, variables_of


class TestParse:
    def test_two_clauses(self):
        p = parse_program("nat(0). nat(s(X)) :- nat(X).")
        assert len(p.clauses) == 2
        assert p.clauses[0].head == Struct(Symbol("nat", 1), (Struct(Symbol("0", 0)),))
        assert p.clauses[1].body[0].symbol == Symbol("nat", 1)

    def test_empty(self):
        assert parse_program("").clauses == ()

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse_program("p(X) :- q(X")

    def test_arity_conflict(self):
        with pytest.raises(ParseError) as exc:
            parse_program("p(a). p(a,b).")
        assert "arity" in str(exc.value)

    def test_reserved_symbol_rejected(self):
        with pytest.raises(ParseError):
            parse_program("p(◇).")

    def test_list_sugar(self):
        p = parse_program("q([a,b]). r([H|T]) :- r(T).")
        cons = Symbol("cons", 2)
        nil = Struct(Symbol("nil", 0))
        a = Struct(Symbol("a", 0))
        b = Struct(Symbol("b", 0))
        assert p.clauses[0].head.args[0] == Struct(cons, (a, Struct(cons, (b, nil))))
        assert p.clauses[1].head.args[0].symbol == cons

    def test_comments_and_head_var_rejected(self):
        p = parse_program("% a comment\nnat(0). % trailing\n")
        assert len(p.clauses) == 1
        with pytest.raises(ParseError):
            parse_program("X :- p(X).")

    def test_nullary_warning(self):
        p = parse_program("bad(f(X)) :- bad(f(X)).")
        assert any("nullary" in w for w in p.warnings)

    def test_round_trip(self):
        text = "nat(0).\nnat(s(X)) :- nat(X).\nnats(scons(X,Y)) :- nat(X),nats(Y).\n"
        p1 = parse_program(text)
        p2 = parse_program(program_to_text(p1))
        assert program_to_text(p1) == program_to_text(p2)
        assert len(p1.clauses) == len(p2.clauses)

    def test_nullary_symbols_shared(self):
        p = parse_program("p(a). q(a, [a]). r([]). s([]).")
        a = p.clauses[0].head.args[0]
        assert p.clauses[1].head.args[0] is a
        assert p.clauses[1].head.args[1].args[0] is a
        assert p.clauses[2].head.args[0] is p.clauses[3].head.args[0]

    def test_query_conjunction(self):
        atoms = parse_query("resource(X,Y), zeros(Y)")
        assert len(atoms) == 2
        assert variables_of(atoms[0]) >= variables_of(atoms[1])


class TestTokenTable:
    # The README's token table, checked on every code point below U+10000:
    # a name character continues a name, and a name starting with an
    # uppercase letter or "_" is a variable; a space is skipped; any other
    # character that is not punctuation or "%" is an error token at its
    # own line:col, even one, like "Ⓐ", that is uppercase.
    def test_every_code_point_below_u10000(self):
        kinds = {"name": 0, "skipped": 0, "error": 0}
        for code in range(0x10000):
            c = chr(code)
            if c in "()[],.|%":
                continue
            if c.isalnum() or c == "_":
                kinds["name"] += 1
                (atom,) = parse_query(f"pred(a{c},{c})")
                longer, alone = atom.args
                assert longer == Struct(Symbol("a" + c, 0)), hex(code)
                assert isinstance(alone, Var) == (c.isupper() or c == "_"), hex(code)
            elif c.isspace():
                kinds["skipped"] += 1
                (atom,) = parse_query(f"pred({c}a)")
                assert atom == Struct(Symbol("pred", 1), (Struct(Symbol("a", 0)),)), hex(code)
            else:
                kinds["error"] += 1
                with pytest.raises(ParseError) as exc:
                    parse_query(f"pred({c})")
                assert (exc.value.line, exc.value.column) == (1, 6), hex(code)
                assert exc.value.message == "expected a name", hex(code)
        assert min(kinds.values()) > 20, kinds


def depth(t) -> int:
    """Depth of a term along its last arguments, without recursion."""
    n = 0
    while t.args:
        t = t.args[-1]
        n += 1
    return n


class TestDeepInputs:
    # The reader keeps open terms on an explicit stack, so input depth is
    # not bounded by the interpreter's recursion limit.
    N = 100_000

    def test_deep_query(self):
        (atom,) = parse_query("nat(" + "s(" * self.N + "0" + ")" * self.N + ")")
        assert depth(atom) == self.N + 1

    def test_long_list_fact(self):
        p = parse_program("p([" + ",".join(["a"] * self.N) + "]).")
        assert depth(p.clauses[0].head) == self.N + 1

    def test_nested_brackets(self):
        p = parse_program("p(" + "[" * self.N + "]" * self.N + ").")
        t = p.clauses[0].head.args[0]
        for _ in range(self.N - 1):
            assert t.symbol == Symbol("cons", 2)
            t = t.args[0]
        assert t == Struct(Symbol("nil", 0))


def index_rows(p: Program) -> list:
    """The first-argument index of ``p``, as plain lists."""
    return [(sym, pred.every, pred.var_first, list(pred.by_first.items()), pred.rules)
            for sym, pred in p._index.items()]


def unbuilt(p: Program) -> set[int]:
    """Indices of the clauses of ``p`` not built yet."""
    return {ci for ci, c in enumerate(p._entries) if c.__class__ is not Clause}


def one_more_argument(t: Struct) -> Struct:
    """``t`` with its name at one more arity, and itself as the last argument."""
    return Struct(Symbol(t.symbol.name, t.symbol.arity + 1), (*t.args, t))


# What follows a line, and what stands between a fact's ")" and its ".":
# every clause still starts a line.
LINE_ENDS = ["\n", "\n", "\n\n", "\r\n", " % p(a). q\n", "\n% e(a,b).\n\n"]
BEFORE_PERIOD = ["", "", " ", "\n", "\r\n", " % c\n"]


def with_flat_facts(rnd: random.Random, text: str) -> str:
    """``text`` with flat facts of its predicates put between its lines:
    each argument a constant, a variable or ``_``, so some are ground.  Lines
    end in blank lines, ``\\r\\n`` or comments too, and a fact may have a
    space, a line end or a comment before its "."."""
    p = parse_program(text)
    constants = [name for name, sym in p.signature.items() if sym.arity == 0] or ["k0"]
    lines = text.splitlines()
    for sym in p.predicates():
        if not sym.arity:
            continue
        for _ in range(rnd.randint(1, 3)):
            args = [rnd.choice(constants) if rnd.random() < 0.7 else rnd.choice(["X", "Y", "_"])
                    for _ in range(sym.arity)]
            fact = f"{sym.name}({','.join(args)}){rnd.choice(BEFORE_PERIOD)}."
            lines.insert(rnd.randint(0, len(lines)), fact)
    return "".join(line + rnd.choice(LINE_ENDS) for line in lines)


def tokens_read(text: str) -> int:
    """The tokens made while ``text`` is parsed as a program."""
    parser = _Parser(text)
    parser.program()
    return len(parser.matches)


class TestFlatCompounds:
    # A ground flat fact is read with one pattern match, makes no token, and
    # is built on first use.  A space after each "(" keeps every fact off
    # that path, and the parse must not change.
    def test_same_parse_as_the_plain_reader(self):
        rnd = random.Random(seed())
        texts = [program_to_text(random_program(rnd, FreshVars())[0]) for _ in range(200)]
        texts += [path.read_text(encoding="utf-8") for path in sorted(PROGRAMS.glob("*.lp"))]
        tokens = spaced_tokens = lazy = 0
        for text in [with_flat_facts(rnd, t) for t in texts]:
            spaced = text.replace("(", "( ")
            fresh, spaced_fresh = FreshVars(), FreshVars()
            p, q = parse_program(text, fresh), parse_program(spaced, spaced_fresh)
            assert not unbuilt(q)
            lazy += len(unbuilt(p))
            # The variables drawn, a query's included, are the same.
            assert parse_query("p(X,Y)", fresh) == parse_query("p(X,Y)", spaced_fresh)
            # Signature, warnings and index come before any clause is built.
            assert list(p.signature.items()) == list(q.signature.items())
            assert p.warnings == q.warnings
            assert p.predicates() == q.predicates()
            assert index_rows(p) == index_rows(q)
            for c in q.clauses:
                # Each head, the head with one more argument, and the head
                # with its first argument given one more argument.
                head = c.head
                atoms = [head, one_more_argument(head)]
                if head.args and isinstance(head.args[0], Struct):
                    longer = one_more_argument(head.args[0])
                    atoms.append(Struct(head.symbol, (longer, *head.args[1:])))
                for atom in atoms:
                    assert list(p.candidates(atom)) == list(q.candidates(atom))
                    assert list(p.candidates(atom, True)) == list(q.candidates(atom, True))
            order = list(range(len(q.clauses)))
            rnd.shuffle(order)
            for ci in order:
                assert p.clause(ci) == q.clauses[ci]  # spans too: one clause a line
                assert p.clause(ci) is p.clause(ci)
            assert p.clauses == q.clauses and not unbuilt(p)
            assert [list(c.var_positions.items()) for c in p.clauses] == [
                list(c.var_positions.items()) for c in q.clauses
            ]
            assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
            tokens += tokens_read(text)
            spaced_tokens += tokens_read(spaced)
        assert tokens < spaced_tokens  # the pattern path was taken
        assert lazy  # and some facts were left unbuilt

    def test_signature_and_ground_terms_are_read_from_the_rows(self, capsys, tmp_path):
        text = "edge(a,b). edge(b,c).\n"
        p = parse_program(text)
        assert list(p.signature) == ["a", "b", "edge", "c"]
        assert p.signature["edge"] is p.signature["edge"] == Symbol("edge", 2)
        assert {term_to_text(t) for t in ground_terms(p, 1)} >= {"a", "b", "c"}
        assert unbuilt(p) == {0, 1}
        path = tmp_path / "rows.lp"
        path.write_text(text)
        assert main(["oracle", str(path), "--cap", "2"]) == 0
        assert capsys.readouterr().out == "edge(a,b)\nedge(b,c)\n"


class TestIndex:
    def test_name_keyed_index_keeps_symbol_answers(self):
        # With a constant first argument keyed by its name, the index still
        # tells symbols apart by arity: a predicate or a first argument the
        # program uses at another arity is offered what an unknown one is.
        p = parse_program("edge(a,b).\nedge(b,c).\np(X) :- edge(X,Y).")
        cases = [
            ("edge(a)", [], []),
            ("edge(a,b,c)", [], []),
            ("edge(a(x),Y)", [], []),
            ("edge(X,Y)", [0, 1], []),
            ("edge(b,Y)", [1], [1]),
        ]
        for text, unifying, matching in cases:
            (atom,) = parse_query(text)
            assert list(p.candidates(atom)) == unifying, text
            assert list(p.candidates(atom, True)) == matching, text

    def test_a_name_at_two_arities_in_a_program_built_by_hand(self):
        # The parser rejects such a program, but the constructor takes it.
        a, b = Struct(Symbol("a", 0)), Struct(Symbol("b", 0))
        a1 = Struct(Symbol("a", 1), (b,))
        p1, p2 = Symbol("p", 1), Symbol("p", 2)
        X = Var(1, "X")
        p = Program((Clause(Struct(p1, (a,))), Clause(Struct(p2, (a, b))),
                     Clause(Struct(p1, (a1,))), Clause(Struct(p1, (X,)))))
        assert p.predicates() == [p1, p2]
        assert list(p.candidates(Struct(p1, (a,)))) == [0, 3]
        assert list(p.candidates(Struct(p1, (a1,)))) == [2, 3]
        assert list(p.candidates(Struct(p2, (a, X)))) == [1]
        assert list(p.candidates(Struct(Symbol("p", 3), (a, X, X)))) == []


PATH_RULES = "path(X,Y) :- edge(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y).\n"


def edge_program(n: int, rnd: random.Random) -> str:
    """``n`` edge/2 facts of a random tree over n0 .. n<n>, plus path/2."""
    edges = [(f"n{rnd.randrange(j)}", f"n{j}") for j in range(1, n + 1)]
    rnd.shuffle(edges)
    return "".join(f"edge({a},{b}).\n" for a, b in edges) + PATH_RULES


class TestParseWork:
    # Counted work of parse_program on wide programs, at three doubling
    # sizes: counts do not depend on machine speed.
    SIZES = (300, 600, 1200)

    def test_ground_facts_make_no_token(self):
        rnd = random.Random(seed())
        rules = tokens_read(PATH_RULES)
        for n in self.SIZES:
            assert tokens_read(edge_program(n, rnd)) == rules

    def test_structs_grow_linearly(self, structs):
        rnd = random.Random(seed())
        counts = []
        for n in self.SIZES:
            text = edge_program(n, rnd)
            structs.n = 0
            p = parse_program(text)
            p.candidates(p.clause(0).head)
            counts.append(structs.n)
        assert grows_at_most(counts, 2.1), counts

    def test_ground_facts_build_no_clause_and_no_head(self, structs, monkeypatch):
        # Neither the edge/2 heads and their clauses nor the node constants
        # and symbols are built until a search reads them.
        rnd = random.Random(seed())
        clauses = SimpleNamespace(n=0)
        construct = Clause.__init__

        def counted(self, *args):
            clauses.n += 1
            construct(self, *args)

        monkeypatch.setattr(Clause, "__init__", counted)
        parse_program(PATH_RULES)
        rules = (clauses.n, structs.n)
        for n in self.SIZES:
            clauses.n = structs.n = 0
            p = parse_program(edge_program(n, rnd))
            assert (clauses.n, structs.n) == rules
            assert unbuilt(p) == set(range(n))


def numeral(n: int, inner: str) -> str:
    return "s(" * n + inner + ")" * n


class TestSearchWork:
    # Counted work of a search, parsing included, on the scaling families
    # at three doubling sizes.  A family that grows faster than linearly
    # today carries its target bound and a strict xfail that names the
    # ROADMAP item meant to bring it down; only the bound may fail there
    # (``raises=AssertionError``), so a wrong status still fails outright.

    def test_sld_nat_of_open_numeral_is_linear(self, structs):
        steps, built = [], []
        for n in (100, 200, 400):
            structs.n = 0
            prog, query, fresh = load_query("nat", f"nat({numeral(n, 'X')})")
            result = refute(prog, query, "sld", Limits(), fresh)
            assert result.status is Status.REFUTED
            steps.append(result.steps_used)
            built.append(structs.n)
        assert grows_at_most(steps, 2.1), steps
        assert grows_at_most(built, 2.1), built

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
    @pytest.mark.parametrize("mode", ["colp", "restricted"])
    def test_co_nat_of_ground_numeral_is_linear(self, mode):
        limits = Limits(max_steps=10**6, max_rewrite_chain=10**4)
        steps = []
        for n in (25, 50, 100):
            prog, query, fresh = load_query("nat", f"nat({numeral(n, '0')})")
            result = co_refute(prog, query, mode, limits, fresh)
            if result.status is not Status.REFUTED:
                pytest.fail(f"nat(s^{n}(0)) gave {result.status} in {mode}")
            steps.append(result.steps_used)
        assert grows_at_most(steps, 2.1), steps

    @pytest.mark.parametrize("mode", ["s", "colp", "restricted"])
    def test_ground_atoms_get_no_production_attempt(self, monkeypatch, mode):
        # On nat(s^96(0)) each of the 65 atoms of the cut rewriting chain is
        # rewritten once; a substitution step on a ground atom cannot find
        # a proper unifier, and is no longer attempted (130 heads before).
        calls = SimpleNamespace(n=0)
        resolve = unify.resolve_head

        def counted(*args, **kwargs):
            calls.n += 1
            return resolve(*args, **kwargs)

        monkeypatch.setattr(derivation, "resolve_head", counted)
        monkeypatch.setattr(coengine, "resolve_head", counted)
        prog, query, fresh = load_query("nat", f"nat({numeral(96, '0')})")
        if mode == "s":
            result = refute(prog, query, mode, Limits(), fresh)
        else:
            result = co_refute(prog, query, mode, Limits(), fresh)
        assert result.diverged
        assert calls.n == 65

    @pytest.mark.parametrize("mode", ["colp", "restricted"])
    def test_co_nat_of_ground_numeral_charges_in_linear_calls(self, monkeypatch, mode):
        # The loop check still charges every ancestor (steps_used is the
        # quadratic 351/1,326/5,151 that the xfail above holds against
        # item 3), but a run of dropped candidates costs one call.
        calls = SimpleNamespace(n=0)
        for name in ("charge", "charge_each"):
            method = getattr(_SearchState, name)

            def counted(state, n, method=method):
                calls.n += 1
                return method(state, n)

            monkeypatch.setattr(_SearchState, name, counted)
        limits = Limits(max_steps=10**6, max_rewrite_chain=10**4)
        steps, charges = [], []
        for n in (25, 50, 100):
            calls.n = 0
            prog, query, fresh = load_query("nat", f"nat({numeral(n, '0')})")
            result = co_refute(prog, query, mode, limits, fresh)
            assert result.status is Status.REFUTED
            steps.append(result.steps_used)
            charges.append(calls.n)
        assert steps == [351, 1326, 5151]
        assert grows_at_most(charges, 2.1), charges

    @pytest.mark.parametrize("mode", ["sld", "s", "cos"])
    def test_path_query_builds_only_candidate_clauses(self, monkeypatch, mode):
        returned: set[int] = set()
        candidates = Program.candidates

        def recorded(self, atom, matching=False):
            got = candidates(self, atom, matching)
            returned.update(got)
            return got

        monkeypatch.setattr(Program, "candidates", recorded)
        rnd = random.Random(seed())
        fresh = FreshVars()
        p = parse_program(edge_program(300, rnd), fresh)
        query = parse_query(f"path(n0,n{rnd.randrange(1, 301)})", fresh)
        if mode == "cos":
            coengine.preflight_warnings(p)
            assert unbuilt(p) == set(range(300))  # the preflight reads no edge/2 fact
            result = co_refute(p, query, "restricted", Limits(), fresh)
        else:
            result = refute(p, query, mode, Limits(), fresh)
        assert result.status is Status.REFUTED
        built = set(range(len(p._entries))) - unbuilt(p)
        assert built - {300, 301} <= returned
        assert unbuilt(p)

    def test_path_query_builds_no_name_of_an_unread_fact(self, structs, monkeypatch):
        # Parse plus an sld path/2 query along a chain of four edges, among
        # facts it never reads, builds as many Symbols and Structs at every
        # size.
        symbols = SimpleNamespace(n=0)
        construct = Symbol.__init__

        def counted(self, *args):
            symbols.n += 1
            construct(self, *args)

        monkeypatch.setattr(Symbol, "__init__", counted)
        rnd = random.Random(seed())
        built = []
        for n in (300, 600, 1200):
            edges = [f"edge(n{k},n{k + 1}).\n" for k in range(4)]
            edges += [f"edge(m{rnd.randrange(j)},m{j}).\n" for j in range(1, n - 3)]
            rnd.shuffle(edges)
            symbols.n = structs.n = 0
            fresh = FreshVars()
            p = parse_program("".join(edges) + PATH_RULES, fresh)
            result = refute(p, parse_query("path(n0,n4)", fresh), "sld", Limits(), fresh)
            assert result.status is Status.REFUTED
            built.append((symbols.n, structs.n))
        assert built[0] == built[1] == built[2], built

    def test_sld_case2_to_its_step_limit_is_linear(self, structs):
        built = []
        for max_steps in (100, 200, 400):
            structs.n = 0
            prog, query, fresh = load_query("case2", "resource(X,Y), zeros(Y)")
            result = refute(prog, query, "sld", Limits(max_steps=max_steps), fresh)
            if result.limits_hit != ("max_steps",):
                pytest.fail(f"case2 at {max_steps} steps hit {result.limits_hit}")
            built.append(structs.n)
        assert grows_at_most(built, 2.2), built

    @pytest.mark.parametrize("mode", [
        "sld",
        "s",
        *(pytest.param(mode, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="each tried loop candidate is rebuilt through the store from its "
                   "built form, and a fibs ancestor's stream grows (ROADMAP item 11)",
        )) for mode in ("colp", "restricted")),
    ])
    def test_fibs_to_its_step_limit_is_linear(self, structs, mode):
        # The stream's atoms keep a growing non-ground list, so applying
        # each step's bindings to the whole goal made this quadratic (sld
        # 6,845 / 23,221 / 112,931 Structs, s 1,623 / 7,096 / 23,722).
        built = []
        for max_steps in (250, 500, 1000):
            structs.n = 0
            prog, query, fresh = load_query("fibs", "fibs(0,s(0),S)")
            limits = Limits(max_steps=max_steps)
            if mode in ("sld", "s"):
                result = refute(prog, query, mode, limits, fresh)
            else:
                result = co_refute(prog, query, mode, limits, fresh)
            if result.limits_hit != ("max_steps",):
                pytest.fail(f"fibs at {max_steps} steps hit {result.limits_hit}")
            built.append(structs.n)
        assert grows_at_most(built, 2.2), built

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="a proper unifier's bindings are resolved over the whole growing atom "
               "(ROADMAP item 11)",
    )
    def test_sld_ex52_resolves_its_unifiers_in_linear_work(self):
        # resolve_head walks every binding of a step's unifier over the
        # atom, which grows by one level a step: _resolve_full ran 78,450 /
        # 306,900 / 1,213,800 lines at 100 / 200 / 400 steps.
        lines = []
        for max_steps in (100, 200, 400):
            prog, query, fresh = load_query("ex52", "p(Y,s(X))")
            with counting_lines(unify._resolve_full.__code__) as counted:
                result = refute(prog, query, "sld", Limits(max_steps=max_steps), fresh)
            if result.limits_hit != ("max_steps",):
                pytest.fail(f"ex52 at {max_steps} steps hit {result.limits_hit}")
            lines.append(counted.n)
        assert grows_at_most(lines, 2.2), lines


class TestClauseObjects:
    # Pinned like the term objects: the frozen dataclasses they replace
    # compared, hashed and printed the same way.
    def test_equality_hash_and_repr(self):
        head = Struct(Symbol("p", 1), (Var(1, "X"),))
        body = (Struct(Symbol("q", 1), (Var(1, "X"),)),)
        c = Clause(head, body, Span(2, 3))
        assert Span(2, 3) == Span(2, 3) and Span(2, 3) != Span(3, 2)
        assert Span(2, 3) != (2, 3) and hash(Span(2, 3)) == hash((2, 3))
        assert c == Clause(head, body, Span(2, 3)) and c is not Clause(head, body, Span(2, 3))
        assert c != Clause(head, body) and c != Clause(head, (), Span(2, 3))
        assert hash(c) == hash((head, body, Span(2, 3)))
        assert Clause(head) == Clause(head, (), Span(0, 0))
        assert repr(Span(2, 3)) == "Span(line=2, column=3)" and str(Span(2, 3)) == "2:3"
        assert repr(c) == f"Clause(head={head!r}, body={body!r}, span=Span(line=2, column=3))"
        assert str(c) == "p(X) :- q(X)."

    def test_immutable(self):
        c = Clause(Struct(Symbol("p", 0)))
        for obj, name in ((Span(1, 1), "line"), (c, "head"), (c, "span")):
            assert not hasattr(obj, "__dict__")
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
            with pytest.raises(AttributeError):
                setattr(obj, "extra", None)

    def test_variable_head_rejected(self):
        with pytest.raises(ValueError, match="clause head must not be a variable"):
            Clause(Var(1, "X"), (Struct(Symbol("p", 0)),))


class TestCheckUniversal:
    def test_existential_variable_flagged(self):
        p = parse_program("p(Y) :- nats(X).")
        report = check_universal(p)
        assert not report.universal
        (_, _, extras), = report.violations
        assert [v.hint for v in extras] == ["X"]

    def test_fibs_violation(self):
        p, _ = load("fibs")
        report = check_universal(p)
        assert len(report.violations) == 1
        i, _, extras = report.violations[0]
        assert i == 2
        assert [v.hint for v in extras] == ["Z"]

    def test_nats_universal(self):
        p, _ = load("nats")
        assert check_universal(p).universal

    def test_matches_set_containment_oracle(self):
        p = parse_program(
            "p(X) :- q(X,Y). q(X,X). r(f(A,B)) :- r(A), s(B). t(X) :- t(s(X))."
        )
        report = check_universal(p)
        flagged = {i for i, _, _ in report.violations}
        for i, c in enumerate(p.clauses):
            body_vars = set().union(*[variables_of(b) for b in c.body], set())
            assert (i in flagged) == (not body_vars <= variables_of(c.head))


class TestClauseInstance:
    def test_fresh_variant(self):
        p = parse_program("p(X,Y) :- q(X), r(Y).")
        fresh = FreshVars(1000)
        c2 = clause_instance(p.clauses[0], fresh)
        orig_vars = set(p.clauses[0].var_positions)
        assert variables_of(c2.head).isdisjoint(orig_vars)

    def test_successive_instances_disjoint(self):
        p = parse_program("p(X,Y) :- q(X).")
        fresh = FreshVars(1000)
        a = clause_instance(p.clauses[0], fresh)
        b = clause_instance(p.clauses[0], fresh)
        assert variables_of(a.head).isdisjoint(variables_of(b.head))

    def test_ground_clause_unchanged(self):
        p = parse_program("nat(0).")
        fresh = FreshVars(1000)
        assert clause_instance(p.clauses[0], fresh).head == p.clauses[0].head
