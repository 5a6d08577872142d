"""Golden pin of what the parser says about its inputs.

``tests/golden/parse_errors.json`` records, for every corpus program and
for a set of program and query texts (most of them malformed), either the
``ParseError`` text with its ``line:col`` or, when the text parses, each
clause with its span and the program's warnings.  Tabs, ``\\r\\n`` line
ends and clauses over several lines are among the inputs, so the positions
of tokens and of the end of input are pinned as well as the messages.

Regenerate only when a change of parser behaviour is intended, and say so:

    PYTHONPATH=src python tests/test_parse_errors.py
"""

import json
from pathlib import Path

import pytest

from conftest import PROGRAMS
from coresolve.program import ParseError, clause_to_text, parse_program, parse_query
from coresolve.terms import term_to_text

GOLDEN = Path(__file__).resolve().parent / "golden" / "parse_errors.json"

# (label, "program" or "query", text)
CASES = [
    # From TestParse and the CLI tests.
    ("unclosed paren", "program", "p(X) :- q(X"),
    ("arity clash", "program", "p(a). p(a,b)."),
    ("reserved diamond", "program", "p(◇)."),
    ("variable head", "program", "X :- p(X)."),
    ("query end of input", "query", "nat("),
    # Unclosed brackets and parens.
    ("unclosed bracket", "program", "p([a,b)."),
    ("unclosed paren over lines", "program", "p(X) :-\n  q(X,\n    r(X)\n.\n"),
    ("unclosed list at end", "program", "p([a,b"),
    # Stray characters.
    ("stray colon", "program", "p(a) : q(a)."),
    ("stray minus", "program", "p(a) :- -q(a)."),
    ("neck then minus", "program", "p(a) :-- q(a)."),
    ("neck in head position", "program", ":- p."),
    ("diamond after tab", "program", "p(X) :-\tq(◇)."),
    ("bad char after comment", "program", "% comment\np(a). % another\n  $p(b).\n"),
    ("stray bracket", "program", "p(a). ]"),
    ("bad char after line separator", "program", "p(a).\u2028$"),
    # Arity clashes report where the symbol was first declared.
    ("arity clash over lines", "program", "p(a).\n\nq(b) :- p(a, b).\n"),
    ("arity clash nested", "program", "p(p(a,b))."),
    ("arity clash with nil", "program", "nil(a).\np([a])."),
    ("arity clash with empty list", "program", "nil(a).\np([])."),
    ("arity clash with cons", "program", "cons(a). p([a|b])."),
    # A symbol is declared when its term closes: nil before the closing
    # bracket is checked, cons and compounds after it.
    ("nil clash before unclosed list", "program", "nil(a). p([a"),
    ("cons after unclosed list", "program", "cons(a). p([a|b"),
    ("inner clash in unclosed compound", "program", "p(p(a,b)"),
    ("inner declaration wins", "program", "p(q(a), q)."),
    # End of input.
    ("end after neck", "program", "p(a) :- "),
    ("end after neck and comment", "program", "p(a) :- % nothing here"),
    ("end after comma and comment", "program", "p(a) :- q(a) , % c\n"),
    ("end without period", "program", "p(a)\n"),
    # Variable heads.
    ("variable head on second line", "program", "p(a).\n  X :- p(X)."),
    ("variable applied as head", "program", "Foo(a)."),
    ("anonymous head", "program", "_ :- p."),
    # Other misplaced tokens.
    ("empty arguments", "program", "p()."),
    ("missing argument", "program", "p(a,)."),
    ("missing body atom", "program", "p(a) :- q(a), ."),
    ("double period", "program", "p(X) :- q(X).."),
    ("variable applied in body", "program", "p(X) :- q(X(a))."),
    ("list tail then comma", "program", "p([a|b,c])."),
    ("empty list tail", "program", "p([a|])."),
    # Tabs and \r\n line ends.
    ("tabs", "program", "p(a).\n\tq(b) :-\tr(b)\tx."),
    ("crlf", "program", "p(a).\r\nq(b) :- r(b)\r\n.\r\nq(c) :- )\r\n"),
    ("multi-line clause without period", "program", "p(X) :-\n  q(X),\n  r(X)\np(a)."),
    # Queries.
    ("query trailing clause", "query", "nat(0). nat(s(0))"),
    ("query trailing atom", "query", "nat(0) nat(0)"),
    ("query trailing paren", "query", "nat(0))"),
    ("query empty", "query", ""),
    ("query only comment", "query", "% nothing"),
    ("query neck", "query", "p :- q"),
    # Inputs that parse.
    ("unicode names", "program", "p(ä). q(É, x²)."),
    ("no-break space", "program", "p(a).\u00a0q(b)."),
    ("crlf program", "program", "nat(0).\r\nnat(s(X)) :-\r\n\tnat(X).\r\n"),
    ("list sugar", "program", "q([a,b]). r([H|T]) :- r(T). e([])."),
    ("query conjunction", "query", "resource(X,Y), zeros(Y)"),
    ("query with period", "query", "nat(0)."),
    ("query lists", "query", "p([a,b|T], _, _, [])"),
    # Compounds whose arguments are all names, with nothing skipped inside:
    # a ground one as a fact is read with one pattern match, any other as a
    # clause of tokens.
    ("flat variable functor", "program", "X(a)."),
    ("flat variable functor inside", "program", "p(X(a))."),
    ("flat compound applied", "program", "f(a,b)(c)."),
    ("flat arity clash on argument", "program", "a(x). e(a,b)."),
    ("flat arity clash on functor", "program", "e(a,b). a(x)."),
    ("flat inner declaration wins", "program", "q(p(a),p)."),
    ("flat without period", "program", "p(a,b)"),
    ("flat trailing comma", "program", "p(a,b,)."),
    ("flat missing comma", "program", "p(a b)."),
    ("flat tab inside", "program", "p(a,\tb)."),
    ("flat non-ascii name", "program", "p(Ä,b)."),
    ("flat nil clash", "program", "nil(a). p(x,nil)."),
    ("flat facts over lines", "program", "e(n1,n2). e(n2,n3).\n  e(n3,n4)."),
    # A ground flat fact is checked as it is read, though its clause is
    # built only when first used.
    ("clash with a constant of a ground fact far above", "program",
     "e(a,b).\n" + "".join(f"e(n{k},n{k + 1}).\n" for k in range(49)) + "p(X) :- b(X).\n"),
    ("flat fact with variables between ground facts", "program",
     "e(a,b).\ne(X,X).\ne(b,Y).\ne(c,d).\n"),
    # A ground flat fact is read with one pattern match, and any other
    # clause is tokenized on its own: these pin the edges of a run of facts.
    ("fact argument declared as a functor", "program", "edge(a,b). edge(b,edge)."),
    ("functor at another arity after a run", "program", "e(a,b).\ne(b,c).\n  e(c)."),
    ("functor at another arity in a rule after a run", "program",
     "e(a,b).\ne(b,c).\np(X) :- e(X)."),
    ("comment between paren and period", "program", "e(a,b) % c\n. e(b,c).\n"),
    ("period in a comment after a fact", "program", "e(a,b). % e(b,c).\ne(c,d) % e.\n.\n"),
    ("fact in a comment before a rule", "program", "e(a,b). % e(b,c).\np(X) :- e(X,Y).\n"),
    ("period in a comment inside a rule", "program", "p(X) :- % see q.\n  q(X).\nq(a).\n"),
    ("newline before period then a fact", "program", "e(a,b)\n.\ne(b,c).\n  e(c,d)\n\n.e(d,f).\n"),
    ("run ending in an unclosed fact", "program", "e(a,b).\ne(b,c).\ne(c,d"),
    ("run ending in a fact without period", "program", "e(a,b).\ne(b,c)\n"),
    ("crlf fact run", "program", "e(a,b).\r\ne(b,c)\r\n.\r\n e(c,d).\r\n"),
    ("crlf fact run with an error", "program", "e(a,b).\r\ne(b,c).\r\n  e(c,$).\r\n"),
]


# A ground flat fact is checked against the same arity table as every
# other term, so a clash between such a fact and a rule or a nested term
# reads the same whichever of the two comes first.
ROW_AND_RULE_CLASHES = [
    ("edge(a,b).\nq(X) :- edge(X).",
     "2:9: symbol 'edge' used with arity 1 but declared with arity 2 at 1:1"),
    ("edge(a,b).\np(a(X)).", "2:3: symbol 'a' used with arity 1 but declared with arity 0 at 1:6"),
    ("p(a(b)).\nedge(a,b).", "2:6: symbol 'a' used with arity 0 but declared with arity 1 at 1:3"),
    ("p(X) :- q(X, edge).\nedge(a,b).",
     "2:1: symbol 'edge' used with arity 2 but declared with arity 0 at 1:14"),
    ("edge(a,b).\nedge(c,d,e).",
     "2:1: symbol 'edge' used with arity 3 but declared with arity 2 at 1:1"),
    ("e(a,b).\ne(b,a(c)).", "2:5: symbol 'a' used with arity 1 but declared with arity 0 at 1:3"),
]


@pytest.mark.parametrize("text,error", ROW_AND_RULE_CLASHES)
def test_rows_and_rules_report_arity_errors_alike(text, error):
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert str(exc.value) == error


def corpus_cases():
    return [
        (f"corpus {path.stem}", "program", path.read_text(encoding="utf-8"))
        for path in sorted(PROGRAMS.glob("*.lp"))
    ]


def observe(kind: str, text: str) -> dict:
    try:
        if kind == "program":
            p = parse_program(text)
            return {
                "clauses": [f"{c.span} {clause_to_text(c)}" for c in p.clauses],
                "warnings": list(p.warnings),
            }
        return {"atoms": [term_to_text(t) for t in parse_query(text)]}
    except ParseError as exc:
        return {"error": str(exc)}


def every_case():
    return corpus_cases() + CASES


def load_golden() -> dict:
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {r["label"]: r for r in records}


def record(label: str, kind: str, text: str) -> dict:
    return {"label": label, "kind": kind, "text": text, **observe(kind, text)}


def test_golden_covers_every_case():
    assert sorted(load_golden()) == sorted(label for label, _, _ in every_case())


@pytest.mark.parametrize("label,kind,text", every_case(), ids=[c[0] for c in every_case()])
def test_matches_golden(label, kind, text):
    assert record(label, kind, text) == load_golden()[label]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps([record(*case) for case in every_case()], indent=1, ensure_ascii=False)
        + "\n",
        encoding="utf-8",
    )
