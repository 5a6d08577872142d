"""Parsing and printing of logic programs and queries, plus the
universality static check (every body variable must occur in the head).

Syntax: a Prolog-like subset.  Clauses are ``head :- b1, ..., bn.`` or
facts ``head.``; ``%`` starts a line comment.  A name is ``\\w+``; it is a
variable when it starts with an uppercase letter or ``_``, and a symbol
otherwise.  List sugar ``[]``/``[H|T]`` desugars to ``nil``/``cons(H,T)``.
No operators, negation, cut, or built-ins.  A ``ParseError`` gives the
``line:col`` of the token where the error was found, or of the end of the
input.
"""

from __future__ import annotations

import re
from bisect import bisect
from functools import cached_property
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence, Union

from .terms import (
    FreshVars,
    Struct,
    Substitution,
    Symbol,
    Term,
    Var,
    apply_raw,
    immutable_setattr,
    term_to_text,
    variables_in_order,
    variables_of,
)


class Span:
    """Where a clause starts: line and column, both counted from 1."""

    __slots__ = ("line", "column")
    __setattr__ = __delattr__ = immutable_setattr

    line: int
    column: int

    def __init__(self, line: int, column: int) -> None:
        _set_span_line(self, line)
        _set_span_column(self, column)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Span:
            return NotImplemented
        return (self.line, self.column) == (other.line, other.column)

    def __hash__(self) -> int:
        return hash((self.line, self.column))

    def __repr__(self) -> str:
        return f"Span(line={self.line!r}, column={self.column!r})"

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


# The slot setters the constructors use, since the classes refuse setattr.
_set_span_line = Span.line.__set__  # type: ignore[attr-defined]
_set_span_column = Span.column.__set__  # type: ignore[attr-defined]


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class Clause:
    """``head :- body.``, or the fact ``head.`` when the body is empty.  Slotted
    like the terms; ``var_positions`` numbers its variables as they occur."""

    __slots__ = ("head", "body", "span", "var_positions")
    __setattr__ = __delattr__ = immutable_setattr

    head: Term
    body: tuple[Term, ...]
    span: Span
    var_positions: dict[Var, int]

    def __init__(self, head: Term, body: tuple[Term, ...] = (), span: Span = Span(0, 0),
                 var_positions: Optional[dict[Var, int]] = None) -> None:
        if isinstance(head, Var):
            raise ValueError("clause head must not be a variable")
        if var_positions is None:
            var_positions = {v: k for k, v in enumerate(variables_in_order([head, *body]))}
        _set_clause_head(self, head)
        _set_clause_body(self, body)
        _set_clause_span(self, span)
        _set_clause_var_positions(self, var_positions)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Clause:
            return NotImplemented
        return (self.head, self.body, self.span) == (other.head, other.body, other.span)

    def __hash__(self) -> int:
        return hash((self.head, self.body, self.span))

    def __repr__(self) -> str:
        return f"Clause(head={self.head!r}, body={self.body!r}, span={self.span!r})"

    def __str__(self) -> str:
        return clause_to_text(self)


_set_clause_head = Clause.head.__set__  # type: ignore[attr-defined]
_set_clause_body = Clause.body.__set__  # type: ignore[attr-defined]
_set_clause_span = Clause.span.__set__  # type: ignore[attr-defined]
_set_clause_var_positions = Clause.var_positions.__set__  # type: ignore[attr-defined]


class _PredicateIndex:
    """The clauses of one predicate, as indices in clause order: all of
    them, those whose head has a variable first argument (or no argument),
    and per principal symbol of a bound first argument (``_first_key``),
    the clauses with that symbol there together with the variable-first
    ones; and whether any of them has a body."""

    __slots__ = ("every", "var_first", "by_first", "rules")

    def __init__(self) -> None:
        self.every: list[int] = []
        self.var_first: list[int] = []
        self.by_first: dict[Union[str, Symbol], list[int]] = {}
        self.rules = False


def _first_key(sym: Symbol) -> Union[str, Symbol]:
    """The index key of a first argument's principal symbol: the name of a
    constant, all that the row of a ground flat fact keeps, or the symbol."""
    return sym if sym.arity else sym.name


class Program:
    """Clauses, with the parser's symbols and warnings; equality and hash
    read the clauses only.  Immutable; ``clauses``, ``_index`` and, for a
    parsed program, ``signature`` are cached in its dict.

    A parsed program shares the parser's names, and keeps a ground flat
    fact, such as ``edge(n5,n17).``, as a ``(name, arg_names, offset)`` row
    that ``clause`` builds on first use, its span read off ``_line_starts``:
    a query pays for what it reads."""

    __setattr__ = __delattr__ = immutable_setattr

    warnings: tuple[str, ...]

    def __init__(self, clauses: Sequence[Clause], signature: Optional[dict[str, Symbol]] = None,
                 warnings: tuple[str, ...] = ()) -> None:
        vars(self).update(_entries=list(clauses), signature={} if signature is None else signature,
                          warnings=warnings)

    @cached_property
    def signature(self) -> dict[str, Symbol]:
        """Each symbol by name, in declaration order, built on first read."""
        return {name: self._symbol(name, arity) for name, arity in self._arities.items()}

    def _symbol(self, name: str, arity: int) -> Symbol:
        return self._symbols.get(name) or self._symbols.setdefault(name, Symbol(name, arity))

    def _constant(self, name: str) -> Struct:
        constants = self._constants
        return constants.get(name) or constants.setdefault(name, Struct(self._symbol(name, 0)))

    def clause(self, ci: int) -> Clause:
        """Clause ``ci``, built the first time it is read."""
        c = self._entries[ci]
        if c.__class__ is not Clause:
            name, args, offset = c
            starts = self._line_starts
            line = bisect(starts, offset)
            head = Struct(self._symbol(name, len(args)), tuple(map(self._constant, args)))
            c = self._entries[ci] = Clause(head, (), Span(line, offset - starts[line - 1] + 1), {})
        return c

    @cached_property
    def _line_starts(self) -> list[int]:
        """Where each line of the parsed text starts, in text order."""
        return [0, *accumulate(len(line) + 1 for line in self._text.split("\n"))]

    @cached_property
    def clauses(self) -> tuple[Clause, ...]:
        """Every clause, built."""
        return tuple(map(self.clause, range(len(self._entries))))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Program:
            return NotImplemented
        return self.clauses == other.clauses

    def __hash__(self) -> int:
        return hash((self.clauses,))

    def __repr__(self) -> str:
        return (f"Program(clauses={self.clauses!r}, signature={self.signature!r}, "
                f"warnings={self.warnings!r})")

    @cached_property
    def _index(self) -> dict[Symbol, _PredicateIndex]:
        # First-argument indexing (Warren 1983): built on the first lookup,
        # so parsing a program does not pay for it.  It builds no clause,
        # and of a row's symbols only its predicate's.
        index: dict[Symbol, _PredicateIndex] = {}
        for ci, c in enumerate(self._entries):
            if c.__class__ is Clause:
                head = c.head
                assert isinstance(head, Struct)
                sym, first = head.symbol, head.args[0] if head.args else None
                first = _first_key(first.symbol) if isinstance(first, Struct) else None
            else:
                sym, first = self._symbols.get(c[0]) or self._symbol(c[0], len(c[1])), c[1][0]
            pred = index.get(sym)
            if pred is None:
                pred = index[sym] = _PredicateIndex()
            pred.every.append(ci)
            if c.__class__ is Clause and c.body:
                pred.rules = True
            if first is not None:
                bucket = pred.by_first.get(first)
                if bucket is None:
                    bucket = pred.by_first[first] = list(pred.var_first)
                bucket.append(ci)
            else:
                pred.var_first.append(ci)
                for bucket in pred.by_first.values():
                    bucket.append(ci)
        return index

    def predicates(self) -> list[Symbol]:
        """Head predicate symbols in first-occurrence order."""
        return list(self._index)

    def rule_clauses(self) -> list[int]:
        """Indices, in clause order, of the clauses of each predicate that
        has a clause with a body."""
        return sorted(ci for pred in self._index.values() if pred.rules for ci in pred.every)

    def candidates(self, atom: Term, matching: bool = False) -> Sequence[int]:
        """Indices, in clause order, of the clauses whose head may unify
        with ``atom`` -- or, with ``matching``, may match it (the head is
        the pattern).  Every clause left out fails: its head has another
        predicate, or a first argument whose symbol clashes with the
        atom's; and a bound first argument never matches a variable."""
        if isinstance(atom, Var):
            return () if matching else range(len(self._entries))
        pred = self._index.get(atom.symbol)
        if pred is None:
            return ()
        if not atom.args:
            return pred.every
        first = atom.args[0]
        if isinstance(first, Var):
            return pred.var_first if matching else pred.every
        sym = first.symbol
        return pred.by_first.get(sym if sym.arity else sym.name, pred.var_first)  # _first_key


class UniversalityReport(NamedTuple):
    violations: tuple[tuple[int, Span, tuple[Var, ...]], ...]

    @property
    def universal(self) -> bool:
        return not self.violations


# One pass over a clause or a query (Python ``re`` docs, "Writing a
# Tokenizer"): each match is the whitespace and ``%`` comments before one
# token, then the token, in group 1.  The token's text gives its kind
# (``_kind``): a name starts with a name character; "" is the end of the
# text, where the ``\Z`` alternative takes the trailing skip so that
# finditer never rescans it; any other token is punctuation, or one
# character that is an error.  So comparing a token's text with a
# punctuation string never needs its kind.
_SKIP = r"\s*(?:%[^\n]*(?![^\n])\s*)*"  # no backtracking into a comment
_TOKEN = re.compile(_SKIP + r"(\w+|:-|[()\[\],.|]|\Z|.)", re.DOTALL)
_token_text = itemgetter(1)
# A clause's text: up to its "." token, the first "." outside a comment.
_CLAUSE = re.compile(r"[^.%]*(?:%[^\n]*[^.%]*)*\.?")

# A ground flat fact, such as ``edge(n5,n17).``, after a skip: a symbol name
# (its first character an ASCII lowercase letter or a digit, so it is never
# a variable), "(", such names separated by "," and ")" with nothing skipped,
# then a skip and "."; the functor is group 1 and the arguments group 2.
_FACT = re.compile(_SKIP + r"([a-z0-9]\w*)\(([a-z0-9]\w*(?:,[a-z0-9]\w*)*)\)" + _SKIP + r"\.")

# The kinds of token where a term starts: variable name, symbol name, other.
_OTHER, _VARIABLE, _SYMBOL = 0, 1, 2


def _kind(tok: str) -> int:
    c = tok[:1]
    if not (c.isalnum() or c == "_"):
        return _OTHER
    return _VARIABLE if c.isupper() or c == "_" else _SYMBOL


class _Parser:
    """An explicit-stack reader over the tokens of one text.

    A program is read clause by clause: a ground flat fact is one ``_FACT``
    match, and makes no token; any other clause is tokenized up to its "."
    (``_tokenize``), a query as a whole.  Token ``i`` has text ``texts[i]``
    and match ``matches[i]``; ``texts`` has one "" more, so the reader can
    look one token past any token it reads.  Positions are text offsets.  A
    symbol or constant read outside a ground flat fact is built once per
    parse, and shared.  The wide program of the benchmark (seed 5) parses in
    0.42 ms, against 0.67 ms when every clause was tokenized (README "Programs").
    """

    def __init__(self, text: str, fresh: Optional[FreshVars] = None):
        self.text = text
        self.matches: list[re.Match[str]] = []
        self.texts: list[str] = [""]
        self.fresh = fresh or FreshVars()
        self.scope: dict[str, Var] = {}
        self.positions: dict[Var, int] = {}  # of the clause being read
        # Each name's arity in declaration order, where it was declared, and
        # the symbols and constants built.
        self.arities: dict[str, int] = {}
        self.declared_at: dict[str, int] = {}
        self.signature: dict[str, Symbol] = {}
        self.constants: dict[str, Struct] = {}
        self.warnings: list[str] = []

    def span(self, offset: int) -> Span:
        """Line and column of ``offset`` in the text."""
        return Span(self.text.count("\n", 0, offset) + 1, offset - self.text.rfind("\n", 0, offset))

    def error(self, message: str, offset: int) -> ParseError:
        """A ParseError at ``offset`` in the text."""
        span = self.span(offset)
        return ParseError(message, span.line, span.column)

    def _tokenize(self, pos: int) -> int:
        """Tokenize one clause from ``pos``, up to its "." or the end of the
        text, and return the index of its first token.  Its tokens end with
        "", the end of its text; after a "." no reader reaches it."""
        first = len(self.matches)
        self.matches += _TOKEN.finditer(self.text, pos, _CLAUSE.match(self.text, pos).end())
        self.texts[first:] = [*map(_token_text, self.matches[first:]), ""]
        return first

    def _variable(self, name: str) -> Var:
        v = self.fresh.new(name)
        self.positions[v] = len(self.positions)
        if name != "_":
            self.scope[name] = v
        return v

    def _declare(self, name: str, arity: int, offset: int) -> None:
        """Declare ``name/arity``, used at ``offset``, or check it against
        the arity ``name`` was declared with."""
        declared = self.arities.setdefault(name, arity)
        if declared != arity:
            raise self.error(f"symbol {name!r} used with arity {arity} but declared with "
                             f"arity {declared} at {self.span(self.declared_at[name])}", offset)
        self.declared_at.setdefault(name, offset)

    def _symbol(self, name: str, arity: int, offset: int) -> Symbol:
        """The symbol ``name/arity`` used at ``offset``.  One object per
        symbol in a parse, so most symbol tests pass on identity."""
        self._declare(name, arity, offset)
        return self.signature.get(name) or self.signature.setdefault(name, Symbol(name, arity))

    def _constant(self, name: str, offset: int) -> Struct:
        const = self.constants.get(name)
        if const is None:
            const = Struct(self._symbol(name, 0, offset))
            self.constants[name] = const
        return const

    def atoms(self, i: int, neck: str) -> tuple[list[Term], int]:
        """Read the terms ``t1 neck t2 , t3 , ... , tn`` from token ``i``:
        a clause with ``neck`` ``:-``, whose head ``t1`` must not be a
        variable, or a query with ``neck`` ``,``.  Returns the terms and
        the index of the token after ``tn``.

        A frame on the stack is an open compound ``[name, i, args]`` or an
        open list ``[None, i, items, after_bar]``, where ``i`` is the index
        of the token that opened it, and ``after_bar`` turns true when
        ``|`` is read.  Symbols are declared when their term closes, inner
        terms first."""
        texts, matches, signature, arities = self.texts, self.matches, self.signature, self.arities
        scope, constants = self.scope, self.constants
        atoms: list[Term] = []
        first = i
        stack: list[list] = []
        while True:
            # Read the start of a term: a complete leaf, or an open frame.
            # A symbol name before "(" opens a compound; a name read before
            # is a constant, or a variable in scope.
            tok = texts[i]
            i += 1
            if texts[i] == "(" and (tok in arities or _kind(tok) is _SYMBOL):
                stack.append([tok, i - 1, []])
                i += 1
                continue
            t: Term = constants.get(tok) or scope.get(tok)
            if t is None:
                kind = _kind(tok)
                if kind is _VARIABLE:
                    t = self._variable(tok)
                elif kind is _SYMBOL:
                    t = self._constant(tok, matches[i - 1].start(1))
                elif tok == "[":
                    if texts[i] == "]":
                        i += 1
                        t = self._constant("nil", matches[i - 2].start(1))
                    else:
                        stack.append([None, i - 1, [], False])
                        continue
                elif not tok:
                    raise self.error("unexpected end of input", matches[i - 1].start(1))
                else:
                    raise self.error("expected a name", matches[i - 1].start(1))
            # Hand the finished term to the open frames, closing each one
            # that the next token ends.
            while stack:
                frame = stack[-1]
                tok = texts[i]
                if frame[0] is not None:
                    frame[2].append(t)
                    if tok == ",":
                        i += 1
                        break
                    if tok != ")":
                        raise self.error("expected ')'", matches[i].start(1))
                    i += 1
                    stack.pop()
                    name, opened, args = frame
                    sym = signature.get(name)
                    if sym is None or sym.arity != len(args):
                        sym = self._symbol(name, len(args), matches[opened].start(1))
                    t = Struct(sym, tuple(args))
                    continue
                _, opened, items, after_bar = frame
                if not after_bar:
                    items.append(t)
                    if tok == ",":
                        i += 1
                        break
                    if tok == "|":
                        i += 1
                        frame[3] = True
                        break
                    t = self._constant("nil", matches[opened].start(1))
                if tok != "]":
                    raise self.error("expected ']'", matches[i].start(1))
                i += 1
                stack.pop()
                cons = self._symbol("cons", 2, matches[opened].start(1))
                for item in reversed(items):
                    t = Struct(cons, (item, t))
            else:
                # A whole term: the head, a body atom or a query atom.
                if not atoms and neck == ":-" and isinstance(t, Var):
                    raise self.error("clause head must not be a variable", matches[first].start(1))
                atoms.append(t)
                if texts[i] != (neck if len(atoms) == 1 else ","):
                    return atoms, i
                i += 1

    def program(self) -> Program:
        """Read the clauses, working out the span of each one but a row as
        it is read.  Clause starts come in text order, so the newlines are
        counted on from the last such start."""
        text, texts, matches = self.text, self.texts, self.matches
        arities, declared_at = self.arities, self.declared_at
        clauses: list = []  # a Clause, or the row of a ground flat fact
        pos = at = 0  # where the next clause's skip starts; the last span's offset
        line, last_newline = 1, -1
        while True:
            fact = _FACT.match(text, pos)
            if fact is not None:
                # A ground flat fact is kept as a row of names, checked as
                # ``atoms`` checks them: arguments left to right, then functor.
                name, args = fact[1], fact[2].split(",")
                offset = fact.start(1)
                within = offset + len(name) + 1
                for arg in args:
                    if arg not in arities:
                        arities[arg] = 0
                        declared_at[arg] = within
                    elif arities[arg]:
                        self._declare(arg, 0, within)  # raises: declared at another arity
                    within += len(arg) + 1
                if arities.get(name) != len(args):
                    self._declare(name, len(args), offset)
                clauses.append((name, args, offset))
                pos = fact.end()
                continue
            i = self._tokenize(pos)
            if not texts[i]:
                break
            self.scope, self.positions = {}, {}
            atoms, end = self.atoms(i, ":-")
            if texts[end] != ".":
                raise self.error("expected '.'", matches[end].start(1))
            offset, pos = matches[i].start(1), matches[end].end()
            newlines = text.count("\n", at, offset)
            if newlines:
                line += newlines
                last_newline = text.rfind("\n", at, offset)
            at = offset
            clauses.append(Clause(atoms[0], tuple(atoms[1:]), Span(line, offset - last_newline),
                                  self.positions))
        if clauses and 0 not in arities.values():
            self.warnings.append(
                "signature has no nullary symbol; ground instances are empty"
            )
        p = Program.__new__(Program)  # sharing this parse's tables, as ``Program`` says
        vars(p).update(_entries=clauses, warnings=tuple(self.warnings), _arities=arities,
                       _symbols=self.signature, _constants=self.constants, _text=text)
        return p

    def query(self) -> list[Term]:
        self.matches = list(_TOKEN.finditer(self.text))
        self.texts = [*map(_token_text, self.matches), ""]
        atoms, i = self.atoms(0, ",")
        if self.texts[i] == ".":
            i += 1
        if self.texts[i]:
            raise self.error("trailing input after query", self.matches[i].start(1))
        return atoms


def parse_program(text: str, fresh: Optional[FreshVars] = None) -> Program:
    return _Parser(text, fresh).program()


def parse_query(text: str, fresh: Optional[FreshVars] = None) -> list[Term]:
    return _Parser(text, fresh).query()


def clause_to_text(c: Clause) -> str:
    head = term_to_text(c.head)
    if not c.body:
        return f"{head}."
    return f"{head} :- " + ",".join(term_to_text(b) for b in c.body) + "."


def check_universal(p: Program) -> UniversalityReport:
    """Flag each clause whose body mentions variables absent from the head;
    those existential variables break the head-driven answer construction."""
    violations: list[tuple[int, Span, tuple[Var, ...]]] = []
    for i, c in enumerate(p._entries):
        if c.__class__ is not Clause or not c.body:
            continue  # a fact has no body variables, and is left unbuilt
        head_vars = variables_of(c.head)
        extras = [
            v
            for v in variables_in_order(c.body)
            if v not in head_vars
        ]
        if extras:
            violations.append((i, c.span, tuple(extras)))
    return UniversalityReport(tuple(violations))


class Renaming(NamedTuple):
    """The variant of ``clause`` whose variables, in first-occurrence order,
    take the consecutive ids from ``first``."""

    clause: Clause
    first: int

    def instance(self) -> Clause:
        c, first = self.clause, self.first
        renaming = Substitution({v: Var(first + k, v.hint) for v, k in c.var_positions.items()})
        body = tuple(apply_raw(renaming, b) for b in c.body)
        return Clause(apply_raw(renaming, c.head), body, c.span)

    def own(self, s: Substitution) -> Substitution:
        """The bindings of ``s`` on the variables of the renamed clause."""
        first, end = self.first, self.first + len(self.clause.var_positions)
        return Substitution({v: t for v, t in s.items() if first <= v.id < end})


def clause_instance(c: Clause, fresh: FreshVars) -> Clause:
    """Fresh-variable variant of a clause (standardising apart)."""
    n = len(c.var_positions)
    return Renaming(c, fresh.block(n) if n else 0).instance()
