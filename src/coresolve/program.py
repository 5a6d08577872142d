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
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from .terms import (
    FreshVars,
    Struct,
    Substitution,
    Symbol,
    Term,
    Var,
    apply_raw,
    term_to_text,
    variables_in_order,
    variables_of,
)


@dataclass(frozen=True)
class Span:
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Clause:
    head: Term
    body: tuple[Term, ...] = ()
    span: Span = Span(0, 0)

    def __post_init__(self) -> None:
        if isinstance(self.head, Var):
            raise ValueError("clause head must not be a variable")

    def variables(self) -> list[Var]:
        return variables_in_order([self.head, *self.body])

    def __str__(self) -> str:
        return clause_to_text(self)


class _PredicateIndex:
    """The clauses of one predicate, as indices in clause order: all of
    them, those whose head has a variable first argument (or no argument),
    and per principal symbol of a bound first argument, the clauses with
    that symbol there together with the variable-first ones."""

    __slots__ = ("every", "var_first", "by_first")

    def __init__(self) -> None:
        self.every: list[int] = []
        self.var_first: list[int] = []
        self.by_first: dict[Symbol, list[int]] = {}


@dataclass(frozen=True)
class Program:
    clauses: tuple[Clause, ...]
    signature: dict[str, Symbol] = field(default_factory=dict, compare=False)
    warnings: tuple[str, ...] = field(default=(), compare=False)

    @cached_property
    def _index(self) -> dict[Symbol, _PredicateIndex]:
        # First-argument indexing (Warren 1983): built on the first lookup,
        # so parsing a program does not pay for it.
        index: dict[Symbol, _PredicateIndex] = {}
        for ci, c in enumerate(self.clauses):
            assert isinstance(c.head, Struct)
            pred = index.setdefault(c.head.symbol, _PredicateIndex())
            pred.every.append(ci)
            first = c.head.args[0] if c.head.args else None
            if isinstance(first, Struct):
                bucket = pred.by_first.get(first.symbol)
                if bucket is None:
                    bucket = pred.by_first[first.symbol] = list(pred.var_first)
                bucket.append(ci)
            else:
                pred.var_first.append(ci)
                for bucket in pred.by_first.values():
                    bucket.append(ci)
        return index

    def predicates(self) -> list[Symbol]:
        """Head predicate symbols in first-occurrence order."""
        return list(self._index)

    def candidates(self, atom: Term, matching: bool = False) -> Sequence[int]:
        """Indices, in clause order, of the clauses whose head may unify
        with ``atom`` -- or, with ``matching``, may match it (the head is
        the pattern).  Every clause left out fails: its head has another
        predicate, or a first argument whose symbol clashes with the
        atom's; and a bound first argument never matches a variable."""
        if isinstance(atom, Var):
            return () if matching else range(len(self.clauses))
        pred = self._index.get(atom.symbol)
        if pred is None:
            return ()
        if not atom.args:
            return pred.every
        first = atom.args[0]
        if isinstance(first, Var):
            return pred.var_first if matching else pred.every
        return pred.by_first.get(first.symbol, pred.var_first)


@dataclass(frozen=True)
class UniversalityReport:
    violations: tuple[tuple[int, Span, tuple[Var, ...]], ...]

    @property
    def universal(self) -> bool:
        return not self.violations


# One pass over the text (Python ``re`` docs, "Writing a Tokenizer"): each
# match is the whitespace and ``%`` comments before one token, then the
# token.  The ``end`` alternative matches the trailing skip at the end of
# the text, so that finditer never rescans it.  Its text is "", and an
# error token is one character that is not punctuation, so comparing a
# token's text with a punctuation string never needs its kind.
_TOKEN = re.compile(
    r"(?:\s|%[^\n]*)*"
    r"(?:(?P<name>\w+)|(?P<punct>:-|[()\[\],.|])|(?P<end>\Z)|(?P<error>.))",
    re.DOTALL,
)
_NAME = "name"
_END = "end"


class _Parser:
    """An explicit-stack reader over the token list of one text.

    Token ``i`` has kind ``kinds[i]`` (``name``, ``punct``, ``error``, or
    ``end`` for the last one), text ``texts[i]`` and offset ``offsets[i]``.
    Line and column are worked out from an offset only when a ``Span`` or a
    ``ParseError`` is built.  Each parse makes one ``Struct`` per nullary
    symbol and shares it.
    """

    def __init__(self, text: str, fresh: Optional[FreshVars] = None):
        self.text = text
        self.kinds: list[Optional[str]] = []
        self.texts: list[str] = []
        self.offsets: list[int] = []
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            self.kinds.append(kind)
            self.texts.append(m[kind])
            self.offsets.append(m.start(kind))
            if kind == _END:
                break
        self.i = 0
        self._newlines: Optional[list[int]] = None
        self.fresh = fresh or FreshVars()
        self.scope: dict[str, Var] = {}
        self.signature: dict[str, tuple[Symbol, int]] = {}
        self.constants: dict[str, Struct] = {}
        self.warnings: list[str] = []

    def span(self, offset: int) -> Span:
        if self._newlines is None:
            self._newlines = [m.start() for m in re.finditer("\n", self.text)]
        line = bisect_left(self._newlines, offset)
        start = self._newlines[line - 1] if line else -1
        return Span(line + 1, offset - start)

    def error(self, message: str, offset: Optional[int] = None) -> ParseError:
        """A ParseError at ``offset``, by default that of the next token."""
        span = self.span(self.offsets[self.i] if offset is None else offset)
        return ParseError(message, span.line, span.column)

    def expect(self, punct: str) -> None:
        if self.texts[self.i] != punct:
            raise self.error(f"expected {punct!r}")
        self.i += 1

    def accept(self, punct: str) -> bool:
        if self.texts[self.i] == punct:
            self.i += 1
            return True
        return False

    def _variable(self, name: str) -> Var:
        if name == "_":
            return self.fresh.new("_")
        v = self.scope.get(name)
        if v is None:
            v = self.fresh.new(name)
            self.scope[name] = v
        return v

    def _symbol(self, name: str, arity: int, offset: int) -> Symbol:
        prior = self.signature.get(name)
        if prior is None:
            sym = Symbol(name, arity)
            self.signature[name] = (sym, offset)
            return sym
        if prior[0].arity != arity:
            raise self.error(
                f"symbol {name!r} used with arity {arity} but "
                f"declared with arity {prior[0].arity} at {self.span(prior[1])}",
                offset,
            )
        # One object per symbol in a parse, so most symbol tests pass on identity.
        return prior[0]

    def _constant(self, name: str, offset: int) -> Struct:
        const = self.constants.get(name)
        if const is None:
            const = Struct(self._symbol(name, 0, offset))
            self.constants[name] = const
        return const

    def term(self) -> Term:
        """Read one term.  A frame on the stack is an open compound
        ``[name, offset, args]`` or an open list ``[None, offset, items,
        after_bar]``, where ``after_bar`` turns true when ``|`` is read.
        Symbols are declared when their term closes, inner terms first."""
        kinds, texts, offsets = self.kinds, self.texts, self.offsets
        i = self.i
        stack: list[list] = []
        while True:
            # Read the start of a term: a complete leaf, or an open frame.
            kind, tok = kinds[i], texts[i]
            if kind == _NAME:
                i += 1
                c = tok[0]
                if c.isupper() or c == "_":
                    t: Term = self._variable(tok)
                elif texts[i] == "(":
                    stack.append([tok, offsets[i - 1], []])
                    i += 1
                    continue
                else:
                    t = self._constant(tok, offsets[i - 1])
            elif tok == "[":
                i += 1
                if texts[i] == "]":
                    i += 1
                    t = self._constant("nil", offsets[i - 2])
                else:
                    stack.append([None, offsets[i - 1], [], False])
                    continue
            elif kind == _END:
                raise self.error("unexpected end of input", offsets[i])
            else:
                raise self.error("expected a name", offsets[i])
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
                        raise self.error("expected ')'", offsets[i])
                    i += 1
                    stack.pop()
                    name, offset, args = frame
                    t = Struct(self._symbol(name, len(args), offset), tuple(args))
                    continue
                _, offset, items, after_bar = frame
                if not after_bar:
                    items.append(t)
                    if tok == ",":
                        i += 1
                        break
                    if tok == "|":
                        i += 1
                        frame[3] = True
                        break
                    t = self._constant("nil", offset)
                if tok != "]":
                    raise self.error("expected ']'", offsets[i])
                i += 1
                stack.pop()
                cons = self._symbol("cons", 2, offset)
                for item in reversed(items):
                    t = Struct(cons, (item, t))
            else:
                self.i = i
                return t

    def clause(self) -> Clause:
        offset = self.offsets[self.i]
        self.scope = {}
        head = self.term()
        if isinstance(head, Var):
            raise self.error("clause head must not be a variable", offset)
        body: list[Term] = []
        if self.accept(":-"):
            body.append(self.term())
            while self.accept(","):
                body.append(self.term())
        self.expect(".")
        return Clause(head, tuple(body), self.span(offset))

    def program(self) -> Program:
        clauses: list[Clause] = []
        while self.kinds[self.i] != _END:
            clauses.append(self.clause())
        if clauses and not any(
            sym.arity == 0 for sym, _ in self.signature.values()
        ):
            self.warnings.append(
                "signature has no nullary symbol; ground instances are empty"
            )
        return Program(
            tuple(clauses),
            {n: s for n, (s, _) in self.signature.items()},
            tuple(self.warnings),
        )

    def query(self) -> list[Term]:
        self.scope = {}
        atoms = [self.term()]
        while self.accept(","):
            atoms.append(self.term())
        self.accept(".")
        if self.kinds[self.i] != _END:
            raise self.error("trailing input after query")
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


def program_to_text(p: Program) -> str:
    return "\n".join(clause_to_text(c) for c in p.clauses) + ("\n" if p.clauses else "")


def check_universal(p: Program) -> UniversalityReport:
    """Flag each clause whose body mentions variables absent from the head;
    those existential variables break the head-driven answer construction."""
    violations: list[tuple[int, Span, tuple[Var, ...]]] = []
    for i, c in enumerate(p.clauses):
        head_vars = variables_of(c.head)
        extras = [
            v
            for v in variables_in_order(c.body)
            if v not in head_vars
        ]
        if extras:
            violations.append((i, c.span, tuple(extras)))
    return UniversalityReport(tuple(violations))


def clause_instance(c: Clause, fresh: FreshVars) -> Clause:
    """Fresh-variable variant of a clause (standardising apart)."""
    mapping = {v: fresh.new(v.hint) for v in c.variables()}
    renaming = Substitution(mapping)
    return Clause(
        apply_raw(renaming, c.head),
        tuple(apply_raw(renaming, b) for b in c.body),
        c.span,
    )
