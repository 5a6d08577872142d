"""Parsing and printing of logic programs and queries, plus the
universality static check (every body variable must occur in the head).

Syntax: a Prolog-like subset.  Clauses are ``head :- b1, ..., bn.`` or
facts ``head.``; ``%`` starts a line comment; functors and constants begin
with a lowercase letter, variables with an uppercase letter or ``_``; list
sugar ``[]``/``[H|T]`` desugars to ``nil``/``cons(H,T)``.  No operators,
negation, cut, or built-ins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .terms import (
    DIAMOND,
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


@dataclass(frozen=True)
class Program:
    clauses: tuple[Clause, ...]
    signature: dict[str, Symbol] = field(default_factory=dict, compare=False)
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def predicates(self) -> list[Symbol]:
        out: list[Symbol] = []
        for c in self.clauses:
            assert isinstance(c.head, Struct)
            if c.head.symbol not in out:
                out.append(c.head.symbol)
        return out


@dataclass(frozen=True)
class UniversalityReport:
    violations: tuple[tuple[int, Span, tuple[Var, ...]], ...]

    @property
    def universal(self) -> bool:
        return not self.violations


_RESERVED = {DIAMOND.name}


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, self.line, self.col)

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def skip_space(self) -> None:
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c == "%":
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self._advance()
            elif c.isspace():
                self._advance()
            else:
                return

    def peek(self) -> Optional[str]:
        self.skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def eat(self, expected: str) -> None:
        self.skip_space()
        if not self.text.startswith(expected, self.pos):
            raise self.error(f"expected {expected!r}")
        self._advance(len(expected))

    def try_eat(self, expected: str) -> bool:
        self.skip_space()
        if self.text.startswith(expected, self.pos):
            self._advance(len(expected))
            return True
        return False

    def span(self) -> Span:
        self.skip_space()
        return Span(self.line, self.col)

    def name(self) -> str:
        self.skip_space()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self._advance()
        if start == self.pos:
            raise self.error("expected a name")
        return self.text[start:self.pos]


class _Parser:
    def __init__(self, text: str, fresh: Optional[FreshVars] = None):
        self.lx = _Lexer(text)
        self.fresh = fresh or FreshVars()
        self.scope: dict[str, Var] = {}
        self.signature: dict[str, tuple[Symbol, Span]] = {}
        self.warnings: list[str] = []

    def _variable(self, name: str) -> Var:
        if name == "_":
            return self.fresh.new("_")
        v = self.scope.get(name)
        if v is None:
            v = self.fresh.new(name)
            self.scope[name] = v
        return v

    def _symbol(self, name: str, arity: int, span: Span) -> Symbol:
        if name in _RESERVED:
            raise ParseError(f"symbol {name!r} is reserved", span.line, span.column)
        prior = self.signature.get(name)
        if prior is not None and prior[0].arity != arity:
            raise ParseError(
                f"symbol {name!r} used with arity {arity} but "
                f"declared with arity {prior[0].arity} at {prior[1]}",
                span.line,
                span.column,
            )
        if prior is not None:
            # One object per symbol in a parse, so most symbol tests pass on identity.
            return prior[0]
        sym = Symbol(name, arity)
        self.signature[name] = (sym, span)
        return sym

    def term(self) -> Term:
        c = self.lx.peek()
        if c is None:
            raise self.lx.error("unexpected end of input")
        if c == "[":
            return self._list()
        span = self.lx.span()
        name = self.lx.name()
        if name[0].isupper() or name[0] == "_":
            return self._variable(name)
        args: list[Term] = []
        if self.lx.try_eat("("):
            args.append(self.term())
            while self.lx.try_eat(","):
                args.append(self.term())
            self.lx.eat(")")
        sym = self._symbol(name, len(args), span)
        return Struct(sym, tuple(args))

    def _list(self) -> Term:
        span = self.lx.span()
        self.lx.eat("[")
        if self.lx.try_eat("]"):
            return Struct(self._symbol("nil", 0, span))
        items = [self.term()]
        while self.lx.try_eat(","):
            items.append(self.term())
        if self.lx.try_eat("|"):
            tail = self.term()
        else:
            tail = Struct(self._symbol("nil", 0, span))
        self.lx.eat("]")
        cons = self._symbol("cons", 2, span)
        for item in reversed(items):
            tail = Struct(cons, (item, tail))
        return tail

    def clause(self) -> Clause:
        span = self.lx.span()
        self.scope = {}
        head = self.term()
        if isinstance(head, Var):
            raise ParseError("clause head must not be a variable", span.line, span.column)
        body: list[Term] = []
        if self.lx.try_eat(":-"):
            body.append(self.term())
            while self.lx.try_eat(","):
                body.append(self.term())
        self.lx.eat(".")
        return Clause(head, tuple(body), span)

    def program(self) -> Program:
        clauses: list[Clause] = []
        while self.lx.peek() is not None:
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
        while self.lx.try_eat(","):
            atoms.append(self.term())
        self.lx.try_eat(".")
        if self.lx.peek() is not None:
            raise self.lx.error("trailing input after query")
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
