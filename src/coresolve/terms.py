"""First-order terms as finite trees, plus substitutions, truncation and the
dyadic ultrametric distance on terms.

Terms are immutable values; structural sharing is allowed but never observable.
Variables carry globally unique integer ids handed out by a ``FreshVars``
source; display names are hints only and never affect identity.
"""

from __future__ import annotations

import itertools
import operator
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Iterator, Mapping, Optional, Union


@dataclass(frozen=True)
class Symbol:
    """A function/predicate symbol. Same name with different arities is a
    different symbol."""

    name: str
    arity: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("symbol name must be non-empty")
        if self.arity < 0:
            raise ValueError("arity must be non-negative")

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True)
class Var:
    id: int
    hint: Optional[str] = field(default=None, compare=False)

    _ground = False  # class constant, not a field; see Struct._ground

    @property
    def display(self) -> str:
        return self.hint if self.hint else f"_G{self.id}"

    def __str__(self) -> str:
        return self.display


@dataclass(frozen=True, eq=False, slots=True)
class Struct:
    symbol: Symbol
    args: tuple["Term", ...] = ()
    # Set once in __post_init__; slots keep the per-term cost of both low.
    _hash: int = field(init=False, repr=False)
    _ground: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.args) != self.symbol.arity:
            raise ValueError(
                f"symbol {self.symbol} applied to {len(self.args)} arguments"
            )
        # Terms nest deeply; cache the structural hash so dict/set lookups
        # don't rehash the whole subtree on every probe, and groundness so
        # the loop check can skip candidates without walking the atom.
        object.__setattr__(self, "_hash", hash((self.symbol, self.args)))
        object.__setattr__(self, "_ground", all(map(_is_ground, self.args)))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Struct):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.symbol == other.symbol
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return term_to_text(self)


Term = Union[Var, Struct]

_is_ground = operator.attrgetter("_ground")

# Reserved leaf symbol marking cut branches of a truncation.  The parser never
# accepts it, so user programs cannot mention it.
DIAMOND = Symbol("◇", 0)
TRUNCATED = Struct(DIAMOND)


def mk(name: str, *args: Term) -> Struct:
    """Build ``name(args...)`` deriving the arity from the argument count."""
    return Struct(Symbol(name, len(args)), tuple(args))


def const(name: str) -> Struct:
    return Struct(Symbol(name, 0))


def term_to_text(t: Term) -> str:
    """Render a term in the program syntax (no whitespace, no list sugar)."""
    parts: list[str] = []
    _render(t, parts)
    return "".join(parts)


def _render(t: Term, out: list[str]) -> None:
    if isinstance(t, Var):
        out.append(t.display)
        return
    out.append(t.symbol.name)
    if t.args:
        out.append("(")
        for i, a in enumerate(t.args):
            if i:
                out.append(",")
            _render(a, out)
        out.append(")")


def iter_subterms(t: Term) -> Iterator[Term]:
    """Pre-order traversal of all subterm occurrences."""
    stack = [t]
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(cur, Struct):
            stack.extend(reversed(cur.args))


def variables_of(t: Term) -> set[Var]:
    return {s for s in iter_subterms(t) if isinstance(s, Var)}


def variables_in_order(ts: Iterable[Term]) -> list[Var]:
    """Distinct variables in first-occurrence order (left to right)."""
    seen: list[Var] = []
    have: set[Var] = set()
    for t in ts:
        for s in iter_subterms(t):
            if isinstance(s, Var) and s not in have:
                have.add(s)
                seen.append(s)
    return seen


class FreshVars:
    """Monotone source of fresh variable ids.  Safe for concurrent use."""

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)
        self._lock = threading.Lock()

    def new(self, hint: Optional[str] = None) -> Var:
        with self._lock:
            n = next(self._counter)
        return Var(n, hint)


class CircularSubstitutionError(ValueError):
    """Raised when a circular substitution is applied directly; circular
    bindings must go through bounded unfolding instead."""


class Substitution:
    """A finite map from variables to terms.  Identity bindings are dropped.

    ``circular`` is true iff some bound variable is reachable from its own
    image by chasing bindings; such substitutions represent rational
    (infinite) trees and are rejected by ``apply``/``compose``.
    """

    __slots__ = ("_bindings", "_circular")

    def __init__(self, bindings: Optional[Mapping[Var, Term]] = None):
        b: dict[Var, Term] = {}
        if bindings:
            for v, t in bindings.items():
                if t != v:
                    b[v] = t
        self._bindings = b
        self._circular: Optional[bool] = None

    @property
    def bindings(self) -> Mapping[Var, Term]:
        return self._bindings

    def domain(self) -> set[Var]:
        return set(self._bindings)

    def get(self, v: Var) -> Optional[Term]:
        return self._bindings.get(v)

    def __contains__(self, v: Var) -> bool:
        return v in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    def items(self):
        return self._bindings.items()

    def is_identity(self) -> bool:
        return not self._bindings

    @property
    def circular(self) -> bool:
        if self._circular is None:
            self._circular = self._detect_circular()
        return self._circular

    def _detect_circular(self) -> bool:
        # A variable is circular when it is reachable from its own image.
        color: dict[Var, int] = {}  # 1 = on stack, 2 = done

        def reaches_cycle(v: Var) -> bool:
            state = color.get(v)
            if state == 1:
                return True
            if state == 2:
                return False
            color[v] = 1
            img = self._bindings.get(v)
            if img is not None:
                for sub in iter_subterms(img):
                    if isinstance(sub, Var) and sub in self._bindings:
                        if reaches_cycle(sub):
                            return True
            color[v] = 2
            return False

        return any(reaches_cycle(v) for v in self._bindings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._bindings == other._bindings

    def __hash__(self) -> int:
        return hash(frozenset(self._bindings.items()))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{v}↦{term_to_text(t)}"
            for v, t in sorted(self._bindings.items(), key=lambda kv: kv[0].id)
        )
        return "{" + inner + "}"


IDENTITY = Substitution()


def apply_raw(s: Substitution, t: Term) -> Term:
    """Homomorphic (single-pass) application, no circularity check.

    Internal: callers that deal in circular substitutions (loop detection,
    answer bookkeeping) use this; everyone else goes through ``apply``.
    """
    if s.is_identity():
        return t
    return _apply1(s, t)


def _apply1(s: Substitution, t: Term) -> Term:
    if isinstance(t, Var):
        img = s.get(t)
        return img if img is not None else t
    if not t.args:
        return t
    new_args = tuple(_apply1(s, a) for a in t.args)
    if all(n is o for n, o in zip(new_args, t.args)):
        return t
    return Struct(t.symbol, new_args)


def apply(s: Substitution, t: Term) -> Term:
    """Apply a non-circular substitution to a term (extension of the map
    from variables to terms, homomorphically)."""
    if s.circular:
        raise CircularSubstitutionError(
            "cannot apply a circular substitution; unfold it to a depth instead"
        )
    return apply_raw(s, t)


def compose(outer: Substitution, inner: Substitution) -> Substitution:
    """The substitution acting as ``outer`` after ``inner``:
    ``apply(compose(outer, inner), t) == apply(outer, apply(inner, t))``."""
    for s in (outer, inner):
        if s.circular:
            raise CircularSubstitutionError("cannot compose circular substitutions")
    out: dict[Var, Term] = {}
    for v, t in inner.items():
        out[v] = apply_raw(outer, t)
    for v, t in outer.items():
        if v not in inner:
            out[v] = t
    return Substitution(out)


def restrict(s: Substitution, keep: Iterable[Var]) -> Substitution:
    keep_set = set(keep)
    return Substitution({v: t for v, t in s.items() if v in keep_set})


def truncate(n: int, t: Term) -> Term:
    """Cut ``t`` at depth ``n``: nodes at depth < n keep their labels, nodes
    at depth n become the reserved leaf symbol."""
    if n < 0:
        raise ValueError("truncation depth must be non-negative")
    return _truncate(n, t)


def _truncate(n: int, t: Term) -> Term:
    if n == 0:
        return TRUNCATED
    if isinstance(t, Var) or not t.args:
        return t
    return Struct(t.symbol, tuple(_truncate(n - 1, a) for a in t.args))


def divergence_depth(s: Term, t: Term) -> Optional[int]:
    """Least n such that the depth-n truncations of s and t differ;
    None when s == t."""
    if isinstance(s, Var) or isinstance(t, Var):
        return None if s == t else 1
    if s.symbol != t.symbol:
        return 1
    best: Optional[int] = None
    for a, b in zip(s.args, t.args):
        d = divergence_depth(a, b)
        if d is not None and (best is None or d < best):
            best = d
    return None if best is None else best + 1


@total_ordering
@dataclass(frozen=True)
class Distance:
    """Exact dyadic distance: 0, or 2**(-exponent)."""

    zero: bool
    exponent: int = 0

    def value(self) -> Fraction:
        return Fraction(0) if self.zero else Fraction(1, 2**self.exponent)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distance):
            return NotImplemented
        if self.zero or other.zero:
            return self.zero == other.zero
        return self.exponent == other.exponent

    def __lt__(self, other: "Distance") -> bool:
        return self.value() < other.value()

    def __hash__(self) -> int:
        return hash((self.zero, 0 if self.zero else self.exponent))

    def __str__(self) -> str:
        return "0" if self.zero else f"2^-{self.exponent}"


ZERO_DISTANCE = Distance(True)


def distance(s: Term, t: Term) -> Distance:
    gamma = divergence_depth(s, t)
    if gamma is None:
        return ZERO_DISTANCE
    return Distance(False, gamma)


def _match_into(pattern: Term, target: Term, binding: dict[Var, Term]) -> bool:
    # Iterative: patterns can be as deep as the terms a derivation builds.
    stack = [(pattern, target)]
    while stack:
        p, u = stack.pop()
        if isinstance(p, Var):
            bound = binding.get(p)
            if bound is None:
                binding[p] = u
            elif bound != u:
                return False
            continue
        if isinstance(u, Var) or p.symbol != u.symbol:
            return False
        stack.extend(zip(p.args, u.args))
    return True


def match(pattern: Term, target: Term) -> Optional[Substitution]:
    """Most general matcher sigma with sigma(pattern) == target, or None."""
    binding: dict[Var, Term] = {}
    if _match_into(pattern, target, binding):
        return Substitution(binding)
    return None


def is_instance(general: Term, specific: Term) -> bool:
    return match(general, specific) is not None


def is_variant(a: Term, b: Term) -> bool:
    """Equality up to bijective renaming of variables."""
    return is_instance(a, b) and is_instance(b, a)


def rename_apart(t: Term, fresh: FreshVars) -> tuple[Term, Substitution]:
    """A copy of ``t`` over fresh variables, plus the bijective renaming."""
    mapping: dict[Var, Term] = {}
    for v in variables_in_order([t]):
        mapping[v] = fresh.new(v.hint)
    renaming = Substitution(mapping)
    return apply_raw(renaming, t), renaming
