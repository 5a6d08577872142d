"""First-order terms as finite trees, plus substitutions, truncation,
matching, and ``cycle_members``: the one cycle analysis that circular
substitutions, rational unification and solved-form answers share.

Terms are immutable values; structural sharing is allowed but never observable.
Variables carry globally unique integer ids handed out by a ``FreshVars``
source; display names are hints only and never affect identity.

``Var`` and ``Struct`` are ``__slots__`` classes built millions of times per
query.  Each computes its hash once, at construction, and refuses attribute
assignment afterwards; their constructors fill the slots through the slot
descriptors.  ``Struct.__init__`` is the one place a structure is built.
``Symbol`` is a named tuple.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from types import MappingProxyType
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Optional, TypeVar, Union


def immutable_setattr(self: object, *_: object) -> None:
    """``__setattr__`` and ``__delattr__`` of the immutable slotted classes."""
    raise AttributeError(f"{type(self).__name__} is immutable")


class Symbol(namedtuple("Symbol", ("name", "arity"))):
    """A function/predicate symbol, as a named tuple. Same name with
    different arities is a different symbol."""

    __slots__ = ()

    def __new__(cls, name: str, arity: int) -> Symbol:
        if not name:
            raise ValueError("symbol name must be non-empty")
        if arity < 0:
            raise ValueError("arity must be non-negative")
        return tuple.__new__(cls, (name, arity))

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


class Var:
    """A variable: equal to another exactly when the ids are equal."""

    __slots__ = ("id", "hint", "_hash")
    __setattr__ = __delattr__ = immutable_setattr

    id: int
    hint: Optional[str]
    _ground = False  # class constant, not a slot; see Struct._ground

    def __init__(self, id: int, hint: Optional[str] = None) -> None:
        _set_var_id(self, id)
        _set_var_hint(self, hint)
        _set_var_hash(self, hash((id,)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Var:
            return NotImplemented
        return self.id == other.id

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Var(id={self.id!r}, hint={self.hint!r})"

    @property
    def display(self) -> str:
        return self.hint if self.hint else f"_G{self.id}"

    def __str__(self) -> str:
        return self.display


class Struct:
    """A structure: a symbol applied to as many argument terms as its arity.
    ``_hash`` and ``_ground`` are set once, at construction: terms nest
    deeply, so dict and set lookups never rehash a subtree, and the loop
    check can skip ground candidates without walking the atom."""

    __slots__ = ("symbol", "args", "_hash", "_ground")
    __setattr__ = __delattr__ = immutable_setattr

    symbol: Symbol
    args: tuple["Term", ...]
    _ground: bool

    def __init__(self, symbol: Symbol, args: tuple["Term", ...] = ()) -> None:
        if len(args) != symbol.arity:
            raise ValueError(f"symbol {symbol} applied to {len(args)} arguments")
        _set_struct_symbol(self, symbol)
        _set_struct_args(self, args)
        _set_struct_hash(self, hash((symbol, args)))
        _set_struct_ground(self, not args or all(map(_is_ground, args)))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Struct:
            return NotImplemented
        # Iterative, so equal but distinct deep terms compare without
        # recursion; the cached hashes reject almost every unequal pair at
        # once.
        pending = [(self, other)]
        while pending:
            a, b = pending.pop()
            if a is b:
                continue
            if a.__class__ is not Struct or b.__class__ is not Struct:
                if a.__class__ is not b.__class__ or a.id != b.id:
                    return False
                continue
            if a._hash != b._hash or a.symbol != b.symbol:
                return False
            pending.extend(zip(a.args, b.args))
        return True

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Struct(symbol={self.symbol!r}, args={self.args!r})"

    def __str__(self) -> str:
        return term_to_text(self)


# The slot setters the constructors use, since the classes refuse setattr.
_set_var_id = Var.id.__set__  # type: ignore[attr-defined]
_set_var_hint = Var.hint.__set__  # type: ignore[attr-defined]
_set_var_hash = Var._hash.__set__  # type: ignore[attr-defined]
_set_struct_symbol = Struct.symbol.__set__  # type: ignore[attr-defined]
_set_struct_args = Struct.args.__set__  # type: ignore[attr-defined]
_set_struct_hash = Struct._hash.__set__  # type: ignore[attr-defined]
_set_struct_ground = Struct._ground.__set__  # type: ignore[attr-defined]

Term = Union[Var, Struct]

_is_ground = operator.attrgetter("_ground")

# Reserved leaf symbol marking cut branches of a truncation.  The parser never
# accepts it, so user programs cannot mention it.
DIAMOND = Symbol("◇", 0)
TRUNCATED = Struct(DIAMOND)

# What ``term_to_text`` walks under: no binding and no name.
_NOTHING: Mapping = MappingProxyType({})


def term_to_text(t: Term, names: Optional[Callable[[Var], Optional[str]]] = None) -> str:
    """Render a term in the program syntax (no whitespace, no list sugar):
    ``truncated_text`` with no bindings and no cut.  A variable is shown by
    the name ``names`` gives it, or by its own display name where that is
    None."""
    return truncated_text(-1, t, _NOTHING, frozenset(), names or _NOTHING.get)


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
    """Monotone source of fresh variable ids.  Safe for concurrent use
    without a lock: ``next`` on an ``itertools.count`` runs in C as one
    step, which CPython's global interpreter lock never interrupts, so two
    threads never draw the same id."""

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)

    def new(self, hint: Optional[str] = None) -> Var:
        return Var(next(self._counter), hint)

    def block(self, n: int) -> int:
        """Draw ``n`` >= 1 consecutive ids in one step, like ``new``; return the first."""
        return next(itertools.islice(self._counter, n - 1, None)) - n + 1


N = TypeVar("N")


def cycle_members(nodes: Iterable[N], succ: Callable[[N], Iterable[N]]) -> set[N]:
    """The nodes, among those reachable from ``nodes`` along ``succ``, that lie
    on a cycle: members of a strongly connected component with more than one
    node or with a self-edge.  Tarjan's algorithm (1972) with an explicit
    stack, so graph depth is not bounded by the interpreter's recursion."""
    index: dict[N, int] = {}
    low: dict[N, int] = {}
    on_stack: set[N] = set()
    stack: list[N] = []
    out: set[N] = set()

    def enter(n: N) -> tuple[N, Iterator[N]]:
        index[n] = low[n] = len(index)
        stack.append(n)
        on_stack.add(n)
        return n, iter(succ(n))

    for root in nodes:
        if root in index:
            continue
        work = [enter(root)]
        while work:
            node, children = work[-1]
            for child in children:
                if child == node:
                    out.add(node)
                elif child not in index:
                    work.append(enter(child))
                    break
                elif child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        out.update(component)
    return out


class Substitution:
    """A finite map from variables to terms.  Identity bindings are dropped.

    ``cycle_vars()`` are the bound variables reachable from their own image
    by chasing bindings; ``circular`` is true iff there are any.  Circular
    substitutions represent rational (infinite) trees; ``decirc.unfold``
    gives their values to a depth.
    """

    __slots__ = ("_bindings", "_cycle_vars")
    matcher = False  # known to bind only a search step's own clause variables

    def __init__(self, bindings: Optional[Mapping[Var, Term]] = None):
        b: dict[Var, Term] = {}
        if bindings:
            for v, t in bindings.items():
                if t.__class__ is not Var or t.id != v.id:  # t != v, but no __eq__ call
                    b[v] = t
        self._bindings = b
        self._cycle_vars: Optional[frozenset[Var]] = None

    @classmethod
    def _with_cycle_vars(
        cls, bindings: Mapping[Var, Term], cycle_vars: Iterable[Var]
    ) -> Substitution:
        """Internal: a substitution whose builder has already found its
        cycle variables, so ``cycle_vars`` does not run the analysis again.
        Rational unification and solved-form answers find them on their
        own graphs while building the bindings."""
        s = cls(bindings)
        s._cycle_vars = frozenset(cycle_vars)
        return s

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

    def cycle_vars(self) -> frozenset[Var]:
        if self._cycle_vars is None:
            b = self._bindings

            def succ(v: Var) -> list[Var]:
                return [w for w in iter_subterms(b[v]) if isinstance(w, Var) and w in b]

            self._cycle_vars = frozenset(cycle_members(b, succ))
        return self._cycle_vars

    @property
    def circular(self) -> bool:
        return bool(self.cycle_vars())

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


class DeferredSubstitution(Substitution):
    """A substitution whose bindings ``make(*args)`` builds, as a map or a
    substitution, when they are first read.  A ``matcher`` binds only a
    search step's own clause variables, which no goal term holds."""

    __slots__ = ("_make", "_args", "matcher")

    def __init__(self, make: Callable[..., object], args: tuple, matcher: bool) -> None:
        self._make, self._args, self.matcher = make, args, matcher

    def __getattr__(self, name: str) -> object:
        # Reached only while the slots ``Substitution`` fills are empty.
        if name not in ("_bindings", "_cycle_vars"):
            raise AttributeError(name)
        Substitution.__init__(self, self._make(*self._args))
        return getattr(self, name)


def oldest_on_variable_cycle(v: Var, bindings: Mapping[Var, Term]) -> Var:
    """The variable that stands for the pure variable cycle (X ↦ Y, Y ↦ X)
    through ``v``: it has no structure, so it denotes one free variable,
    the oldest (lowest id), which is the one mgu keeps when it unifies two
    variables."""
    oldest, cur = v, bindings[v]
    while cur != v:
        assert isinstance(cur, Var)
        if cur.id < oldest.id:
            oldest = cur
        cur = bindings[cur]
    return oldest


def apply_raw(s: Substitution, t: Term) -> Term:
    """Homomorphic (single-pass) application.  A circular binding is
    substituted once, not unfolded: loop detection and answer bookkeeping
    rely on that."""
    if s.is_identity():
        return t
    return map_vars(s._bindings.get, t)


def map_vars(image: Callable[[Var], Optional[Term]], t: Term) -> Term:
    """``t`` with each variable ``v`` replaced by ``image(v)``, or left as
    it is where that is None."""
    # A ground term, nullary symbols included, is its own image, and so is
    # a structure none of whose arguments changes.  Iterative: a frame on
    # the stack is an open structure, its argument iterator and the images
    # of the arguments read so far.
    if t._ground:
        return t
    if t.__class__ is Var:
        img = image(t)
        return t if img is None else img
    stack: list[tuple[Struct, Iterator[Term], list[Term]]] = [(t, iter(t.args), [])]
    while True:
        node, args, images = stack[-1]
        for a in args:
            if a._ground:
                images.append(a)
            elif a.__class__ is Var:
                img = image(a)
                images.append(a if img is None else img)
            else:
                stack.append((a, iter(a.args), []))
                break
        else:
            stack.pop()
            if not all(map(operator.is_, images, node.args)):
                node = Struct(node.symbol, tuple(images))
            if not stack:
                return node
            stack[-1][2].append(node)


def truncate(n: int, t: Term) -> Term:
    """Cut ``t`` at depth ``n``: nodes at depth < n keep their labels, nodes
    at depth n become the reserved leaf symbol."""
    if n < 0:
        raise ValueError("truncation depth must be non-negative")
    return truncate_value(n, t, {}, frozenset())


# Generation copies get negative ids: deterministic across calls and
# disjoint from engine-issued (positive) variable ids.  A walk takes a step
# per generation, so none reaches the stride, and the copies of distinct
# variables stay distinct.
_GEN_STRIDE = 1 << 64


def generation_var(v: Var, gen: int) -> Var:
    """The generation-``gen`` copy of a variable (generation 0 is the
    variable itself): the copy that ``gen`` unrollings of a circular
    binding give a free variable, or a cycle variable's name in generation
    ``gen`` of ``decirc.decircularize``."""
    if gen == 0:
        return v
    if not 0 < gen < _GEN_STRIDE:
        raise ValueError("generation out of range")
    return Var(-(abs(v.id) * _GEN_STRIDE + gen), f"{v.display}_{gen}")


def truncate_value(
    n: int, t: Term, bindings: Mapping[Var, Term], cycle_vars: AbstractSet[Var]
) -> Term:
    """The depth-``n`` truncation of t's value under ``bindings``, whose
    cycle variables are ``cycle_vars``, by one iterative walk; with no
    bindings, the truncation of t itself, and at a negative ``n``, uncut.
    ``_unfolding_step`` gives what each position holds."""
    # A frame is a Struct being rebuilt: its symbol, an iterator over its arguments,
    # their generation, the depth left at them and the arguments done so far.
    stack = [(None, iter((t,)), 0, n, [])]
    while True:
        symbol, args, gen, left, done = stack[-1]
        for term in args:
            g = gen
            if not left or term.__class__ is Var:  # a structure above the cut is itself
                term, g = _unfolding_step(term, gen, left, bindings, cycle_vars)
            if term.__class__ is Var or not term.args:
                done.append(term)
                continue
            stack.append((term.symbol, iter(term.args), g, left - 1, []))
            break
        else:
            stack.pop()
            if not stack:
                return done[0]
            stack[-1][4].append(Struct(symbol, tuple(done)))


def truncated_text(n: int, t: Term, bindings: Mapping[Var, Term], cycle_vars: AbstractSet[Var],
                   names: Callable[[Var], Optional[str]]) -> str:
    """The text of ``truncate_value(n, t, bindings, cycle_vars)``, written
    by the walk that cuts the value, so no truncated term is built: the one
    text writer (``term_to_text`` is this walk with no bindings and no cut).
    A variable is shown by the name ``names`` gives it, or by its own
    display name where that is None; a mapping passes its ``get``."""
    parts: list[str] = []
    # A frame is an open structure's argument iterator, generation and depth left.
    # Each argument's text is followed by ","; closing puts ")" in place of its last.
    stack = [(iter((t,)), 0, n)]
    while stack:
        args, gen, left = stack[-1]
        for term in args:
            g = gen
            # With no bindings a variable stands for itself: no step to take.
            if not left or (bindings and term.__class__ is Var):
                term, g = _unfolding_step(term, gen, left, bindings, cycle_vars)
            if term.__class__ is Var:
                parts.append(names(term) or term.display)
            elif not term.args:
                parts.append(term.symbol.name)
            else:
                parts.append(term.symbol.name + "(")
                stack.append((iter(term.args), g, left - 1))
                break
            parts.append(",")
        else:
            stack.pop()
            parts[-1] = ")"
            parts.append(",")
    del parts[-2:]  # what closing the bottom frame wrote
    return "".join(parts)


def _unfolding_step(term: Term, gen: int, left: int, bindings: Mapping[Var, Term],
                    cycle_vars: AbstractSet[Var]) -> tuple[Term, int]:
    """What a truncated unfolding holds where ``term`` is at generation
    ``gen`` with ``left`` levels above the cut, and its arguments'
    generation.  With no level left, the reserved leaf; a negative ``left``
    never reaches the cut.  A bound variable met at generation 0 moves to
    generation 1, a cycle variable to the next, any other keeps its own; a
    free one at generation g is its g-1 copy.  A pure variable cycle
    (X ↦ Y, Y ↦ X) has no structure: its oldest variable stands for it, as
    in ``rational.build_node``."""
    if not left:
        return TRUNCATED, gen
    hops = 0  # variable-to-variable bindings passed: more than there are is a cycle
    while term.__class__ is Var:
        img = bindings.get(term)
        if img is None:
            if gen > 1:
                term = generation_var(term, gen - 1)
            break
        if img.__class__ is Var:
            hops += 1
            if hops > len(bindings):
                term = oldest_on_variable_cycle(term, bindings)
                break
        if not gen or term in cycle_vars:
            gen += 1
        term = img
    return term, gen


def _match_into(pattern: Term, target: Term, binding: dict[Var, Term]) -> bool:
    # Iterative: patterns can be as deep as the terms a derivation builds.
    # A ground pattern subterm binds nothing: it is compared whole, which
    # the cached hashes and identity make quick.
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
        if p._ground:
            if p != u:
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
