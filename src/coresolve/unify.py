"""The three unifier computations the calculus distinguishes: most general
matcher, most general unifier with occurs check, and rational-tree
unification without occurs check.

``mgu`` is implemented once and classified post hoc into Matcher vs
ProperUnifier by testing whether it leaves the pattern side fixed; the
substitution reduction of the derivation engine needs exactly that
classification ("unifies but does not match").  A search step runs them
on a stored clause head in place, through ``resolve_head``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import is_
from typing import Callable, NamedTuple, Optional, Union

from .program import Clause, Renaming
from .rational import render_class
from .terms import (
    FreshVars,
    Struct,
    Substitution,
    Symbol,
    Term,
    Var,
    _match_into,
    apply_raw,
    cycle_members,
    iter_subterms,
    map_vars,
    match,
    variables_in_order,
    variables_of,
)


class UnifyKind(Enum):
    MATCHER = "matcher"
    PROPER_UNIFIER = "proper_unifier"
    RATIONAL_UNIFIER = "rational_unifier"
    FAIL = "fail"


@dataclass(frozen=True)
class UnifyOutcome:
    kind: UnifyKind
    substitution: Optional[Substitution] = None
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.kind is not UnifyKind.FAIL

    def __bool__(self) -> bool:
        return self.ok


def _fail(reason: str) -> UnifyOutcome:
    return UnifyOutcome(UnifyKind.FAIL, reason=reason)


def occurs_in(v: Var, t: Term) -> bool:
    return any(s == v for s in iter_subterms(t) if isinstance(s, Var))


def mgm(pattern: Term, target: Term) -> UnifyOutcome:
    """Most general matcher: sigma with sigma(pattern) == target, binding
    only pattern variables.  Never produces circular bindings when the
    arguments are standardised apart."""
    sigma = match(pattern, target)
    if sigma is None:
        return _fail("no matcher")
    return UnifyOutcome(UnifyKind.MATCHER, sigma)


def _classify(sigma: Substitution, a: Term, b: Term) -> UnifyOutcome:
    if apply_raw(sigma, a) == b and sigma.domain() <= variables_of(a):
        return UnifyOutcome(UnifyKind.MATCHER, sigma)
    return UnifyOutcome(UnifyKind.PROPER_UNIFIER, sigma)


def _walk(t: Term, bind: dict[Var, Term]) -> Term:
    while isinstance(t, Var):
        nxt = bind.get(t)
        if nxt is None:
            return t
        t = nxt
    return t


def _occurs_resolved(v: Var, t: Term, bind: dict[Var, Term]) -> bool:
    stack = [t]
    while stack:
        cur = _walk(stack.pop(), bind)
        if cur == v:
            return True
        # A ground subterm holds no variable: skip it without a walk.
        if isinstance(cur, Struct) and not cur._ground:
            stack.extend(cur.args)
    return False


def _resolve_full(t: Term, bind: dict[Var, Term]) -> Term:
    """Fully resolve a term through an acyclic triangular binding map, on an
    explicit stack.  A subterm that no binding changes, ground or not,
    comes back as the same object, not rebuilt."""
    done: list[Term] = []
    # (term, False) is a position to resolve; (struct, True) marks that the
    # struct's arguments are done and it can be put back together.
    work: list[tuple[Term, bool]] = [(t, False)]
    while work:
        cur, args_done = work.pop()
        if args_done:
            assert isinstance(cur, Struct)
            n = len(cur.args)
            args = tuple(done[-n:])
            del done[-n:]
            if all(map(is_, args, cur.args)):
                done.append(cur)
            else:
                done.append(Struct(cur.symbol, args))
            continue
        cur = _walk(cur, bind)
        # Nullary symbols are ground, so a struct left here has arguments.
        if cur._ground or isinstance(cur, Var):
            done.append(cur)
            continue
        work.append((cur, True))
        work.extend((a, False) for a in reversed(cur.args))
    return done[0]


def _solve(stack: list, bind: dict[Var, Term], copies: dict[Var, Var],
           copy: Optional[Callable[[Var], Var]]) -> Optional[tuple[Term, Term]]:
    """Unify the pairs on ``stack`` into the triangular map ``bind``, with
    occurs check; return None, or the pair that failed.  In a pair ``(s, t,
    True)``, ``s`` is a stored clause head's subterm, read as its renaming:
    ``copy`` makes a variable's copy, kept in ``copies``.  A copy made at a
    first occurrence is in no term yet, so it binds without an occurs check
    (the WAM's ``get_variable``).  Variable-variable equations bind the
    younger (higher-id) variable to the older one."""
    while stack:
        s, t, stored = stack.pop()
        if stored:
            if s.__class__ is Var:
                r = copies.get(s)
                if r is None:
                    r = copy(s)
                    t = _walk(t, bind)
                    if t.__class__ is Var and r.id < t.id:
                        bind[t] = r
                    else:
                        bind[r] = t
                    continue
                s = r
            elif not s._ground:
                t = _walk(t, bind)
                if t.__class__ is Var:
                    u = map_vars(copy, s)
                    if _occurs_resolved(t, u, bind):
                        return t, u
                    bind[t] = u
                elif s.symbol != t.symbol:
                    return s, t
                else:
                    stack.extend(zip(s.args, t.args, repeat(True)))
                continue
            # A ground head subterm is its own renaming.
        s = _walk(s, bind)
        t = _walk(t, bind)
        if s == t:
            continue
        if s.__class__ is Var and t.__class__ is Var:
            if s.id < t.id:
                bind[t] = s
            else:
                bind[s] = t
            continue
        if s.__class__ is Var or t.__class__ is Var:
            v, u = (s, t) if s.__class__ is Var else (t, s)
            if _occurs_resolved(v, u, bind):
                return v, u
            bind[v] = u
            continue
        if s.symbol != t.symbol:
            return s, t
        stack.extend(zip(s.args, t.args, repeat(False)))
    return None


def mgu(a: Term, b: Term) -> UnifyOutcome:
    """Most general unifier with occurs check, in idempotent solved form."""
    bind: dict[Var, Term] = {}
    failed = _solve([(a, b, False)], bind, {}, None)
    if failed is not None:
        s, t = failed
        return _fail("occurs check" if isinstance(s, Var) else f"clash: {s.symbol} vs {t.symbol}")
    solved = Substitution({v: _resolve_full(t, bind) for v, t in bind.items()})
    return _classify(solved, a, b)


class Resolvent(NamedTuple):
    """A head unified or matched: kind, substitution, renamed body, renaming."""

    kind: UnifyKind
    substitution: Substitution
    body: tuple[Term, ...]
    renaming: Renaming


def resolve_head(
    c: Clause, atom: Term, fresh: FreshVars, matching: bool = False
) -> Optional[Resolvent]:
    """What ``mgm`` (with ``matching``) or ``mgu`` give on
    ``clause_instance(c, fresh).head`` and ``atom``, with the same ids
    drawn from ``fresh``, or None where they fail.  The stored head is read
    in place, as in WAM head unification (Aït-Kaci 1991).  The renamed head
    shares no variable with ``atom``, so the result is a matcher exactly
    when no variable of ``atom`` is bound; then every binding is an
    unchanged subterm of ``atom``, and needs no resolving walk."""
    positions = c.var_positions
    n = len(positions)
    first = fresh.block(n) if n else 0
    copies: dict[Var, Var] = {}

    def copy(v: Var) -> Var:
        r = copies.get(v)
        if r is None:
            r = copies[v] = Var(first + positions[v], v.hint)
        return r

    kind = UnifyKind.MATCHER
    bind: dict[Var, Term] = {}
    if matching:
        if not _match_into(c.head, atom, bind):
            return None
        bind = {copy(v): t for v, t in bind.items()}
    elif _solve([(c.head, atom, True)], bind, copies, copy) is not None:
        return None
    elif not all(first <= v.id < first + n for v in bind):
        kind = UnifyKind.PROPER_UNIFIER
        bind = {v: _resolve_full(t, bind) for v, t in bind.items()}
    sigma = Substitution(bind)
    get = sigma._bindings.get

    def image(v: Var) -> Term:
        r = copy(v)
        return get(r, r)

    body = tuple(map_vars(image, b) for b in c.body)
    return Resolvent(kind, sigma, body, Renaming(c, first))


class _UnionFind:
    """Union-find over term nodes for rational-tree unification.

    Term values (variables or structured subterms) are interned to integer
    handles once, so the hot find/union paths never hash or compare terms.
    Each class keeps its oldest variable (for deterministic answers) and one
    structure witness (symbols of two witnesses in one class must agree).
    """

    def __init__(self) -> None:
        # Variables are interned by value (every occurrence of a variable
        # must share a class); structures by object identity, as in the
        # standard term-graph formulation — equal subterm copies simply
        # start as separate nodes and merge if the worklist demands it.
        self.ids: dict[object, int] = {}
        self.parent: list[int] = []
        self.var_rep: list[Optional[Var]] = []
        self.witness: list[Optional[Struct]] = []
        self._keep: list[Struct] = []  # pins id()-keyed nodes alive

    def add(self, t: Term) -> int:
        key: object = t if isinstance(t, Var) else id(t)
        k = self.ids.get(key)
        if k is None:
            k = len(self.parent)
            self.ids[key] = k
            self.parent.append(k)
            if isinstance(t, Var):
                self.var_rep.append(t)
                self.witness.append(None)
            else:
                self.var_rep.append(None)
                self.witness.append(t)
                self._keep.append(t)
        return k

    def find(self, k: int) -> int:
        parent = self.parent
        root = k
        while parent[root] != root:
            root = parent[root]
        while parent[k] != root:
            parent[k], k = root, parent[k]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        self.parent[rb] = ra
        va, vb = self.var_rep[ra], self.var_rep[rb]
        if va is None or (vb is not None and vb.id < va.id):
            va = vb
        self.var_rep[ra] = va
        if self.witness[ra] is None:
            self.witness[ra] = self.witness[rb]
        return ra


def _rational_solve(a: Term, b: Term) -> Union[_UnionFind, str]:
    """The propagation phase of rational-tree unification: merge equivalence
    classes of subterms until fixpoint or symbol clash.  Returns the
    union-find on success, a failure reason string on clash."""
    uf = _UnionFind()
    work: list[tuple[Term, Term]] = [(a, b)]
    while work:
        s, t = work.pop()
        ks, kt = uf.add(s), uf.add(t)
        if uf.find(ks) == uf.find(kt):
            continue
        ws = uf.witness[uf.find(ks)]
        wt = uf.witness[uf.find(kt)]
        if ws is not None and wt is not None:
            if ws.symbol != wt.symbol:
                return f"clash: {ws.symbol} vs {wt.symbol}"
            uf.union(ks, kt)
            work.extend(zip(ws.args, wt.args))
        else:
            uf.union(ks, kt)
    return uf


def rational_unify(a: Term, b: Term) -> UnifyOutcome:
    """Unification without occurs check over rational trees.  Fails only on
    symbol clash; circular constraints become finite self-referencing
    bindings (the answer format ``X = scons(0,X)``)."""
    uf = _rational_solve(a, b)
    if isinstance(uf, str):
        return _fail(uf)
    sigma = _extract(uf, [a, b])
    if sigma.circular:
        return UnifyOutcome(UnifyKind.RATIONAL_UNIFIER, sigma)
    return _classify(sigma, a, b)


def _extract(uf: _UnionFind, roots: list[Term]) -> Substitution:
    # Register every subterm of the roots so that class rendering can
    # resolve children the solving worklist never had to touch.
    for root in roots:
        for sub in iter_subterms(root):
            uf.add(sub)

    find = uf.find
    # The class graph: a class with a structure witness is labelled by its
    # symbol, with an edge to the class of each of the witness's arguments.
    symbols: dict[int, Symbol] = {}
    edges: dict[int, list[int]] = {}
    for c in sorted({find(k) for k in range(len(uf.parent))}):
        w = uf.witness[c]
        edges[c] = [] if w is None else [find(uf.add(a)) for a in w.args]
        if w is not None:
            symbols[c] = w.symbol

    # Classes on a cycle of that graph must be rendered through their
    # canonical variable to stay finite.  Every cycle passes a class with a
    # variable: the members of a class have their arguments in the same
    # classes, so on a cycle of structure-only classes the lowest member
    # would have an argument on the cycle that is lower still.  So
    # rendering stops on every cycle, and a class renders the same wherever
    # it occurs.
    cyclic = cycle_members(edges, edges.__getitem__)

    def name(c: int) -> Optional[Var]:
        return uf.var_rep[c] if c not in symbols or c in cyclic else None

    rendered: dict[int, Term] = {}
    bindings: dict[Var, Term] = {}
    for v in variables_in_order(roots):
        c = find(uf.add(v))
        if c in symbols:
            # Expand one level; self-references inside come back as the
            # canonical variable, giving the fixpoint form.
            args = [render_class(k, symbols, edges, name, rendered) for k in edges[c]]
            bindings[v] = Struct(symbols[c], tuple(args))
        else:
            bindings[v] = uf.var_rep[c]
    # The cycle variables of the bindings are the canonical variables of
    # the cyclic classes: each is bound to its class's structure, which
    # leads round the cycle to the next canonical variable on it, while
    # no image mentions any other variable of a class.
    return Substitution._with_cycle_vars(
        bindings, {uf.var_rep[c] for c in cyclic if uf.var_rep[c] is not None}
    )
