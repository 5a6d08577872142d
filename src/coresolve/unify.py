"""The three unifier computations the calculus distinguishes: most general
matcher, most general unifier with occurs check, and rational-tree
unification without occurs check.

``mgu`` is implemented once and classified post hoc into Matcher vs
ProperUnifier by testing whether it leaves the pattern side fixed; the
substitution reduction of the derivation engine needs exactly that
classification ("unifies but does not match").  A search step runs them
on a stored clause head in place, through ``resolve_head``.

Rational unification merges classes of the nodes of the two terms' value
graph (``rational.build_node``), where equal subterms are one node, and
renders the classes with ``rational.render_class``.  So a unifier depends
on the terms' values only, never on which equal subterms are one object.
"""

from __future__ import annotations

from enum import Enum
from itertools import repeat
from operator import is_
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .program import Clause, Renaming
from .rational import Label, build_node, render_class
from .terms import (
    DeferredSubstitution,
    FreshVars,
    Struct,
    Substitution,
    Term,
    Var,
    _match_into,
    apply_raw,
    cycle_members,
    map_vars,
    variables_in_order,
    variables_of,
)


class UnifyKind(Enum):
    MATCHER = "matcher"
    PROPER_UNIFIER = "proper_unifier"
    RATIONAL_UNIFIER = "rational_unifier"
    FAIL = "fail"


class UnifyOutcome(NamedTuple):
    kind: UnifyKind
    substitution: Optional[Substitution] = None
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.kind is not UnifyKind.FAIL

    ok = property(__bool__)


def _fail(reason: str) -> UnifyOutcome:
    return UnifyOutcome(UnifyKind.FAIL, reason=reason)


def mgm(pattern: Term, target: Term) -> UnifyOutcome:
    """Most general matcher: sigma with sigma(pattern) == target, binding
    only pattern variables.  Never produces circular bindings when the
    arguments are standardised apart."""
    binding: dict[Var, Term] = {}
    if not _match_into(pattern, target, binding):
        return _fail("no matcher")
    return UnifyOutcome(UnifyKind.MATCHER, Substitution(binding))


def _classify(sigma: Substitution, a: Term, b: Term) -> UnifyOutcome:
    if apply_raw(sigma, a) == b and sigma.domain() <= variables_of(a):
        return UnifyOutcome(UnifyKind.MATCHER, sigma)
    return UnifyOutcome(UnifyKind.PROPER_UNIFIER, sigma)


def _cycle(v: Var) -> ValueError:
    return ValueError(f"binding cycle: variable {v} (id {v.id}) is reached again from its own value")


def _walk(t: Term, bind: dict[Var, Term]) -> Term:
    """``t`` with its chain of variable bindings followed.  A chain with
    more links than the map has bindings has come back to a variable on
    it, which raises ValueError naming that variable."""
    hops = 0
    while t.__class__ is Var:
        nxt = bind.get(t)
        if nxt is None:
            return t
        hops += 1
        if hops > len(bind):
            raise _cycle(t)
        t = nxt
    return t


def _occurs_resolved(v: Var, t: Term, bind: dict[Var, Term]) -> bool:
    """Whether ``v`` occurs in ``t`` resolved through ``bind``, searching
    each bound variable's value once: the search marks the variable open
    while its value is searched and done after, and passes a done one by.
    A bound variable met again while open is a binding cycle, which raises
    ValueError naming it instead of searching forever."""
    stack: list = [t]
    done: dict[Var, bool] = {}  # each bound variable met: whether its value is searched
    while stack:
        cur = stack.pop()
        if cur.__class__ is tuple:  # the value of cur[0] is searched
            done[cur[0]] = True
            continue
        if cur.__class__ is Var:
            if cur in done:
                if done[cur]:
                    continue
                raise _cycle(cur)
            val = _walk(cur, bind)
            if val.__class__ is Var:
                if val == v:
                    return True
                continue
            # A ground subterm holds no variable: skip it without a walk.
            if val._ground:
                continue
            done[cur] = False
            stack.append((cur,))
            stack.extend(val.args)
        elif not cur._ground:
            stack.extend(cur.args)
    return False


def _resolve_full(t: Term, bind: dict[Var, Term]) -> Term:
    """Fully resolve a term through a triangular binding map, on an
    explicit stack, resolving each bound variable once: a variable met
    again takes its value as first resolved, so values that share
    variables are built as one graph, in time linear in its size.  A
    subterm that no binding changes, ground or not, comes back as the same
    object, not rebuilt.  A bound variable met again while its own value
    is being resolved is a binding cycle, which raises ValueError naming it
    instead of growing the term without end."""
    var = None
    if t.__class__ is Var:
        var, t = t, _walk(t, bind)
    if t._ground or t.__class__ is Var:
        return t
    # Each bound variable met: None while its value is open, that value resolved after.
    resolved: dict[Var, Optional[Term]] = {} if var is None else {var: None}
    # A frame is an open structure, its argument iterator, the resolved
    # arguments so far and the bound variable it is the value of, if any.
    stack: list[tuple[Struct, Iterator[Term], list[Term], Optional[Var]]] = [
        (t, iter(t.args), [], var)
    ]
    while True:
        node, args, done, var = stack[-1]
        for a in args:
            if a._ground:
                done.append(a)
                continue
            if a.__class__ is Var:
                img = bind.get(a)
                if img is None:
                    done.append(a)
                    continue
                if a in resolved:
                    img = resolved[a]
                    if img is None:
                        raise _cycle(a)
                    done.append(img)
                    continue
                img = _walk(img, bind)
                if img._ground or img.__class__ is Var:
                    done.append(img)
                    continue
                resolved[a] = None
                stack.append((img, iter(img.args), [], a))
            else:
                stack.append((a, iter(a.args), [], None))
            break
        else:
            stack.pop()
            if not all(map(is_, done, node.args)):
                node = Struct(node.symbol, tuple(done))
            if var is not None:
                resolved[var] = node
            if not stack:
                return node
            stack[-1][2].append(node)


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


def resolve_head(
    c: Clause, atom: Term, fresh: FreshVars, matching: bool = False
) -> Optional[tuple[UnifyKind, Substitution, tuple[Term, ...], Renaming, dict[Var, Term]]]:
    """What ``mgm`` (with ``matching``) or ``mgu`` give on
    ``clause_instance(c, fresh).head`` and ``atom``, with the same ids
    drawn from ``fresh``, as the tuple ``(kind, substitution, body,
    renaming, bindings)``, or None where they fail.  The stored head is
    read in place, as in WAM head unification (Aït-Kaci 1991).  The renamed
    head shares no variable with ``atom``, so the result is a matcher
    exactly when no variable of ``atom`` is bound; then every binding is an
    unchanged subterm of ``atom``.  ``bindings`` is the map as unification
    left it: triangular, and a matcher's keyed by the stored clause's own
    variables.  The body is built from it, renaming only the variables it
    leaves unbound; ``substitution`` is renamed and resolved when read."""
    positions = c.var_positions
    n = len(positions)
    first = fresh.block(n) if n else 0
    copies: dict[Var, Var] = {}

    def copy(v: Var) -> Var:
        r = copies.get(v)
        if r is None:
            r = copies[v] = Var(first + positions[v], v.hint)
        return r

    bind: dict[Var, Term] = {}
    if matching:
        if not _match_into(c.head, atom, bind):
            return None
    elif _solve([(c.head, atom, True)], bind, copies, copy) is not None:
        return None
    proper = not matching and not all(first <= v.id < first + n for v in bind)

    def image(v: Var) -> Term:
        if matching:
            return bind.get(v) or copy(v)
        t = bind.get(r := copy(v), r)
        return _resolve_full(t, bind) if proper and t is not r and not t._ground else t

    # Matching binds every head variable: only a body-only one needs a copy.
    body = tuple(map_vars(bind.get if matching and len(bind) == n else image, b) for b in c.body)
    kind = UnifyKind.PROPER_UNIFIER if proper else UnifyKind.MATCHER
    sigma = DeferredSubstitution(_renamed_resolved, (bind, positions, first, matching), not proper)
    return kind, sigma, body, Renaming(c, first), bind


def _renamed_resolved(bind: dict, positions: dict, first: int, matching: bool) -> dict[Var, Term]:
    if matching:
        return {Var(first + positions[v], v.hint): t for v, t in bind.items()}
    return {v: _resolve_full(t, bind) for v, t in bind.items()}


# Rational unification's classes: the value graph of the two terms (node
# labels and children), each node's class (its root node) and each class's
# oldest variable, indexed by node.
Classes = tuple[list[Label], list[Sequence[int]], list[int], list[Optional[Var]]]


def _rational_solve(a: Term, b: Term) -> Union[Classes, str]:
    """The propagation phase of rational-tree unification: merge classes of
    the nodes of the value graph of ``a`` and ``b``, where equal subterms
    are one node, until fixpoint or symbol clash.  A class's root is a
    structure node when the class has one, so the root's label and
    children are the class's.  Returns the graph with its classes on
    success, a failure reason string on clash."""
    (ra, rb), labels, kids = build_node([a, b], ())
    parent = list(range(len(labels)))
    oldest = [v if v.__class__ is Var else None for v in labels]

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    work = [(ra, rb)]
    while work:
        s, t = work.pop()
        s, t = find(s), find(t)
        if s == t:
            continue
        vs, vt = oldest[s], oldest[t]
        if vs is None or (vt is not None and vt.id < vs.id):
            vs = vt
        if labels[s].__class__ is Var:
            s, t = t, s
        elif labels[t].__class__ is not Var:
            if labels[s] != labels[t]:
                return f"clash: {labels[s]} vs {labels[t]}"
            work.extend(zip(kids[s], kids[t]))
        parent[t] = s
        oldest[s] = vs
    return labels, kids, [find(k) for k in range(len(parent))], oldest


def rational_unify(a: Term, b: Term) -> UnifyOutcome:
    """Unification without occurs check over rational trees.  Fails only on
    symbol clash; circular constraints become finite self-referencing
    bindings (the answer format ``X = scons(0,X)``)."""
    solved = _rational_solve(a, b)
    if isinstance(solved, str):
        return _fail(solved)
    sigma = _extract(solved, [a, b])
    if sigma.circular:
        return UnifyOutcome(UnifyKind.RATIONAL_UNIFIER, sigma)
    return _classify(sigma, a, b)


def _extract(solved: Classes, roots: list[Term]) -> Substitution:
    labels, kids, cls, oldest = solved
    # The class graph: a class is labelled by its root's label, with an
    # edge to the class of each of the root's children.
    succ = {c: [cls[k] for k in kids[c]] for c in set(cls)}

    # Classes on a cycle of that graph must be rendered through their
    # canonical variable to stay finite.  Every cycle passes a class with a
    # variable: the nodes of a class have their children in the same
    # classes, and a child is a strictly smaller term, so on a cycle of
    # structure-only classes the smallest node would have a child on the
    # cycle that is smaller still.  So rendering stops on every cycle, and
    # a class renders the same wherever it occurs.
    cyclic = cycle_members(succ, succ.__getitem__)

    def name(c: int) -> Optional[Var]:
        return oldest[c] if labels[c].__class__ is Var or c in cyclic else None

    node_of = {v: n for n, v in enumerate(labels) if v.__class__ is Var}
    rendered: dict[int, Term] = {}
    bindings: dict[Var, Term] = {}
    for v in variables_in_order(roots):
        c = cls[node_of[v]]
        if labels[c].__class__ is Var:
            bindings[v] = oldest[c]
        else:
            # Expand one level; self-references inside come back as the
            # canonical variable, giving the fixpoint form.
            args = [render_class(k, labels, succ, name, rendered) for k in succ[c]]
            bindings[v] = Struct(labels[c], tuple(args))
    # The cycle variables of the bindings are the canonical variables of
    # the cyclic classes: each is bound to its class's structure, which
    # leads round the cycle to the next canonical variable on it, while
    # no image mentions any other variable of a class.
    return Substitution._with_cycle_vars(
        bindings, {oldest[c] for c in cyclic if oldest[c] is not None}
    )
