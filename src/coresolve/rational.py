"""Value graphs for rational trees.

A (possibly circular) substitution denotes, for each variable, a rational
term tree, which is a finite graph (Courcelle 1983).  This module resolves
terms against an ordered list of substitutions into that graph, as arrays
of node labels and children, minimizes it by bisimulation, and renders
solved-form answers whose circular bindings come out as fixpoint equations
such as ``X = scons(0,X)``.  Rational unification (``unify``) merges
node classes of the same graph and renders them with ``render_class``, and
``models.gfp_local_check`` reads the same graph.  Bounded unfolding is
the walk of ``terms.truncate_value`` and ``terms.truncated_text``, which
``decirc.unfold`` wraps.

Resolution is stratified: a variable is looked up in the first substitution
of the list; cycles are followed within one substitution (that is what makes
a binding circular), while variables a substitution leaves free advance to
the next one.  A single circular answer is simply the one-element list.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Callable, Optional, Sequence, Union

from .terms import (
    FreshVars,
    Struct,
    Substitution,
    Symbol,
    Term,
    Var,
    cycle_members,
    oldest_on_variable_cycle,
)

# A node's label: the symbol of a structure, or the variable of a free leaf.
Label = Union[Symbol, Var]


def build_node(
    terms: Sequence[Term], substs: Sequence[Substitution]
) -> tuple[list[int], list[Label], list[Sequence[int]]]:
    """The value graph of ``terms`` under the substitution list: the node
    of each term, and the label and children of each node, numbered from 0.
    Only nodes the terms reach are built, and a value they share is one
    node.  Iterative, so term depth is not bounded by the recursion limit.

    A variable is looked up at the first level from its own that binds it,
    in an index of binding levels built at the first lookup.  A pure
    variable cycle (X = Y, Y = X) is its oldest variable, a leaf."""
    maps = [s._bindings for s in substs]
    levels: Optional[dict[Var, list[int]]] = None
    memo: dict[tuple[Term, int], int] = {}
    labels: list[Label] = []
    kids: list[Sequence[int]] = []
    unfilled: list[tuple[int, tuple[Term, ...], int]] = []

    def node_for(t: Term, level: int) -> int:
        nonlocal levels
        seen: Optional[set[tuple[Var, int]]] = None
        while t.__class__ is Var:
            if levels is None:
                levels = {}
                for k, m in enumerate(maps):
                    for v in m:
                        levels.setdefault(v, []).append(k)
            at = levels.get(t, ())
            k = bisect_left(at, level)
            if k == len(at):
                level = len(maps)
                break
            level = at[k]
            img = maps[level][t]
            if img.__class__ is Var:
                if seen is None:
                    seen = set()
                elif (t, level) in seen:
                    t = oldest_on_variable_cycle(t, maps[level])
                    break
                seen.add((t, level))
            t = img
        key = (t, level)
        n = memo.get(key)
        if n is None:
            n = memo[key] = len(labels)
            kids.append(())
            if t.__class__ is Var:
                labels.append(t)
            else:
                labels.append(t.symbol)
                if t.args:
                    unfilled.append((n, t.args, level))
        return n

    roots = [node_for(t, 0) for t in terms]
    while unfilled:
        n, args, level = unfilled.pop()
        kids[n] = [node_for(a, level) for a in args]
    return roots, labels, kids


def minimize(labels: Sequence[Label], kids: Sequence[Sequence[int]]) -> list[int]:
    """Partition a graph by bisimilarity; returns the block of each node,
    numbered from 0 without gaps.  Two nodes in one block denote the same
    rational tree.

    A node that reaches no cycle denotes a finite tree.  Such nodes are
    taken children first, and each gets the block of its label and its
    children's blocks.  The other nodes start split by label and are
    refined in rounds until no block splits (Moore's algorithm), with the
    finite blocks fixed."""
    parents: list[list[int]] = [[] for _ in labels]
    for i, ks in enumerate(kids):
        for c in ks:
            parents[c].append(i)
    # A node is ready once all its children have a finite block.
    waiting = [len(ks) for ks in kids]
    ready = [i for i, w in enumerate(waiting) if not w]
    block = [-1] * len(labels)
    finite_blocks: dict[tuple, int] = {}
    for i in ready:
        key = (labels[i], *[block[c] for c in kids[i]])
        block[i] = finite_blocks.setdefault(key, len(finite_blocks))
        for p in parents[i]:
            waiting[p] -= 1
            if not waiting[p]:
                ready.append(p)
    infinite = [i for i, b in enumerate(block) if b < 0]
    base = len(finite_blocks)
    first: dict[Label, int] = {}
    for i in infinite:
        block[i] = first.setdefault(labels[i], base + len(first))
    count = len(first)
    while True:
        sigs: dict[tuple, int] = {}
        new = [
            sigs.setdefault((block[i], *[block[c] for c in kids[i]]), base + len(sigs))
            for i in infinite
        ]
        if len(sigs) == count:
            return block
        for i, b in zip(infinite, new):
            block[i] = b
        count = len(sigs)


def render_class(
    c: int,
    labels: Sequence[Label],
    kids: Sequence[Sequence[int]],
    name: Callable[[int], Optional[Term]],
    rendered: dict[int, Term],
) -> Term:
    """Class ``c`` of a quotient graph as it appears inside a term: the
    variable ``name(c)`` (a free leaf, or a cyclic class written out in its
    own binding), or else the structure ``labels[c]`` over the classes
    ``kids[c]``, rendered alike, children first on an explicit stack.
    ``rendered`` keeps each class's term across calls."""
    work = [c]
    while work:
        top = work[-1]
        if top in rendered:
            work.pop()
            continue
        got = name(top)
        if got is None:
            todo = [k for k in kids[top] if k not in rendered]
            if todo:
                work.extend(reversed(todo))
                continue
            got = Struct(labels[top], tuple([rendered[k] for k in kids[top]]))
        rendered[top] = got
        work.pop()
    return rendered[c]


def _letters(n: int) -> str:
    """A, B, ..., Z, BA, BB, ...: ``n`` in base 26 with digits A to Z."""
    out = chr(ord("A") + n % 26)
    while n >= 26:
        n //= 26
        out = chr(ord("A") + n % 26) + out
    return out


def solved_answer(
    query_vars: Sequence[Var],
    substs: Sequence[Substitution],
    fresh: Optional[FreshVars] = None,
) -> Substitution:
    """Collapse an ordered substitution sequence into one solved-form answer
    for the query variables: the answer ``run`` prints, a ``V = t`` line per
    binding but a ``_``'s.  Circular values come out as fixpoint bindings.
    A query variable, a ``_`` aside, names the first cycle that is its value
    and stands for itself where it is free.  Every other variable the answer
    writes is fresh: a cycle no query variable owns (bound after the
    bindings that meet it), a free variable (a clause's or a ``_``) and a
    later copy of a bound query variable.  The query's own variables are
    bound first, then their cycles, then each ``_`` and its cycles.  The
    fresh variables of the first group are ``_A``, ``_B``, ... in the order
    its bindings meet them, skipping the query's names, and those of the
    second, which no printed line meets, are ``_``s.  A ``_`` keeps its
    binding for callers that read the whole query term, such as ``validate``."""
    fresh = fresh or FreshVars(10**9)
    own = [v for v in query_vars if v.hint != "_"]
    anonymous = [v for v in query_vars if v.hint == "_"]
    nodes, labels, kids = build_node(own + anonymous, substs)
    roots = dict(zip(own + anonymous, nodes))
    block = minimize(labels, kids)

    # One node stands for its block: the nodes of a block have the same
    # label and children in the same blocks.
    rep = dict(zip(block, range(len(block))))
    blabels = [labels[rep[b]] for b in range(len(rep))]
    succ = [[block[c] for c in kids[rep[b]]] for b in range(len(rep))]
    # Cyclic blocks (a node reaching its own block again) need a variable name.
    cyclic = cycle_members(range(len(succ)), succ.__getitem__)

    # A query variable names its block if it owns the cycle there (the
    # first does) or stands for itself there.
    name_of = {block[roots[v]]: v for v in reversed(own)
               if block[roots[v]] in cyclic or labels[roots[v]] == v}
    taken = {v.display for v in query_vars}
    unused = (s for s in ("_" + _letters(n) for n in itertools.count()) if s not in taken)
    pending: list[int] = []
    rendered: dict[int, Term] = {}

    def name(b: int) -> Optional[Term]:
        # Any other free leaf or cycle gets a fresh name when it is first
        # reached; a cycle's own binding is emitted afterwards.
        got = name_of.get(b)
        if got is None and (b in cyclic or blabels[b].__class__ is Var):
            got = name_of[b] = fresh.new(hint or next(unused))
            if b in cyclic:
                pending.append(b)
        return got

    def expand(v: Var, b: int) -> None:
        args = [render_class(c, blabels, succ, name, rendered) for c in succ[b]]
        bindings[v] = Struct(blabels[b], tuple(args))
        cycle_vars.append(v)

    bindings: dict[Var, Term] = {}
    # Each expansion leads round its cycle to the name of the next cyclic
    # block on it, so the names it binds are the answer's cycle variables.
    cycle_vars: list[Var] = []
    for group, hint in ((own, None), (anonymous, "_")):  # ``name`` reads ``hint``
        for v in group:
            b = block[roots[v]]
            if b in cyclic and name_of.get(b) is v:
                expand(v, b)
            else:
                bindings[v] = render_class(b, blabels, succ, name, rendered)
        for b in pending:  # grows while it is read
            expand(name_of[b], b)
        pending.clear()
    return Substitution._with_cycle_vars(bindings, cycle_vars)
