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


def solved_answer(
    query_vars: Sequence[Var],
    substs: Sequence[Substitution],
    fresh: Optional[FreshVars] = None,
) -> Substitution:
    """Collapse an ordered substitution sequence into one solved-form answer
    for the query variables.  Circular values come out as fixpoint bindings
    reusing the query variables' own names where possible; cycles not owned
    by any query variable get fresh auxiliary variables.  A free leaf named
    by a query variable that the answer binds is that variable's copy at a
    later substitution, a different variable, so it gets a fresh name too."""
    fresh = fresh or FreshVars(10**9)
    nodes, labels, kids = build_node(query_vars, substs)
    roots = dict(zip(query_vars, nodes))
    block = minimize(labels, kids)

    # One node stands for its block: the nodes of a block have the same
    # label and children in the same blocks.
    rep = dict(zip(block, range(len(block))))
    blabels = [labels[rep[b]] for b in range(len(rep))]
    succ = [[block[c] for c in kids[rep[b]]] for b in range(len(rep))]
    # Cyclic blocks (a node reaching its own block again) need a variable
    # name; prefer the first query variable whose value lives in the block.
    cyclic = cycle_members(range(len(succ)), succ.__getitem__)

    bound = {v for v, n in roots.items() if labels[n] != v}
    name_of = {block[n]: v for v, n in reversed(roots.items()) if labels[n].__class__ is Symbol}

    pending: list[int] = []
    rendered: dict[int, Term] = {}

    def name(b: int) -> Optional[Term]:
        # A cycle nobody named yet is named when it is first reached, and
        # its own binding is emitted afterwards.
        label = blabels[b]
        if isinstance(label, Var):
            return fresh.new() if label in bound else label
        if b not in cyclic:
            return None
        got = name_of.get(b)
        if got is None:
            got = name_of[b] = fresh.new()
            pending.append(b)
        return got

    def expand(b: int) -> Term:
        args = [render_class(c, blabels, succ, name, rendered) for c in succ[b]]
        return Struct(blabels[b], tuple(args))

    bindings: dict[Var, Term] = {}
    done_blocks: set[int] = set()
    for v, n in roots.items():
        b = block[n]
        if isinstance(blabels[b], Var):
            # v itself, an identity binding, where v is unbound
            bindings[v] = render_class(b, blabels, succ, name, rendered)
        elif name_of[b] != v and b in cyclic:
            bindings[v] = name_of[b]
        else:
            bindings[v] = expand(b)
            done_blocks.add(b)
    for b in pending:  # grows while it is read
        bindings[name_of[b]] = expand(b)
        done_blocks.add(b)
    # The cycle variables of the answer are the names of the cyclic blocks
    # it expands: each expansion leads round its cycle to the name of the
    # next cyclic block on it, and aliases and free leaves lead nowhere.
    return Substitution._with_cycle_vars(
        bindings, {name_of[b] for b in cyclic if b in done_blocks}
    )
