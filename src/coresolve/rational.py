"""Value graphs for rational trees.

A (possibly circular) substitution denotes, for each variable, a rational
term tree.  This module resolves terms against an ordered list of
substitutions into a finite graph of value nodes, minimizes that graph by
bisimulation, and renders solved-form answers whose circular bindings come
out as fixpoint equations such as ``X = scons(0,X)``.  Bounded unfolding
lives in ``decirc``.

Resolution is stratified: a variable is looked up in the first substitution
of the list; cycles are followed within one substitution (that is what makes
a binding circular), while variables a substitution leaves free advance to
the next one.  A single circular answer is simply the one-element list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

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


@dataclass(eq=False, slots=True)
class Node:
    """One value node: a structure with node children, or a free leaf var."""

    symbol: Optional[Symbol]
    var: Optional[Var] = None
    children: list["Node"] = field(default_factory=list)

    @property
    def is_leaf_var(self) -> bool:
        return self.symbol is None


def _resolve(
    term: Term, level: int, maps: Sequence[Mapping[Var, Term]]
) -> tuple[Term, int]:
    """Chase variable bindings starting at ``level``; returns the first
    non-variable term (with the level it lives at) or an unbound variable."""
    seen: Optional[set[tuple[Var, int]]] = None
    while isinstance(term, Var) and level < len(maps):
        img = maps[level].get(term)
        if img is None:
            level += 1
            continue
        if isinstance(img, Var):
            if seen is None:
                seen = set()
            elif (term, level) in seen:
                # A pure variable cycle (X = Y, Y = X): no structure.
                return oldest_on_variable_cycle(term, maps[level]), level
            seen.add((term, level))
        term = img
    return term, level


def build_node(terms: Sequence[Term], substs: Sequence[Substitution]) -> list[Node]:
    """Graph nodes for the values of ``terms`` under the substitution list,
    one per term, in one graph: a value the terms share is one node.  Built
    with an explicit stack, so term depth is not bounded by the
    interpreter's recursion."""
    maps = [s.bindings for s in substs]
    memo: dict[tuple[Term, int], Node] = {}
    unfilled: list[tuple[Node, tuple[Term, ...], int]] = []

    def node_for(t: Term, level: int) -> Node:
        if isinstance(t, Var):
            t, level = _resolve(t, level, maps)
        key = (t, level)
        node = memo.get(key)
        if node is None:
            if isinstance(t, Var):
                node = Node(None, t)
            else:
                node = Node(t.symbol)
                if t.args:
                    unfilled.append((node, t.args, level))
            memo[key] = node
        return node

    roots = [node_for(t, 0) for t in terms]
    while unfilled:
        node, args, level = unfilled.pop()
        node.children = [node_for(a, level) for a in args]
    return roots


def reachable(roots: Iterable[Node]) -> list[Node]:
    out: list[Node] = []
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        out.append(n)
        stack.extend(n.children)
    return out


def minimize(nodes: Sequence[Node]) -> dict[int, int]:
    """Partition ``nodes`` by bisimilarity; returns id(node) → block number.
    ``nodes`` must hold the children of each of its nodes, as ``reachable``
    returns them.  Two nodes in one block denote the same rational tree.

    A node that reaches no cycle denotes a finite tree.  Such nodes are
    taken children first, and each gets the block of its label and its
    children's blocks.  The other nodes start split by symbol and are
    refined in rounds until no block splits (Moore's algorithm), with the
    finite blocks fixed."""
    index = {id(n): i for i, n in enumerate(nodes)}
    kids = [[index[id(c)] for c in n.children] for n in nodes]
    labels: list[object] = [n.var if n.symbol is None else n.symbol for n in nodes]
    parents: list[list[int]] = [[] for _ in nodes]
    for i, ks in enumerate(kids):
        for c in ks:
            parents[c].append(i)
    # A node is ready once all its children have a finite block.
    waiting = [len(ks) for ks in kids]
    ready = [i for i, w in enumerate(waiting) if not w]
    block = [-1] * len(nodes)
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
    first: dict[object, int] = {}
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
            return {id(n): b for n, b in zip(nodes, block)}
        for i, b in zip(infinite, new):
            block[i] = b
        count = len(sigs)


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
    roots = dict(zip(query_vars, build_node(query_vars, substs)))
    nodes = reachable(roots.values())
    block = minimize(nodes)

    # One node stands for its block: the nodes of a block have the same
    # symbol and children in the same blocks.
    rep: dict[int, Node] = {}
    for n in nodes:
        rep.setdefault(block[id(n)], n)
    succ = {b: [block[id(c)] for c in n.children] for b, n in rep.items()}
    # Cyclic blocks (a node reaching its own block again) need a variable
    # name; prefer the first query variable whose value lives in the block.
    cyclic = cycle_members(succ, succ.__getitem__)

    bound = {
        v for v in query_vars if not roots[v].is_leaf_var or roots[v].var != v
    }
    name_of: dict[int, Var] = {}
    for v in query_vars:
        b = block[id(roots[v])]
        if not roots[v].is_leaf_var and b not in name_of:
            name_of[b] = v

    pending: list[int] = []
    rendered: dict[int, Term] = {}

    def render(b: int) -> Term:
        """Block b as it appears inside a binding: a free variable, the
        name of a cyclic block, or the structure of an acyclic one.  A
        cycle nobody named yet is named when it is first reached, and its
        own binding is emitted afterwards."""
        work = [b]
        while work:
            top = work[-1]
            if top in rendered:
                work.pop()
                continue
            node = rep[top]
            if node.is_leaf_var:
                assert node.var is not None
                rendered[top] = fresh.new() if node.var in bound else node.var
            elif top in cyclic:
                got = name_of.get(top)
                if got is None:
                    got = fresh.new()
                    name_of[top] = got
                    pending.append(top)
                rendered[top] = got
            else:
                todo = [c for c in succ[top] if c not in rendered]
                if todo:
                    work.extend(reversed(todo))
                    continue
                assert node.symbol is not None
                rendered[top] = Struct(node.symbol, tuple(rendered[c] for c in succ[top]))
            work.pop()
        return rendered[b]

    def expand(b: int) -> Term:
        node = rep[b]
        assert node.symbol is not None
        return Struct(node.symbol, tuple(render(c) for c in succ[b]))

    bindings: dict[Var, Term] = {}
    done_blocks: set[int] = set()
    for v in query_vars:
        node = roots[v]
        if node.is_leaf_var:
            if v in bound:
                bindings[v] = render(block[id(node)])
            continue
        b = block[id(node)]
        if name_of.get(b) not in (None, v) and b in cyclic:
            bindings[v] = name_of[b]
            continue
        bindings[v] = expand(b)
        done_blocks.add(b)
    while pending:
        b = pending.pop(0)
        if b in done_blocks:
            continue
        bindings[name_of[b]] = expand(b)
        done_blocks.add(b)
    # The cycle variables of the answer are the names of the cyclic blocks
    # it expands: each expansion leads round its cycle to the name of the
    # next cyclic block on it, and aliases and free leaves lead nowhere.
    return Substitution._with_cycle_vars(
        bindings, {name_of[b] for b in cyclic if b in done_blocks}
    )
