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
from typing import Iterable, Optional, Sequence

from .terms import (
    FreshVars,
    Struct,
    Substitution,
    Symbol,
    Term,
    Var,
    cycle_members,
)


@dataclass(eq=False)
class Node:
    """One value node: a structure with node children, or a free leaf var."""

    symbol: Optional[Symbol]
    var: Optional[Var] = None
    children: list["Node"] = field(default_factory=list)

    @property
    def is_leaf_var(self) -> bool:
        return self.symbol is None


def _resolve(term: Term, level: int, substs: Sequence[Substitution]) -> tuple[Term, int]:
    """Chase variable bindings starting at ``level``; returns the first
    non-variable term (with the level it lives at) or an unbound variable."""
    seen: set[tuple[Var, int]] = set()
    while isinstance(term, Var) and level < len(substs):
        img = substs[level].get(term)
        if img is None:
            level += 1
            continue
        if (term, level) in seen:
            # A pure variable cycle (X = Y, Y = X) has no structure; treat
            # the first variable of the cycle as the free representative.
            return term, level
        seen.add((term, level))
        term = img
    return term, level


def build_node(term: Term, substs: Sequence[Substitution]) -> Node:
    """Graph node for the value of ``term`` under the substitution list."""
    memo: dict[tuple[Term, int], Node] = {}

    def go(t: Term, level: int) -> Node:
        t, level = _resolve(t, level, substs)
        key = (t, level)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(t, Var):
            node = Node(None, t)
            memo[key] = node
            return node
        node = Node(t.symbol)
        memo[key] = node
        node.children = [go(a, level) for a in t.args]
        return node

    return go(term, 0)


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


def minimize(roots: Iterable[Node]) -> dict[int, int]:
    """Partition the reachable nodes by bisimilarity; returns id(node) →
    block number.  Two nodes in one block denote the same rational tree."""
    nodes = reachable(roots)
    # Initial split: by symbol, or by the identity of the free variable.
    block: dict[int, int] = {}
    keys: dict[object, int] = {}
    for n in nodes:
        k: object = ("v", n.var) if n.is_leaf_var else ("s", n.symbol)
        if k not in keys:
            keys[k] = len(keys)
        block[id(n)] = keys[k]
    while True:
        sig: dict[int, tuple] = {
            id(n): (block[id(n)], tuple(block[id(c)] for c in n.children))
            for n in nodes
        }
        remap: dict[tuple, int] = {}
        new_block: dict[int, int] = {}
        for n in nodes:
            s = sig[id(n)]
            if s not in remap:
                remap[s] = len(remap)
            new_block[id(n)] = remap[s]
        if new_block == block:
            return block
        block = new_block


def solved_answer(
    query_vars: Sequence[Var],
    substs: Sequence[Substitution],
    fresh: Optional[FreshVars] = None,
) -> Substitution:
    """Collapse an ordered substitution sequence into one solved-form answer
    for the query variables.  Circular values come out as fixpoint bindings
    reusing the query variables' own names where possible; cycles not owned
    by any query variable get fresh auxiliary variables."""
    fresh = fresh or FreshVars(10**9)
    roots = {v: build_node(v, substs) for v in query_vars}
    block = minimize(roots.values())

    # Cyclic blocks (a node reaching its own block again) need a variable
    # name; prefer the first query variable whose value lives in the block.
    succ: dict[int, set[int]] = {}
    for n in reachable(roots.values()):
        succ.setdefault(block[id(n)], set()).update(
            block[id(c)] for c in n.children
        )
    cyclic = cycle_members(succ, succ.__getitem__)

    name_of: dict[int, Var] = {}
    for v in query_vars:
        b = block[id(roots[v])]
        if not roots[v].is_leaf_var and b not in name_of:
            name_of[b] = v

    rep: dict[int, Node] = {}
    for n in reachable(roots.values()):
        rep.setdefault(block[id(n)], n)

    pending: list[int] = []

    def var_for(b: int) -> Var:
        got = name_of.get(b)
        if got is None:
            got = fresh.new()
            name_of[b] = got
            pending.append(b)
        return got

    def render(b: int, path: frozenset) -> Term:
        node = rep[b]
        if node.is_leaf_var:
            assert node.var is not None
            return node.var
        if b in path or (b in cyclic and b in name_of):
            return var_for(b)
        if b in cyclic:
            # A cycle nobody named yet: name it here and emit its own
            # binding afterwards.
            v = var_for(b)
            return v
        inner = path | {b}
        assert node.symbol is not None
        return Struct(
            node.symbol, tuple(render(block[id(c)], inner) for c in node.children)
        )

    def expand(b: int) -> Term:
        node = rep[b]
        assert node.symbol is not None
        return Struct(
            node.symbol,
            tuple(render(block[id(c)], frozenset({b})) for c in node.children),
        )

    bindings: dict[Var, Term] = {}
    done_blocks: set[int] = set()
    for v in query_vars:
        node = roots[v]
        if node.is_leaf_var:
            assert node.var is not None
            if node.var != v:
                bindings[v] = node.var
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
    return Substitution(bindings)
