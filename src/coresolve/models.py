"""Bounded model oracles.

``lfp_enumerate`` closes the program's facts forward under clause
application over ground terms up to a depth cap: a desk-scale stand-in for
the least Herbrand model.  A clause applies by matching its body atoms
into the ground atoms found so far (``terms._match_into``), so no unifier
is needed.  ``gfp_local_check`` is the dual, local test:
given a (possibly circular) value, can some clause be applied backward at
every node of its value graph (``rational.build_node``) down to a
recursion budget?  A free variable of the value stands for any ground
term.  Passing it is depth-bounded evidence of membership in the greatest
model, which is the soundness target of loop-detected answers.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, NamedTuple, Optional, Sequence

from .program import Clause, Program
from .rational import build_node
from .terms import (
    Struct,
    Substitution,
    Symbol,
    Term,
    Var,
    _match_into,
    iter_subterms,
    map_vars,
    term_to_text,
    variables_in_order,
)


class GroundAtomSet(NamedTuple):
    atoms: frozenset[Struct]
    depth_cap: int

    def __contains__(self, atom: Term) -> bool:
        return atom in self.atoms

    def sorted(self) -> list[Struct]:
        return sorted(self.atoms, key=term_to_text)


def term_depth(t: Term) -> int:
    """Maximum position length (edge count from the root), level by level."""
    depth, level = 0, [t]
    while level := [a for s in level if isinstance(s, Struct) for a in s.args]:
        depth += 1
    return depth


def ground_terms(p: Program, depth_cap: int) -> list[Struct]:
    """All ground terms over the program's function symbols (symbols that
    occur below predicate level) with depth ≤ depth_cap."""
    predicates = set(p.predicates())
    functions = [
        s for s in p.signature.values() if s not in predicates
    ]
    upto: list[Struct] = [Struct(s) for s in functions if s.arity == 0]
    for d in range(1, depth_cap + 1):
        layer: list[Struct] = []
        for s in functions:
            if s.arity == 0:
                continue
            for args in product(upto, repeat=s.arity):
                if 1 + max(term_depth(a) for a in args) == d:
                    layer.append(Struct(s, args))
        upto.extend(layer)
    return upto


def lfp_enumerate(p: Program, depth_cap: int) -> GroundAtomSet:
    """Forward closure of the clauses over ground atoms of depth ≤ cap."""
    universe = ground_terms(p, max(depth_cap - 1, 0))
    atoms: set[Struct] = set()
    while True:
        fresh_heads: set[Struct] = set()
        for clause in p.clauses:
            for head in _clause_consequences(clause, atoms, universe):
                if term_depth(head) <= depth_cap and head not in atoms:
                    fresh_heads.add(head)
        if not fresh_heads:
            return GroundAtomSet(frozenset(atoms), depth_cap)
        atoms |= fresh_heads


def _clause_consequences(
    clause: Clause, atoms: set[Struct], universe: Sequence[Struct]
) -> Iterable[Struct]:
    """The heads ``clause`` derives from ``atoms``: its body atoms, left to
    right, each matched against every atom into a copy of each binding
    found so far, then each head variable no body atom binds taken over
    ``universe``."""
    found: list[dict[Var, Term]] = [{}]
    for goal in clause.body:
        found = [b for binding in found for fact in atoms
                 if _match_into(goal, fact, b := dict(binding))]
    for binding in found:
        head = map_vars(binding.get, clause.head)
        free = variables_in_order((head,))
        for choice in product(universe, repeat=len(free)):
            yield map_vars(dict(zip(free, choice)).get, head)


# --- backward closure on rational values ------------------------------------


def gfp_local_check(p: Program, value: tuple[Term, Substitution], depth: int) -> bool:
    """Can clauses be applied backward at every node of the (possibly
    circular) value for ``depth`` rounds?  True is depth-bounded evidence
    of greatest-model membership.  The body atoms a clause match
    instantiates become new graph nodes, one per label and children; a
    repeated head variable matches positions that are one node."""
    (root,), labels, kids = build_node([value[0]], [value[1]])
    # One free leaf for every position nothing constrains: a head variable
    # matched below a free leaf, or a body variable the head does not bind.
    anything = len(labels)
    labels.append(Var(0, "_"))
    kids.append(())
    made: dict[tuple[Symbol, tuple[int, ...]], int] = {}
    memo: dict[tuple[int, int], bool] = {}

    def match(head: Term, target: int) -> Optional[dict[Var, int]]:
        binding: dict[Var, int] = {}
        stack = [(head, target)]
        while stack:
            pattern, n = stack.pop()
            if pattern.__class__ is Var:
                if binding.setdefault(pattern, n) != n:
                    return None
            elif labels[n].__class__ is Var:
                # A free variable in the value stands for some ground term;
                # any clause shape can be chosen for it.
                stack.extend((a, anything) for a in pattern.args)
            elif labels[n] != pattern.symbol:
                return None
            else:
                stack.extend(zip(pattern.args, kids[n]))
        return binding

    def instantiate(t: Term, binding: dict[Var, int]) -> int:
        # Reversed preorder meets every subterm after its arguments.
        done: list[int] = []
        for sub in reversed(list(iter_subterms(t))):
            if sub.__class__ is Var:
                done.append(binding.get(sub, anything))
                continue
            cut = len(done) - len(sub.args)
            key = (sub.symbol, tuple(reversed(done[cut:])))
            del done[cut:]
            n = made.get(key)
            if n is None:
                n = made[key] = len(labels)
                labels.append(sub.symbol)
                kids.append(key[1])
            done.append(n)
        return done[0]

    def derivable(n: int, budget: int) -> bool:
        if budget <= 0 or labels[n].__class__ is Var:
            return True
        key = (n, budget)
        if key not in memo:
            memo[key] = any(
                (binding := match(c.head, n)) is not None
                and all(derivable(instantiate(b, binding), budget - 1) for b in c.body)
                for c in p.clauses
            )
        return memo[key]

    return derivable(root, depth)
