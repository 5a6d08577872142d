"""Bounded model oracles.

``lfp_enumerate`` closes the program's facts forward under clause
application over ground terms up to a depth cap: a desk-scale stand-in for
the least Herbrand model.  ``gfp_local_check`` is the dual, local test:
given a (possibly circular) value, can some clause be applied backward at
every node of its value graph (``rational.build_node``) down to a
recursion budget?  A free variable of the value stands for any ground
term.  Passing it is depth-bounded evidence of membership in the greatest
model, which is the soundness target of loop-detected answers.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, NamedTuple, Optional, Sequence

from .program import Program
from .rational import build_node
from .terms import (
    Struct,
    Substitution,
    Symbol,
    Term,
    Var,
    apply_raw,
    iter_subterms,
    term_to_text,
    variables_in_order,
    variables_of,
)
from .unify import mgm


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
    by_depth: list[list[Struct]] = [
        [Struct(s) for s in functions if s.arity == 0]
    ]
    upto: list[Struct] = list(by_depth[0])
    for d in range(1, depth_cap + 1):
        layer: list[Struct] = []
        prev_upto = list(upto)
        for s in functions:
            if s.arity == 0:
                continue
            for args in product(prev_upto, repeat=s.arity):
                if 1 + max(term_depth(a) for a in args) == d:
                    layer.append(Struct(s, args))
        by_depth.append(layer)
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
    clause, atoms: set[Struct], universe: Sequence[Struct]
) -> Iterable[Struct]:
    def go(i: int, binding: Substitution):
        if i == len(clause.body):
            head = apply_raw(binding, clause.head)
            free = variables_of(head)
            if not free:
                yield head
                return
            order = variables_in_order([head])
            for choice in product(universe, repeat=len(order)):
                env = Substitution(dict(zip(order, choice)))
                yield apply_raw(env, head)
            return
        goal = apply_raw(binding, clause.body[i])
        for fact in atoms:
            out = mgm(goal, fact)
            if out.ok:
                assert out.substitution is not None
                merged = dict(binding.items())
                merged.update(out.substitution.items())
                yield from go(i + 1, Substitution(merged))

    yield from go(0, Substitution())


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
