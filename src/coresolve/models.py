"""Bounded model oracles.

``lfp_enumerate`` closes the program's facts forward under clause
application over ground terms up to a depth cap: a desk-scale stand-in for
the least Herbrand model.  ``gfp_local_check`` is the dual, local test:
given a (possibly circular) ground value, can some clause be applied
backward at every node down to a recursion budget?  Passing it is
depth-bounded evidence of membership in the greatest model, which is the
soundness target of loop-detected answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional, Sequence, Union

from .program import Program, clause_instance
from .rational import Node, build_node
from .terms import (
    FreshVars,
    Struct,
    Substitution,
    Symbol,
    Term,
    Var,
    apply_raw,
    variables_in_order,
    variables_of,
)
from .unify import mgm


@dataclass(frozen=True)
class GroundAtomSet:
    atoms: frozenset[Struct]
    depth_cap: int

    def __contains__(self, atom: Term) -> bool:
        return atom in self.atoms

    def sorted(self) -> list[Struct]:
        from .terms import term_to_text

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

# A check target is either a value-graph node (possibly cyclic) or a finite
# pattern layer whose leaves are nodes: clause bodies instantiated by a
# match produce the latter.
Target = Union[Node, "Mix", None]  # None = unconstrained (matches anything)


@dataclass(frozen=True)
class Mix:
    symbol: Symbol
    children: tuple[Target, ...]


def _target_key(t: Target) -> object:
    if t is None:
        return None
    if isinstance(t, Node):
        return id(t)
    return (t.symbol, tuple(_target_key(c) for c in t.children))


def _match_target(pattern: Term, target: Target, binding: dict[Var, Target]) -> bool:
    if isinstance(pattern, Var):
        prior = binding.get(pattern)
        if prior is None and pattern not in binding:
            binding[pattern] = target
            return True
        return _target_key(prior) == _target_key(target)
    if target is None:
        # Unconstrained position: match structurally, leaving pattern
        # variables unconstrained too.
        return all(_match_target(a, None, binding) for a in pattern.args)
    if isinstance(target, Node):
        if target.is_leaf_var:
            # A free variable in the value stands for some ground term; any
            # clause shape can be chosen for it.
            return all(_match_target(a, None, binding) for a in pattern.args)
        if target.symbol != pattern.symbol:
            return False
        return all(
            _match_target(a, c, binding)
            for a, c in zip(pattern.args, target.children)
        )
    if target.symbol != pattern.symbol:
        return False
    return all(
        _match_target(a, c, binding)
        for a, c in zip(pattern.args, target.children)
    )


def _instantiate(t: Term, binding: dict[Var, Target]) -> Target:
    if isinstance(t, Var):
        return binding.get(t)
    return Mix(t.symbol, tuple(_instantiate(a, binding) for a in t.args))


def gfp_local_check(
    p: Program,
    value: tuple[Term, Substitution],
    depth: int,
    fresh: Optional[FreshVars] = None,
) -> bool:
    """Can clauses be applied backward at every node of the (possibly
    circular) value for ``depth`` rounds?  True is depth-bounded evidence
    of greatest-model membership."""
    fresh = fresh or FreshVars(10**7)
    term, subst = value
    (root,) = build_node([term], [subst])
    memo: dict[tuple[object, int], bool] = {}

    def derivable(target: Target, budget: int) -> bool:
        if budget <= 0 or target is None:
            return True
        if isinstance(target, Node) and target.is_leaf_var:
            return True
        key = (_target_key(target), budget)
        got = memo.get(key)
        if got is not None:
            return got
        memo[key] = True  # coinductive default while exploring this target
        ok = False
        for ci in range(len(p.clauses)):
            clause = clause_instance(p.clauses[ci], fresh)
            binding: dict[Var, Target] = {}
            if not _match_target(clause.head, target, binding):
                continue
            if all(
                derivable(_instantiate(b, binding), budget - 1)
                for b in clause.body
            ):
                ok = True
                break
        memo[key] = ok
        return ok

    return derivable(root, depth)
