"""Bounded semi-decision of observational productivity.

A program is observationally productive when every rewriting-only
derivation is finite.  This module searches all rewriting derivations from
a set of root atoms up to a depth bound; finding an atom that is a variant
of one of its own rewriting ancestors proves an infinite rewriting chain
exists (variant loops always pump, since rewriting never instantiates the
rest of the goal; Komendantskaya, Johann and Schmidt, LOPSTR 2016).  Not
finding one proves nothing: the verdict ``NoLoopFound`` is explicitly
inconclusive evidence up to the bound, and the root set (one most-general
atom per predicate plus every clause head of a predicate with a rule) is
a pragmatic under-approximation of all goals.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, NamedTuple, Optional, Sequence

from .derivation import rewrite_atom
from .program import Clause, Program, Renaming
from .terms import FreshVars, Struct, Term, Var


class ProductivityStatus(Enum):
    NON_PRODUCTIVE = "non_productive"
    NO_LOOP_FOUND = "no_loop_found"


class WitnessStep(NamedTuple):
    clause_index: int
    clause: Clause
    body_index: int
    atom: Term


class RewritingWitness(NamedTuple):
    root: Term
    steps: tuple[WitnessStep, ...]
    loop_start: int  # index into the atom chain where the repeated variant sits

    def atoms(self) -> list[Term]:
        return [self.root] + [s.atom for s in self.steps]


class ProductivityVerdict(NamedTuple):
    status: ProductivityStatus
    bound: int
    witness: Optional[RewritingWitness] = None
    roots: tuple[Term, ...] = ()


# One rewriting step of the search: the clause index, its renaming, the
# body index and the body atom it leads to.
Rewrite = tuple[int, Renaming, int, Term]


def _variant_key(terms: Sequence[Term]) -> tuple[tuple, list[Var]]:
    """A key that two sequences of terms share exactly when one renaming
    makes them equal, and their variables in the order of their slots:
    the terms in preorder, left to right, with each variable replaced by
    its slot, the rank of its first occurrence, and each ground subterm
    and each symbol kept by value.  Each symbol carries its arity, so the
    sequence reads back as the terms."""
    slots: dict[Var, int] = {}
    key: list = []
    stack = list(reversed(terms))
    while stack:
        u = stack.pop()
        if u._ground:
            key.append(u)
        elif u.__class__ is Var:
            key.append(slots.setdefault(u, len(slots)))
        else:
            key.append(u.symbol)
            stack.extend(reversed(u.args))
    return tuple(key), list(slots)


def default_roots(p: Program, fresh: FreshVars) -> list[Term]:
    roots: list[Term] = []
    for sym in p.predicates():
        roots.append(Struct(sym, tuple(fresh.new() for _ in range(sym.arity))))
    # The heads need no renaming: the search only matches renamed clauses
    # against them, so they share no variable with what they meet.  The
    # head of a predicate with no rule rewrites to nothing, so it is left
    # out, and its fact is not built.
    roots.extend(p.clause(ci).head for ci in p.rule_clauses())
    return roots


def check_productive(
    p: Program,
    roots: Optional[Sequence[Term]] = None,
    bound: int = 64,
    fresh: Optional[FreshVars] = None,
) -> ProductivityVerdict:
    """Explore all rewriting derivations from the roots up to the bound;
    depth-first in clause order, so the first witness is deterministic.
    The search runs on an explicit stack, and finds a repeated variant on
    the current chain by one lookup of the new atom's variant key."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    fresh = fresh or FreshVars(10**7)
    root_list = list(roots) if roots is not None else default_roots(p, fresh)

    def rewrites(atom: Term) -> Iterator[Rewrite]:
        for ci in p.candidates(atom, matching=True):
            got = rewrite_atom(p, atom, 0, ci, fresh, None)
            if got is not None:
                for bi, child in enumerate(got[0]):
                    yield ci, got[1].renaming, bi, child

    for root in root_list:
        # The current chain: each atom's variant key and its index on the
        # chain (a repeat ends the search, so the keys are distinct), the
        # rewrites still to try at each atom, and the step to each atom
        # after the root.
        keys = [_variant_key((root,))[0]]
        index = {keys[0]: 0}
        frames = [rewrites(root)]
        taken: list[Rewrite] = []
        while frames:
            step = next(frames[-1], None)
            if step is None:
                frames.pop()
                del index[keys.pop()]
                if taken:
                    taken.pop()
                continue
            key = _variant_key((step[3],))[0]
            loop_start = index.get(key)
            if loop_start is not None:
                steps = tuple(
                    WitnessStep(ci, renaming.instance(), bi, child)
                    for ci, renaming, bi, child in taken + [step]
                )
                return ProductivityVerdict(
                    ProductivityStatus.NON_PRODUCTIVE,
                    bound,
                    RewritingWitness(root, steps, loop_start),
                    tuple(root_list),
                )
            if len(keys) < bound:
                index[key] = len(keys)
                keys.append(key)
                frames.append(rewrites(step[3]))
                taken.append(step)
    return ProductivityVerdict(
        ProductivityStatus.NO_LOOP_FOUND, bound, None, tuple(root_list)
    )
