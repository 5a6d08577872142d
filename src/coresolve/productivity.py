"""Bounded semi-decision of observational productivity.

A program is observationally productive when every rewriting-only
derivation is finite.  This module searches all rewriting derivations from
a set of root atoms up to a depth bound; finding an atom that is a variant
of one of its own rewriting ancestors proves an infinite rewriting chain
exists (variant loops always pump, since rewriting never instantiates the
rest of the goal).  Not finding one proves nothing: the verdict
``NoLoopFound`` is explicitly inconclusive evidence up to the bound, and
the root set (one most-general atom per predicate plus every clause head)
is a pragmatic under-approximation of all goals.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .program import Clause, Program, clause_instance
from .terms import FreshVars, Struct, Term, Var, apply_raw, is_variant
from .unify import mgm


class ProductivityStatus(Enum):
    NON_PRODUCTIVE = "non_productive"
    NO_LOOP_FOUND = "no_loop_found"


@dataclass(frozen=True)
class WitnessStep:
    clause_index: int
    clause: Clause
    body_index: int
    atom: Term


@dataclass(frozen=True)
class RewritingWitness:
    root: Term
    steps: tuple[WitnessStep, ...]
    loop_start: int  # index into the atom chain where the repeated variant sits

    def atoms(self) -> list[Term]:
        return [self.root] + [s.atom for s in self.steps]


@dataclass(frozen=True)
class ProductivityVerdict:
    status: ProductivityStatus
    bound: int
    witness: Optional[RewritingWitness] = None
    roots: tuple[Term, ...] = ()

    @property
    def productive_so_far(self) -> bool:
        return self.status is ProductivityStatus.NO_LOOP_FOUND


class GuardOutcome(Enum):
    CONTINUE = "continue"
    LOOP_WITNESS = "loop_witness"


def guard_rewrite_chain(chain: Sequence[Term], nxt: Term) -> GuardOutcome:
    """Online check for a rewriting chain: is the next rewritten atom a
    variant of something already on the chain?  (No engine calls it yet;
    the engines bound chains by length.)"""
    if any(is_variant(prev, nxt) for prev in chain):
        return GuardOutcome.LOOP_WITNESS
    return GuardOutcome.CONTINUE


def default_roots(p: Program, fresh: FreshVars) -> list[Term]:
    roots: list[Term] = []
    for sym in p.predicates():
        roots.append(Struct(sym, tuple(fresh.new() for _ in range(sym.arity))))
    for c in p.clauses:
        roots.append(clause_instance(c, fresh).head)
    return roots


def check_productive(
    p: Program,
    roots: Optional[Sequence[Term]] = None,
    bound: int = 64,
    fresh: Optional[FreshVars] = None,
) -> ProductivityVerdict:
    """Explore all rewriting derivations from the roots up to the bound;
    depth-first in clause order, so the first witness is deterministic."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    fresh = fresh or FreshVars(10**7)
    root_list = list(roots) if roots is not None else default_roots(p, fresh)

    def explore(atom: Term, chain: list[Term], steps: list[WitnessStep]) -> Optional[RewritingWitness]:
        for ci in range(len(p.clauses)):
            clause = clause_instance(p.clauses[ci], fresh)
            out = mgm(clause.head, atom)
            if not out.ok:
                continue
            sigma = out.substitution
            assert sigma is not None
            for bi, b in enumerate(clause.body):
                child = apply_raw(sigma, b)
                step = WitnessStep(ci, clause, bi, child)
                for k, prev in enumerate(chain + [atom]):
                    if is_variant(prev, child):
                        return RewritingWitness(
                            chain[0] if chain else atom,
                            tuple(steps + [step]),
                            k,
                        )
                if len(chain) + 1 < bound:
                    got = explore(child, chain + [atom], steps + [step])
                    if got is not None:
                        return got
        return None

    for root in root_list:
        witness = explore(root, [], [])
        if witness is not None:
            # Normalize: the witness root is the original root atom.
            witness = RewritingWitness(root, witness.steps, witness.loop_start)
            return ProductivityVerdict(
                ProductivityStatus.NON_PRODUCTIVE,
                bound,
                witness,
                tuple(root_list),
            )
    return ProductivityVerdict(
        ProductivityStatus.NO_LOOP_FOUND, bound, None, tuple(root_list)
    )
