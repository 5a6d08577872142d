"""Reduction relations on goals and the bounded SLD / S refutation search.

Three single-step reductions are distinguished:

* SLD step: the selected atom is replaced by a clause body and the unifier
  is applied to the entire new goal.
* rewriting step: the clause head must match (instantiate to) the atom; the
  matcher is applied to the clause body only, the rest of the goal is
  untouched.  This is the observation step: it never instantiates the query.
* substitution step: the unifier must be proper (not a matcher); it is
  applied to every atom and the goal length is unchanged.  This is the
  production step: it is what grows the answer.

An S-step is exhaustive rewriting, then one substitution step, then one
rewriting step with the same clause at the now-instantiated atom.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Sequence

from .program import Clause, Program, clause_instance
from .terms import (
    FreshVars,
    Struct,
    Substitution,
    Term,
    Var,
    apply_raw,
    compose,
    is_variant,
    restrict,
    variables_in_order,
    variables_of,
)
from .unify import UnifyKind, mgm, mgu

Goal = tuple[Term, ...]


class StepKind(Enum):
    SLD = "sld"
    REWRITE = "rewrite"
    SUBST = "subst"
    LOOP = "loop"


class Status(Enum):
    REFUTED = "refuted"
    FAILED = "failed"
    LIMIT_EXCEEDED = "limit_exceeded"
    SUSPENDED = "suspended"


@dataclass(frozen=True)
class Step:
    kind: StepKind
    atom_index: int
    clause_index: Optional[int]
    clause: Optional[Clause]
    subst: Substitution
    ancestor: Optional[Term] = None
    atom: Optional[Term] = None  # LOOP steps: the selected atom that closed


@dataclass(frozen=True)
class Trace:
    initial: Goal
    steps: tuple[Step, ...]
    status: Status
    diverged: bool = False


@dataclass(frozen=True)
class Limits:
    max_steps: int = 10000
    max_depth: int = 2000
    max_answers: int = 1
    max_rewrite_chain: int = 64
    fair: bool = False


class RewriteDiverged(Exception):
    """The rewrite-chain bound was hit: evidence of a rewriting loop, which
    a productive program cannot exhibit."""

    def __init__(self, chain: list[Term]):
        super().__init__(f"rewriting chain exceeded bound at {chain[-1]}")
        self.chain = chain


def apply_to_goal(s: Substitution, g: Goal) -> Goal:
    return tuple(apply_raw(s, a) for a in g)


def sld_step(
    p: Program, g: Goal, atom_index: int, clause_index: int, fresh: FreshVars
) -> Optional[tuple[Goal, Step]]:
    clause = clause_instance(p.clauses[clause_index], fresh)
    out = mgu(clause.head, g[atom_index])
    if not out.ok:
        return None
    sigma = out.substitution
    assert sigma is not None
    new_goal = apply_to_goal(
        sigma, g[:atom_index] + clause.body + g[atom_index + 1 :]
    )
    return new_goal, Step(StepKind.SLD, atom_index, clause_index, clause, sigma)


def rewrite_step(
    p: Program, g: Goal, atom_index: int, clause_index: int, fresh: FreshVars
) -> Optional[tuple[Goal, Step]]:
    clause = clause_instance(p.clauses[clause_index], fresh)
    out = mgm(clause.head, g[atom_index])
    if not out.ok:
        return None
    sigma = out.substitution
    assert sigma is not None
    body = tuple(apply_raw(sigma, b) for b in clause.body)
    new_goal = g[:atom_index] + body + g[atom_index + 1 :]
    return new_goal, Step(StepKind.REWRITE, atom_index, clause_index, clause, sigma)


def subst_step(
    p: Program, g: Goal, atom_index: int, clause_index: int, fresh: FreshVars
) -> Optional[tuple[Goal, Step]]:
    clause = clause_instance(p.clauses[clause_index], fresh)
    out = mgu(clause.head, g[atom_index])
    if out.kind is not UnifyKind.PROPER_UNIFIER:
        return None
    sigma = out.substitution
    assert sigma is not None
    return apply_to_goal(sigma, g), Step(
        StepKind.SUBST, atom_index, clause_index, clause, sigma
    )


def s_compound(
    p: Program, g: Goal, atom_index: int, clause_index: int, fresh: FreshVars
) -> Optional[tuple[Goal, list[Step]]]:
    """Substitution step followed by a rewrite of the instantiated atom with
    the same clause instance: the production half of an S-step."""
    clause = clause_instance(p.clauses[clause_index], fresh)
    out = mgu(clause.head, g[atom_index])
    if out.kind is not UnifyKind.PROPER_UNIFIER:
        return None
    theta = out.substitution
    assert theta is not None
    g2 = apply_to_goal(theta, g)
    st1 = Step(StepKind.SUBST, atom_index, clause_index, clause, theta)
    matcher = restrict(theta, variables_in_order([clause.head, *clause.body]))
    body = tuple(apply_raw(theta, b) for b in clause.body)
    g3 = g2[:atom_index] + body + g2[atom_index + 1 :]
    st2 = Step(StepKind.REWRITE, atom_index, clause_index, clause, matcher)
    return g3, [st1, st2]


def replay(g: Goal, steps: Sequence[Step]) -> list[Goal]:
    """All intermediate goals of a derivation, starting with the initial
    goal; used by tests to confirm traces are honest."""
    goals = [g]
    for st in steps:
        cur = goals[-1]
        i = st.atom_index
        if st.kind is StepKind.SUBST:
            goals.append(apply_to_goal(st.subst, cur))
        elif st.kind is StepKind.REWRITE:
            assert st.clause is not None
            body = tuple(apply_raw(st.subst, b) for b in st.clause.body)
            goals.append(cur[:i] + body + cur[i + 1 :])
        elif st.kind is StepKind.SLD:
            assert st.clause is not None
            goals.append(
                apply_to_goal(st.subst, cur[:i] + st.clause.body + cur[i + 1 :])
            )
        else:
            goals.append(cur[:i] + cur[i + 1 :])
    return goals


def s_step(
    p: Program, g: Goal, limits: Limits, fresh: FreshVars
) -> Optional[tuple[Goal, list[Step]]]:
    """One deterministic S-step at the first available position: exhaust
    rewriting (first clause, leftmost rewritable atom), then the first
    substitution step followed by a rewrite with the same clause.

    Raises RewriteDiverged when the rewriting phase exceeds the chain
    bound; returns None when the goal is stuck.
    """
    steps: list[Step] = []
    chain = 0
    while True:
        if not g:
            return g, steps
        progressed = False
        for i in range(len(g)):
            for ci in range(len(p.clauses)):
                got = rewrite_step(p, g, i, ci, fresh)
                if got is not None:
                    g, st = got
                    steps.append(st)
                    chain += 1
                    if chain > limits.max_rewrite_chain:
                        raise RewriteDiverged([s for s in g])
                    progressed = True
                    break
            if progressed:
                break
        if not progressed:
            break
    for i in range(len(g)):
        for ci in range(len(p.clauses)):
            got = s_compound(p, g, i, ci, fresh)
            if got is not None:
                g3, pair = got
                return g3, steps + pair
    return None


@dataclass
class RefuteResult:
    traces: list[Trace]
    status: Status
    steps_used: int = 0
    diverged: bool = False


class _SearchState:
    def __init__(self, limits: Limits):
        self.limits = limits
        self.steps_used = 0
        self.limit_hit = False
        self.diverged = False
        self.answers: list[tuple[Step, ...]] = []

    def charge(self, n: int) -> bool:
        self.steps_used += n
        if self.steps_used > self.limits.max_steps:
            self.limit_hit = True
            return False
        return True

    @property
    def done(self) -> bool:
        return len(self.answers) >= self.limits.max_answers or (
            self.limit_hit and not self.answers
        )


def _select(g: Goal, moves: int, fair: bool) -> int:
    return moves % len(g) if fair else 0


def refute(
    p: Program,
    query: Sequence[Term],
    mode: str = "sld",
    limits: Limits = Limits(),
    fresh: Optional[FreshVars] = None,
) -> RefuteResult:
    """Depth-first, clause-order refutation search.

    mode "sld" applies SLD steps; mode "s" applies, per selected atom,
    every rewriting step and every substitution-plus-rewrite compound (one
    S-move each).  Rewriting chains longer than the bound are pruned and
    reported as divergence.
    """
    if mode not in ("sld", "s"):
        raise ValueError(f"unknown mode {mode!r}")
    fresh = fresh or FreshVars(10**6)
    state = _SearchState(limits)
    initial: Goal = tuple(query)

    def search(g: Goal, steps: list[Step], moves: int, rw_chain: int) -> None:
        if state.done:
            return
        if not g:
            state.answers.append(tuple(steps))
            return
        if moves >= limits.max_depth:
            state.limit_hit = True
            return
        i = _select(g, moves, limits.fair)
        if mode == "sld":
            for ci in range(len(p.clauses)):
                got = sld_step(p, g, i, ci, fresh)
                if got is None:
                    continue
                if not state.charge(1):
                    return
                g2, st = got
                search(g2, steps + [st], moves + 1, 0)
                if state.done:
                    return
            return
        # S mode: plain rewrites first (clause order), then compound
        # substitution+rewrite moves.
        for ci in range(len(p.clauses)):
            got = rewrite_step(p, g, i, ci, fresh)
            if got is None:
                continue
            if rw_chain + 1 > limits.max_rewrite_chain:
                state.diverged = True
                continue
            if not state.charge(1):
                return
            g2, st = got
            search(g2, steps + [st], moves + 1, rw_chain + 1)
            if state.done:
                return
        for ci in range(len(p.clauses)):
            got = s_compound(p, g, i, ci, fresh)
            if got is None:
                continue
            if not state.charge(2):
                return
            g3, pair = got
            search(g3, steps + pair, moves + 1, 0)
            if state.done:
                return

    # The DFS recurses once per move and term operations recurse over term
    # depth; both can legitimately exceed CPython's default stack budget.
    floor = 4 * limits.max_depth + 10_000
    previous = sys.getrecursionlimit()
    if previous < floor:
        sys.setrecursionlimit(floor)
    try:
        search(initial, [], 0, 0)
    finally:
        if previous < floor:
            sys.setrecursionlimit(previous)

    if state.answers:
        status = Status.REFUTED
    elif state.limit_hit or state.diverged:
        status = Status.LIMIT_EXCEEDED
    else:
        status = Status.FAILED
    traces = [Trace(initial, ans, Status.REFUTED) for ans in state.answers]
    if not traces:
        traces = [Trace(initial, (), status, diverged=state.diverged)]
    return RefuteResult(traces, status, state.steps_used, state.diverged)


def answer_substitution(steps: Sequence[Step], query_vars: Sequence[Var]) -> Substitution:
    """Composed step substitutions restricted to the query variables."""
    acc = Substitution()
    for st in steps:
        acc = compose(st.subst, acc)
    return restrict(acc, query_vars)


def partial_answer(steps: Sequence[Step], k: int, query: Term) -> Term:
    """The query under the composition of the first k step substitutions."""
    if k > len(steps):
        raise ValueError("k exceeds the number of recorded steps")
    t = query
    for st in steps[:k]:
        t = apply_raw(st.subst, t)
    return t
