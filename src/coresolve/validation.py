"""Executable desk-scale checks of the calculus's metatheory.

``check_theorem_5_1``: a loop-detected (restricted-mode) answer must be the
limit of an honest derivation.  We rebuild the derivation from the
answer's steps with the loop steps skipped (their atoms stay open) and then
drive the open goal forward with deterministic fair S-moves, ``derivation``'s
S rules on the atom at the front of a queue; at every depth d the truncation
of the accumulated partial answer must equal the depth-d unfolding of the
loop answer, up to variable renaming.

The check refuses programs that fail the universality or productivity
preconditions, since the property is only promised under them.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from . import decirc
from .coengine import co_refute
from .derivation import Answer, Bindings, Goal, Limits, Status, Step, StepKind
from .derivation import produce_atom, rewrite_atom
from .productivity import ProductivityStatus, check_productive
from .program import Program, check_universal
from .terms import (
    FreshVars,
    Struct,
    Symbol,
    Term,
    is_instance,
    is_variant,
    truncate,
)
from .unify import mgm


class ValidationRefused(ValueError):
    """A precondition (universality, productivity, or a usable restricted
    refutation) does not hold, so the check would be meaningless."""


def _query_term(query: Sequence[Term]) -> Term:
    """Wrap multi-atom queries in a synthetic root so one term carries all
    the query's variables."""
    atoms = list(query)
    if len(atoms) == 1:
        return atoms[0]
    return Struct(Symbol("?and", len(atoms)), tuple(atoms))


def _require_preconditions(p: Program) -> None:
    report = check_universal(p)
    if not report.universal:
        offenders = "; ".join(
            f"clause {i} at {span}: " + ",".join(v.display for v in vs)
            for i, span, vs in report.violations
        )
        raise ValidationRefused(f"program is not universal ({offenders})")
    verdict = check_productive(p)
    if verdict.status is ProductivityStatus.NON_PRODUCTIVE:
        assert verdict.witness is not None
        raise ValidationRefused(
            f"program has a rewriting loop from {verdict.witness.root}"
        )


def _store_of(steps: Sequence[Step]) -> Bindings:
    """A store holding the bindings of the substitution steps of a
    derivation; a term walked through it reads as every step applied."""
    store = Bindings()
    for st in steps:
        if st.kind is StepKind.SUBST:
            store.push(st.subst.bindings)
    return store


def build_loop_unrolling(
    p: Program,
    query: Sequence[Term],
    answer: Answer,
    rounds: int,
    fresh: Optional[FreshVars] = None,
) -> tuple[Goal, list[Step]]:
    """An S-derivation continuing past the loop points of a co-refutation.

    The answer's steps are kept with the loop steps dropped, so the looped
    atoms stay in the goal; that goal is then driven by deterministic fair
    S-moves (first applicable clause, round-robin atom selection) until
    ``rounds`` substitution steps have been produced.  Returns the initial
    plain goal and the full step list.

    Only restricted loops are unrolled: every loop step must close an atom
    its ancestor is an instance of, with a circular unifier (the conditions
    ``coengine.restricted_loop`` checks).  A colp loop that fails them is
    refused, since its derivation is not one the theorem speaks about.
    """
    for st in answer.steps:
        if st.kind is StepKind.LOOP:
            assert st.atom is not None and st.ancestor is not None
            if not (st.subst.circular and mgm(st.atom, st.ancestor)):
                raise ValidationRefused(
                    "loop unrolling is only justified for restricted loops"
                )
    fresh = fresh or FreshVars(10**6)
    initial: Goal = tuple(query)
    steps = [st for st in answer.steps if st.kind is not StepKind.LOOP]
    # The looped atoms are the goal the refutation leaves.  Each substitution
    # step holds for them just as it held for the live goal, so the answer's
    # substitution steps go to one store, and an atom is read through it
    # when it is served, as in the search.
    store = _store_of(steps)
    goal: Goal = tuple(st.atom for st in answer.steps if st.kind is StepKind.LOOP)

    # Drive the goal as a queue: always serve the first atom, and rotate the
    # atoms a step introduces to the back.  This is fair — a coinductive
    # goal keeps growing, and serving positions by index would starve the
    # older atoms behind the freshly produced tail.  The driver's
    # substitution steps push their bindings to the same store.
    substs_done = 0
    stuck = 0
    guard = 0
    while goal and substs_done < rounds and stuck <= len(goal):
        guard += 1
        if guard > 200 * (rounds + 1) * (len(initial) + 1):
            raise ValidationRefused("unrolling did not progress")
        atom = store.walk(goal[0])
        # The first applicable clause: a rewrite if one matches, else a
        # production step (a substitution step and the rewrite it enables).
        moves = (rule(p, atom, 0, ci, fresh, store)
                 for rule, matching in ((rewrite_atom, True), (produce_atom, False))
                 for ci in p.candidates(atom, matching=matching))
        got = next((move for move in moves if move is not None), None)
        if got is None:
            # The head atom cannot advance; rotate it to the back and let
            # the others run.  A full fruitless cycle ends the unrolling.
            goal = goal[1:] + (atom,)
            stuck += 1
            continue
        body, made = got
        if isinstance(made, Step):
            steps.append(made)
        else:
            steps.extend(made)
            substs_done += 1
        goal = goal[1:] + body
        stuck = 0
    return initial, steps


class CorrespondenceReport(NamedTuple):
    query: Term
    answer: Optional[Answer]  # None when the refutation closed no loop
    steps: list[Step]
    table: list[tuple[int, Term, Term, bool]]  # depth, derivation, answer, variants

    def marks(self) -> list[str]:
        """Per row: "ok" when the sides are variants, "short" when the
        derivation side is strictly more general (the rebuilt derivation
        has not reached that depth), otherwise "MISMATCH"."""
        return [
            "ok" if ok else "short" if is_instance(lhs, rhs) else "MISMATCH"
            for _, lhs, rhs, ok in self.table
        ]

    @property
    def agrees(self) -> bool:
        return "MISMATCH" not in self.marks()


def _first_restricted_answer(
    p: Program, query: Sequence[Term], limits: Limits, fresh: FreshVars
) -> Optional[Answer]:
    """The first restricted-mode answer, or None if it closed no loop."""
    result = co_refute(p, query, "restricted", limits, fresh)
    if result.status is not Status.REFUTED:
        raise ValidationRefused("no restricted-mode refutation to validate")
    answer = result.answers[0]
    return answer if any(st.kind is StepKind.LOOP for st in answer.steps) else None


def check_theorem_5_1(
    p: Program,
    query: Sequence[Term],
    d_max: int = 8,
    rounds: int = 16,
    limits: Limits = Limits(),
    fresh: Optional[FreshVars] = None,
) -> CorrespondenceReport:
    """Compare the loop answer's unfoldings against the partial answers of
    the rebuilt derivation, depth by depth."""
    _require_preconditions(p)
    fresh = fresh or FreshVars(10**6)
    qt = _query_term(query)
    answer = _first_restricted_answer(p, query, limits, fresh)
    if answer is None:
        return CorrespondenceReport(qt, None, [], [])
    _, steps = build_loop_unrolling(p, query, answer, rounds, fresh)
    partial = _store_of(steps).walk(qt)
    table = []
    for d in range(1, d_max + 1):
        lhs = truncate(d, partial)
        rhs = decirc.unfold(answer.solved, qt, d)
        table.append((d, lhs, rhs, is_variant(lhs, rhs)))
    return CorrespondenceReport(qt, answer, steps, table)
