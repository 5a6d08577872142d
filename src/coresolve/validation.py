"""Executable desk-scale checks of the calculus's metatheory.

``check_theorem_5_1``: a loop-detected (restricted-mode) answer must be the
limit of an honest derivation.  We rebuild the derivation by replaying the
co-trace with the loop steps skipped (their atoms stay open) and then
driving the open goal forward with deterministic fair S-moves; at every
depth d the truncation of the accumulated partial answer must equal the
depth-d unfolding of the loop answer, up to variable renaming.

``check_lemma_4_1``: along such a derivation the partial answers converge
monotonically to the answer's unfolding in the ultrametric distance.

Both checks refuse programs that fail the universality or productivity
preconditions, since the properties are only promised under them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import decirc
from .coengine import CoAnswer, CoTrace, co_refute
from .derivation import (
    Goal,
    Limits,
    Status,
    Step,
    StepKind,
    apply_to_goal,
    rewrite_step,
    s_compound,
)
from .productivity import ProductivityStatus, check_productive
from .program import Program, check_universal
from .terms import (
    Distance,
    FreshVars,
    Struct,
    Symbol,
    Term,
    apply_raw,
    distance,
    is_variant,
    truncate,
)


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


def build_loop_unrolling(
    p: Program,
    trace: CoTrace,
    rounds: int,
    fresh: Optional[FreshVars] = None,
) -> tuple[Goal, list[Step]]:
    """An S-derivation continuing past the loop points of a co-trace.

    The co-trace prefix is replayed with loop steps dropped (the looped
    atoms stay in the goal); the resulting goal is then driven by
    deterministic fair S-moves (first applicable clause, round-robin atom
    selection) until ``rounds`` substitution steps have been produced.
    Returns the initial plain goal and the full step list.
    """
    if trace.mode != "restricted":
        raise ValidationRefused(
            "loop unrolling is only justified for restricted-mode traces"
        )
    fresh = fresh or FreshVars(10**6)
    initial: Goal = tuple(e.atom for e in trace.initial)
    # Replay with the co-trace's own goal shape (loop steps removed their
    # atom, so the recorded indices assume removal); the looped atoms are
    # set aside and re-opened afterwards, with every later substitution
    # applied to them just as the engine applied it to the live goal.
    goal = initial
    kept: list[Term] = []
    steps: list[Step] = []
    for st in trace.steps:
        i = st.atom_index
        if st.kind is StepKind.LOOP:
            kept.append(goal[i])
            goal = goal[:i] + goal[i + 1 :]
            continue
        if st.kind is StepKind.SUBST:
            goal = apply_to_goal(st.subst, goal)
            kept = [apply_raw(st.subst, a) for a in kept]
        else:
            assert st.clause is not None
            body = tuple(apply_raw(st.subst, b) for b in st.clause.body)
            goal = goal[:i] + body + goal[i + 1 :]
        steps.append(st)
    goal = goal + tuple(kept)

    # Drive the goal as a queue: always serve the first atom, and rotate the
    # atoms a step introduces to the back.  This is fair — a coinductive
    # goal keeps growing, and serving positions by index would starve the
    # older atoms behind the freshly produced tail.
    substs_done = 0
    stuck = 0
    guard = 0
    while goal and substs_done < rounds and stuck <= len(goal):
        guard += 1
        if guard > 200 * (rounds + 1) * (len(initial) + 1):
            raise ValidationRefused("unrolling did not progress")
        got_r = None
        for ci in p.candidates(goal[0], matching=True):
            got_r = rewrite_step(p, goal, 0, ci, fresh)
            if got_r is not None:
                break
        if got_r is not None:
            goal2, st = got_r
            steps.append(st)
            body_len = len(goal2) - len(goal) + 1
            goal = goal2[body_len:] + goal2[:body_len]
            stuck = 0
            continue
        got_c = None
        for ci in p.candidates(goal[0]):
            got_c = s_compound(p, goal, 0, ci, fresh)
            if got_c is not None:
                break
        if got_c is not None:
            goal2, pair = got_c
            steps.extend(pair)
            substs_done += 1
            body_len = len(goal2) - len(goal) + 1
            goal = goal2[body_len:] + goal2[:body_len]
            stuck = 0
            continue
        # The head atom cannot advance; rotate it to the back and let the
        # others run.  A full fruitless cycle ends the unrolling.
        goal = goal[1:] + goal[:1]
        stuck += 1
    return initial, steps


@dataclass
class CorrespondenceReport:
    query: Term
    answer: Optional[CoAnswer]
    steps: list[Step] = field(default_factory=list)
    table: list[tuple[int, Term, Term, bool]] = field(default_factory=list)

    @property
    def agrees(self) -> bool:
        return all(ok for _, _, _, ok in self.table)


def _first_restricted_answer(
    p: Program, query: Sequence[Term], limits: Limits, fresh: FreshVars
) -> tuple[CoTrace, CoAnswer]:
    result = co_refute(p, query, "restricted", limits, fresh)
    if result.status is not Status.REFUTED:
        raise ValidationRefused("no restricted-mode refutation to validate")
    trace, answer = result.answers[0]
    if not answer.loop_uses:
        raise ValidationRefused("the refutation used no loop detection")
    return trace, answer


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
    try:
        trace, answer = _first_restricted_answer(p, query, limits, fresh)
    except ValidationRefused as exc:
        if "no loop detection" in str(exc):
            return CorrespondenceReport(qt, None)
        raise
    _, steps = build_loop_unrolling(p, trace, rounds, fresh)
    partial = qt
    for st in steps:
        partial = apply_raw(st.subst, partial)
    report = CorrespondenceReport(qt, answer, steps)
    for d in range(1, d_max + 1):
        lhs = truncate(d, partial)
        rhs = decirc.unfold(answer.solved, qt, d)
        report.table.append((d, lhs, rhs, is_variant(lhs, rhs)))
    return report


def check_lemma_4_1(
    p: Program,
    query: Sequence[Term],
    steps_count: int = 20,
    d: int = 8,
    limits: Limits = Limits(),
    fresh: Optional[FreshVars] = None,
) -> tuple[bool, list[tuple[int, Distance]]]:
    """Distances from partial answers to the depth-d answer proxy must
    strictly decrease on a subsequence covering every index and reach 0."""
    _require_preconditions(p)
    fresh = fresh or FreshVars(10**6)
    qt = _query_term(query)
    trace, answer = _first_restricted_answer(p, query, limits, fresh)
    proxy = decirc.unfold(answer.solved, qt, d)
    _, steps = build_loop_unrolling(p, trace, steps_count, fresh)
    table: list[tuple[int, Distance]] = []
    partial = qt
    table.append((0, distance(proxy, truncate(d, partial))))
    for k, st in enumerate(steps, start=1):
        partial = apply_raw(st.subst, partial)
        table.append((k, distance(proxy, truncate(d, partial))))
    ok = True
    for i, (_, di) in enumerate(table):
        if di.zero:
            continue
        if not any(dj < di for _, dj in table[i + 1 :]):
            ok = False
            break
    if table and not table[-1][1].zero:
        ok = False
    return ok, table
