"""Co-S-resolution: goal reduction with ancestor tracking and loop
detection, in two modes.

Every goal entry carries the set of ancestor atoms its derivation depends
on (grown by rewriting, instantiated in lockstep by substitution steps).
When a selected atom unifies with one of its ancestors *without* the occurs
check, the entry can be closed by a loop:

* colp mode closes on any such rational unifier and applies it to the rest
  of the goal (the classic co-SLD rule, kept for comparison).
* restricted mode additionally requires that a fresh variant of the
  ancestor is an instance of the atom, and that the loop unifier is
  circular (it must actually tie an infinite value, otherwise the loop
  produced nothing); the unifier goes into the answer but is not applied
  to the remaining entries.

Rule priority per selected atom is fixed: loop detection first (scanning
ancestors most recent first), then rewriting, then the substitution-plus-
rewrite production step.  Loop detection must come first, otherwise a
non-terminating derivation would never reach it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from . import rational
from .derivation import Limits, Status, Step, StepKind
from .productivity import ProductivityStatus, check_productive
from .program import Clause, Program, check_universal, clause_instance
from .terms import (
    FreshVars,
    Struct,
    Substitution,
    Term,
    Var,
    apply_raw,
    is_instance,
    restrict,
    variables_in_order,
)
from .unify import (
    UnifyKind,
    _extract as _rational_extract,
    _rational_solve,
    mgm,
    mgu,
    rational_unify,
)


@dataclass(frozen=True)
class Entry:
    atom: Term
    ancestors: tuple[Term, ...] = ()  # oldest first


AnnotatedGoal = tuple[Entry, ...]


def annotate(atoms: Sequence[Term]) -> AnnotatedGoal:
    return tuple(Entry(a) for a in atoms)


def _apply_entry(s: Substitution, e: Entry) -> Entry:
    return Entry(
        apply_raw(s, e.atom), tuple(apply_raw(s, b) for b in e.ancestors)
    )


def apply_to_annotated(s: Substitution, g: AnnotatedGoal) -> AnnotatedGoal:
    return tuple(_apply_entry(s, e) for e in g)


class LoopFailReason(Enum):
    NO_RATIONAL_UNIFIER = "no_rational_unifier"
    NOT_AN_INSTANCE = "not_an_instance"
    TRIVIAL_UNIFIER = "trivial_unifier"


@dataclass(frozen=True)
class LoopFailure:
    reason: LoopFailReason
    atom: Term
    ancestor: Term


@dataclass(frozen=True)
class LoopUse:
    step_index: int
    atom: Term
    ancestor: Term
    unifier: Substitution


def co_rewrite(
    p: Program, g: AnnotatedGoal, atom_index: int, clause_index: int, fresh: FreshVars
) -> Optional[tuple[AnnotatedGoal, Step]]:
    clause = clause_instance(p.clauses[clause_index], fresh)
    entry = g[atom_index]
    out = mgm(clause.head, entry.atom)
    if not out.ok:
        return None
    sigma = out.substitution
    assert sigma is not None
    grown = entry.ancestors + (entry.atom,)
    new_entries = tuple(
        Entry(apply_raw(sigma, b), grown) for b in clause.body
    )
    g2 = g[:atom_index] + new_entries + g[atom_index + 1 :]
    return g2, Step(StepKind.REWRITE, atom_index, clause_index, clause, sigma)


def co_subst(
    p: Program, g: AnnotatedGoal, atom_index: int, clause_index: int, fresh: FreshVars
) -> Optional[tuple[AnnotatedGoal, Step]]:
    clause = clause_instance(p.clauses[clause_index], fresh)
    out = mgu(clause.head, g[atom_index].atom)
    if out.kind is not UnifyKind.PROPER_UNIFIER:
        return None
    theta = out.substitution
    assert theta is not None
    return apply_to_annotated(theta, g), Step(
        StepKind.SUBST, atom_index, clause_index, clause, theta
    )


def co_s_compound(
    p: Program, g: AnnotatedGoal, atom_index: int, clause_index: int, fresh: FreshVars
) -> Optional[tuple[AnnotatedGoal, list[Step]]]:
    """The production half of a co-S-step: proper unifier applied to all
    atoms and ancestors, then the same clause's body replaces the atom with
    the grown ancestor set."""
    clause = clause_instance(p.clauses[clause_index], fresh)
    entry = g[atom_index]
    out = mgu(clause.head, entry.atom)
    if out.kind is not UnifyKind.PROPER_UNIFIER:
        return None
    theta = out.substitution
    assert theta is not None
    g2 = apply_to_annotated(theta, g)
    st1 = Step(StepKind.SUBST, atom_index, clause_index, clause, theta)
    grown = g2[atom_index].ancestors + (g2[atom_index].atom,)
    body_entries = tuple(
        Entry(apply_raw(theta, b), grown) for b in clause.body
    )
    g3 = g2[:atom_index] + body_entries + g2[atom_index + 1 :]
    matcher = restrict(theta, variables_in_order([clause.head, *clause.body]))
    st2 = Step(StepKind.REWRITE, atom_index, clause_index, clause, matcher)
    return g3, [st1, st2]


def colp_loop(
    g: AnnotatedGoal, atom_index: int, ancestor: Term
) -> Optional[tuple[AnnotatedGoal, Substitution]]:
    entry = g[atom_index]
    if ancestor not in entry.ancestors:
        raise ValueError("ancestor is not on the entry's ancestor list")
    out = rational_unify(entry.atom, ancestor)
    if not out.ok:
        return None
    theta = out.substitution
    assert theta is not None
    rest = g[:atom_index] + g[atom_index + 1 :]
    return apply_to_annotated(theta, rest), theta


def restricted_loop(
    g: AnnotatedGoal,
    atom_index: int,
    ancestor: Term,
) -> tuple[AnnotatedGoal, Substitution] | LoopFailure:
    entry = g[atom_index]
    if ancestor not in entry.ancestors:
        raise ValueError("ancestor is not on the entry's ancestor list")
    # The instance condition is stated against a fresh-variable variant of
    # the ancestor, but matching is invariant under renaming either side (it
    # binds pattern variables without an occurs check), so the ancestor can
    # be used directly.  Matching is the cheap test, so it runs before the
    # rational solve and keeps failing candidates cheap.
    if not is_instance(entry.atom, ancestor):
        return LoopFailure(LoopFailReason.NOT_AN_INSTANCE, entry.atom, ancestor)
    # Once the ancestor is an instance, the equations reduce to one binding
    # per variable of the atom, which always has a rational solution; the
    # clash branch is a defensive check only.
    solved = _rational_solve(entry.atom, ancestor)
    if isinstance(solved, str):
        return LoopFailure(LoopFailReason.NO_RATIONAL_UNIFIER, entry.atom, ancestor)
    theta = _rational_extract(solved, [entry.atom, ancestor])
    if not theta.circular:
        # The loop closed without tying any infinite value; accepting it
        # would bless derivations that compute nothing at infinity.
        return LoopFailure(LoopFailReason.TRIVIAL_UNIFIER, entry.atom, ancestor)
    rest = g[:atom_index] + g[atom_index + 1 :]
    return rest, theta


@dataclass(frozen=True)
class CoTrace:
    initial: AnnotatedGoal
    steps: tuple[Step, ...]
    status: Status
    mode: str
    diverged: bool = False


@dataclass
class CoAnswer:
    query_vars: tuple[Var, ...]
    substitutions: tuple[Substitution, ...]  # proper unifiers and loop unifiers, in order
    loop_uses: tuple[LoopUse, ...]
    solved: Substitution  # solved form over the query variables

    @property
    def circular(self) -> bool:
        return self.solved.circular


@dataclass
class CoResult:
    answers: list[tuple[CoTrace, CoAnswer]]
    status: Status
    warnings: list[str] = field(default_factory=list)
    # Failed restricted_loop calls; candidates co_refute's filters drop
    # before the call are charged but not listed.
    loop_failures: list[LoopFailure] = field(default_factory=list)
    steps_used: int = 0
    diverged: bool = False


def co_replay(g: AnnotatedGoal, steps: Sequence[Step], mode: str) -> list[AnnotatedGoal]:
    """Intermediate annotated goals of a recorded co-derivation."""
    goals = [g]
    for st in steps:
        cur = goals[-1]
        i = st.atom_index
        if st.kind is StepKind.LOOP:
            rest = cur[:i] + cur[i + 1 :]
            if mode == "colp":
                rest = apply_to_annotated(st.subst, rest)
            goals.append(rest)
        elif st.kind is StepKind.SUBST:
            goals.append(apply_to_annotated(st.subst, cur))
        else:
            assert st.clause is not None
            entry = cur[i]
            grown = entry.ancestors + (entry.atom,)
            body = tuple(
                Entry(apply_raw(st.subst, b), grown) for b in st.clause.body
            )
            goals.append(cur[:i] + body + cur[i + 1 :])
    return goals


def preflight_warnings(p: Program, bound: int = 64) -> list[str]:
    """Static-check findings relevant to restricted-mode soundness."""
    warnings: list[str] = []
    report = check_universal(p)
    if not report.universal:
        clauses = ", ".join(str(i) for i, _, _ in report.violations)
        warnings.append(
            f"program is not universal (existential body variables in clause {clauses}); "
            "loop-detected answers may not correspond to any computation at infinity"
        )
    verdict = check_productive(p, bound=bound)
    if verdict.status is ProductivityStatus.NON_PRODUCTIVE:
        warnings.append(
            "program has a rewriting loop (not observationally productive); "
            "loop-detected answers may not correspond to any computation at infinity"
        )
    return warnings


def co_refute(
    p: Program,
    query: Sequence[Term],
    mode: str = "restricted",
    limits: Limits = Limits(),
    fresh: Optional[FreshVars] = None,
    preflight: bool = True,
) -> CoResult:
    """Depth-first co-S-refutation search, loop > rewrite > production per
    selected atom; returns answers in solved form over the query variables."""
    if mode not in ("colp", "restricted"):
        raise ValueError(f"unknown mode {mode!r}")
    fresh = fresh or FreshVars(10**6)
    query_vars = tuple(variables_in_order(query))
    initial = annotate(query)

    restricted = mode == "restricted"
    warnings = preflight_warnings(p) if (preflight and restricted) else []

    result = CoResult([], Status.FAILED, warnings)
    limit_hit = False

    def charge(n: int) -> bool:
        nonlocal limit_hit
        result.steps_used += n
        if result.steps_used > limits.max_steps:
            limit_hit = True
            return False
        return True

    def done() -> bool:
        return len(result.answers) >= limits.max_answers or limit_hit

    def record(steps: list[Step]) -> None:
        seq = tuple(
            st.subst for st in steps if st.kind in (StepKind.SUBST, StepKind.LOOP)
        )
        uses = tuple(
            LoopUse(i, st.atom, st.ancestor, st.subst)
            for i, st in enumerate(steps)
            if st.kind is StepKind.LOOP
        )
        solved = rational.solved_answer(query_vars, list(seq), fresh)
        trace = CoTrace(initial, tuple(steps), Status.REFUTED, mode)
        result.answers.append(
            (trace, CoAnswer(query_vars, seq, uses, solved))
        )

    def search(g: AnnotatedGoal, steps: list[Step], moves: int, rw_chain: int) -> None:
        if done():
            return
        if not g:
            record(steps)
            return
        if moves >= limits.max_depth:
            nonlocal limit_hit
            limit_hit = True
            return
        i = moves % len(g) if limits.fair else 0
        entry = g[i]
        atom = entry.atom
        # Cheap filters drop candidates that cannot close a loop before any
        # unification: a different predicate symbol always clashes; a ground
        # atom's only instance is itself, whose unifier is not circular, so
        # it never closes a restricted loop; two distinct ground atoms have
        # no rational unifier.  (A variable atom has no symbol to compare;
        # ancestors never are variables, each was rewritten against a head.)
        symbol = atom.symbol if isinstance(atom, Struct) else None
        ground = atom._ground
        for ancestor in reversed(entry.ancestors):
            if done():
                return
            # Attempts are charged, not just applications: a divergent
            # derivation grows its ancestor lists without bound, and the
            # quadratically many candidate checks are real work the budget
            # must see.  Candidates the filters drop are charged the same, so
            # steps_used and every limit verdict do not depend on them.
            if not charge(1):
                return
            if restricted and ground:
                continue
            other = ancestor.symbol
            if symbol is not None and other is not symbol and other != symbol:
                continue
            if restricted:
                res = restricted_loop(g, i, ancestor)
                if isinstance(res, LoopFailure):
                    result.loop_failures.append(res)
                    continue
                g2, theta = res
            else:
                if ground and ancestor._ground and atom != ancestor:
                    continue
                got = colp_loop(g, i, ancestor)
                if got is None:
                    continue
                g2, theta = got
            st = Step(StepKind.LOOP, i, None, None, theta, ancestor, atom)
            search(g2, steps + [st], moves + 1, 0)
            if done():
                return
        for ci in range(len(p.clauses)):
            if done():
                return
            got = co_rewrite(p, g, i, ci, fresh)
            if got is None:
                continue
            if rw_chain + 1 > limits.max_rewrite_chain:
                result.diverged = True
                continue
            if not charge(1):
                return
            g2, st = got
            search(g2, steps + [st], moves + 1, rw_chain + 1)
            if done():
                return
        for ci in range(len(p.clauses)):
            if done():
                return
            got2 = co_s_compound(p, g, i, ci, fresh)
            if got2 is None:
                continue
            if not charge(2):
                return
            g3, pair = got2
            search(g3, steps + pair, moves + 1, 0)
            if done():
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

    if result.answers:
        result.status = Status.REFUTED
    elif limit_hit or result.diverged:
        result.status = Status.LIMIT_EXCEEDED
    else:
        result.status = Status.FAILED
    return result
