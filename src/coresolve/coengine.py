"""Co-S-resolution: goal reduction with ancestor tracking and loop
detection, in two modes.

Every goal entry carries the set of ancestor atoms its derivation depends
on (grown by rewriting; a substitution step's unifier holds for them as it
does for the atoms).  When a selected atom unifies with one of its
ancestors *without* the occurs check, the entry can be closed by a loop:

* colp mode closes on any such rational unifier and applies it to the rest
  of the goal (the classic co-SLD rule, kept for comparison).
* restricted mode additionally requires that a fresh variant of the
  ancestor is an instance of the atom, and that the loop unifier is
  circular (it must actually tie an infinite value, otherwise the loop
  produced nothing); the unifier goes into the answer but is not applied
  to the remaining entries.

Rule priority per selected atom is fixed: loop detection first (scanning
ancestors most recent first; every ancestor is charged a step, but only
those that can close a loop are tried), then the S rules of ``derivation``
with ancestors grown by the selected atom: rewriting, then the production
step, which a ground atom skips.  Loop detection must come first,
otherwise a non-terminating derivation would never reach it.
``co_refute`` gives these rules, in that order, to ``derivation.search``,
the search loop all four modes share, and returns its ``Result``: each
answer's loop uses are its LOOP steps.

As in ``derivation``, a substitution step's application is deferred, not
its meaning: the step pushes its unifier to the search's store, the
selected atom is walked through the store when it is read, and an ancestor
when the loop check tries it.  An entry's ancestors stay as they were
built.  A colp loop's unifier is circular, which the store cannot hold:
the rest of the goal, ancestors included, is walked and the unifier
applied to it at once.

A search rationally unifies a loop pair whose ancestor is an instance of
the atom once per shape, up to renaming (``_loop_unifier``).
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import Generator, Iterator, NamedTuple, Optional, Sequence

from .derivation import Bindings, Limits, Move, Result, Step, StepKind
from .derivation import _SearchState, clause_moves, produce_atom, rewrite_atom, search
from .productivity import ProductivityStatus, _variant_key, check_productive
from .program import Program, check_universal
from .terms import (
    FreshVars,
    Struct,
    Substitution,
    Term,
    Var,
    apply_raw,
    is_instance,
    map_vars,
)
from .unify import UnifyKind, UnifyOutcome, mgm, rational_unify


class Entry(NamedTuple):
    atom: Term
    ancestors: tuple[Term, ...] = ()  # oldest first, as built


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


class LoopFailure(NamedTuple):
    reason: LoopFailReason
    atom: Term
    ancestor: Term


def _co_splice(g: AnnotatedGoal, i: int, atom: Term, got: Optional[tuple]) -> Optional[tuple]:
    """``derivation._splice`` for an annotated goal: each body atom has
    ``g[i]``'s ancestors grown by ``atom``."""
    if got is None:
        return None
    grown = g[i].ancestors + (atom,)
    return g[:i] + tuple(Entry(b, grown) for b in got[0]) + g[i + 1 :], got[1]


def co_rewrite(
    p: Program, g: AnnotatedGoal, atom_index: int, clause_index: int, fresh: FreshVars,
    store: Bindings,
) -> Optional[tuple[AnnotatedGoal, Step]]:
    atom = g[atom_index].atom
    return _co_splice(g, atom_index, atom,
                      rewrite_atom(p, atom, atom_index, clause_index, fresh, store))


def co_s_compound(
    p: Program, g: AnnotatedGoal, atom_index: int, clause_index: int, fresh: FreshVars,
    store: Bindings,
) -> Optional[tuple[AnnotatedGoal, list[Step]]]:
    """The production half of a co-S-step: ``derivation.produce_atom``,
    whose unifier holds for all atoms and ancestors, with the grown ancestor
    set.  A variable atom joins its ancestors as its value, so every
    ancestor has a symbol."""
    atom = g[atom_index].atom
    got = produce_atom(p, atom, atom_index, clause_index, fresh, store)
    if got is not None and atom.__class__ is not Struct:
        atom = store.walk(atom)
    return _co_splice(g, atom_index, atom, got)


# A search's loop unifiers: a pair's variant key and the age order of its
# slot variables -> its ``rational_unify`` outcome and its slot variables.
LoopMemo = dict[tuple, tuple[UnifyOutcome, list[Var]]]


def _loop_unifier(memo: LoopMemo, atom: Term, ancestor: Term) -> UnifyOutcome:
    """``rational_unify(atom, ancestor)`` through ``memo``.  A unifier
    depends on its pair only through the structure, the values of ground
    subterms and the age order of the variables (a class is named after
    its oldest variable), so a pair met again up to a renaming that keeps
    that order gets the stored outcome with its own variables put in."""
    key, slots = _variant_key((atom, ancestor))
    key = (key, tuple(sorted(range(len(slots)), key=lambda k: slots[k].id)))
    hit = memo.get(key)
    if hit is None:
        out = rational_unify(atom, ancestor)
        memo[key] = out, slots
        return out
    out, old = hit
    theta = out.substitution
    if theta is None:
        return out
    rename = dict(zip(old, slots)).get
    return out._replace(substitution=Substitution._with_cycle_vars(
        {rename(v): map_vars(rename, t) for v, t in theta.items()}, map(rename, theta.cycle_vars())
    ))


def colp_loop(
    g: AnnotatedGoal, atom_index: int, ancestor: Term, store: Bindings, memo: LoopMemo
) -> Optional[tuple[AnnotatedGoal, Substitution]]:
    """The rest of the goal, walked through ``store`` and with the loop
    unifier applied once, if the atom has a rational unifier with the
    ancestor.  A pair whose ancestor is an instance of the atom, the kind
    a regular derivation repeats, is unified through ``memo``."""
    atom = g[atom_index].atom
    out = (_loop_unifier(memo, atom, ancestor) if is_instance(atom, ancestor)
           else rational_unify(atom, ancestor))
    if not out.ok:
        return None
    theta = out.substitution
    assert theta is not None

    def image(t: Term) -> Term:
        return apply_raw(theta, store.walk(t))

    rest = tuple(
        Entry(image(e.atom), tuple(map(image, e.ancestors)))
        for e in g[:atom_index] + g[atom_index + 1 :]
    )
    return rest, theta


def restricted_loop(
    g: AnnotatedGoal,
    atom_index: int,
    ancestor: Term,
    memo: LoopMemo,
) -> tuple[AnnotatedGoal, Substitution] | LoopFailure:
    entry = g[atom_index]
    # The instance condition is stated against a fresh-variable variant of
    # the ancestor, but matching is invariant under renaming either side (it
    # binds pattern variables without an occurs check), so the ancestor can
    # be used directly.  Matching is the cheap test, so it runs before the
    # rational solve and keeps failing candidates cheap.
    if not mgm(entry.atom, ancestor):
        return LoopFailure(LoopFailReason.NOT_AN_INSTANCE, entry.atom, ancestor)
    # Once the ancestor is an instance, the equations reduce to one binding
    # per variable of the atom, which always has a rational solution; the
    # clash branch is a defensive check only.
    out = _loop_unifier(memo, entry.atom, ancestor)
    if not out.ok:
        return LoopFailure(LoopFailReason.NO_RATIONAL_UNIFIER, entry.atom, ancestor)
    if out.kind is not UnifyKind.RATIONAL_UNIFIER:
        # The loop closed without tying any infinite value; accepting it
        # would bless derivations that compute nothing at infinity.
        return LoopFailure(LoopFailReason.TRIVIAL_UNIFIER, entry.atom, ancestor)
    rest = g[:atom_index] + g[atom_index + 1 :]
    return rest, out.substitution


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
            body = tuple(apply_raw(st.subst, b) for b in st.clause.body)
            goals.append(_co_splice(cur, i, cur[i].atom, (body, st))[0])
    return goals


def preflight_warnings(p: Program) -> list[str]:
    """Static-check findings relevant to restricted-mode soundness."""
    warnings: list[str] = []
    report = check_universal(p)
    if not report.universal:
        clauses = ", ".join(str(i) for i, _, _ in report.violations)
        warnings.append(
            f"program is not universal (existential body variables in clause {clauses}); "
            "loop-detected answers may not correspond to any computation at infinity"
        )
    verdict = check_productive(p)
    if verdict.status is ProductivityStatus.NON_PRODUCTIVE:
        warnings.append(
            "program has a rewriting loop (not observationally productive); "
            "loop-detected answers may not correspond to any computation at infinity"
        )
    return warnings


def _read_entry(store: Bindings, g: AnnotatedGoal, i: int) -> AnnotatedGoal:
    """The ``read`` of ``derivation.search`` for an annotated goal: the
    selected entry's atom is walked through the store, its ancestors not."""
    entry = g[i]
    atom = store.walk(entry.atom)
    if atom is not entry.atom:
        return g[:i] + (Entry(atom, entry.ancestors),) + g[i + 1 :]
    return g


def _loop_moves(
    state: _SearchState, g: AnnotatedGoal, i: int, restricted: bool, memo: LoopMemo
) -> Generator[Move, None, bool]:
    """The loops that close at ``g[i]``, trying the most recent ancestor
    first; failed restricted loops go to ``state.loop_failures``.  Every
    ancestor is charged one step, but only candidates that can close a
    loop are tried, each walked through the store when it is and unified
    through the search's ``memo``.  Returns False if the budget ran out."""
    entry = g[i]
    atom = entry.atom
    ancestors = entry.ancestors
    walk = state.store.walk
    # Cheap filters pick the candidates before any unification: a
    # different predicate symbol always clashes; a ground atom's only
    # instance is itself, whose unifier is not circular, so it never
    # closes a restricted loop; two distinct ground atoms have no rational
    # unifier.  A walk keeps an ancestor's symbol, so only the last filter
    # reads a walked ancestor.  (A variable atom has no symbol to compare;
    # an ancestor is never a variable, see ``co_s_compound``.)
    if restricted and atom._ground:
        picked: list[int] = []
    elif atom.__class__ is not Struct:
        picked = list(range(len(ancestors)))
    else:
        symbol, h = atom.symbol, atom._hash
        picked = [k for k, a in enumerate(ancestors) if a.symbol is symbol or a.symbol == symbol]
        if atom._ground:
            picked = [k for k in picked
                      if not (b := walk(ancestors[k]))._ground or (b._hash == h and b == atom)]
    # Attempts are charged, not just applications: a divergent derivation
    # grows its ancestor lists without bound, and the quadratically many
    # candidate checks are real work the budget must see.  Each dropped
    # candidate is charged as if tried, in one addition per run of them,
    # so steps_used and every limit verdict do not depend on the filters.
    unpaid = len(ancestors)
    for k in reversed(picked):
        if not state.charge_each(unpaid - k):
            return False
        unpaid = k
        ancestor = walk(ancestors[k])
        if restricted:
            res = restricted_loop(g, i, ancestor, memo)
            if isinstance(res, LoopFailure):
                state.loop_failures.append(res)
                continue
            g2, theta = res
        else:
            got = colp_loop(g, i, ancestor, state.store, memo)
            if got is None:
                continue
            g2, theta = got
        yield g2, Step(StepKind.LOOP, i, None, None, theta, ancestor, atom), False
    return state.charge_each(unpaid)


def co_refute(
    p: Program,
    query: Sequence[Term],
    mode: str = "restricted",
    limits: Limits = Limits(),
    fresh: Optional[FreshVars] = None,
) -> Result:
    """Depth-first co-S-refutation search, loop > rewrite > production per
    selected atom; returns answers in solved form over the query variables.
    Unlike ``refute``, the search stops at any limit, even after answers."""
    if mode not in ("colp", "restricted"):
        raise ValueError(f"unknown mode {mode!r}")
    fresh = fresh or FreshVars(10**6)
    restricted = mode == "restricted"
    clauses = clause_moves(
        p, ((co_rewrite, 1, True), (co_s_compound, 2, False)), fresh,
        atom_of=attrgetter("atom"),
    )
    memo: LoopMemo = {}

    def expand(state: _SearchState, g: AnnotatedGoal, i: int, chain: int) -> Iterator[Move]:
        # The clause moves run only if the loop attempts left some budget.
        if (yield from _loop_moves(state, g, i, restricted, memo)):
            yield from clauses(state, g, i, chain)

    return search(query, annotate(query), expand, limits, fresh, stop_at_any_limit=True,
                  read=_read_entry)
