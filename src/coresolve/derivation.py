"""Reduction relations on goals and the bounded SLD / S refutation search.

Three single-step reductions are distinguished:

* SLD step: the selected atom is replaced by a clause body, and the
  unifier holds for the entire new goal.
* rewriting step: the clause head must match (instantiate to) the atom; the
  matcher is applied to the clause body only, the rest of the goal is
  untouched.  This is the observation step: it never instantiates the query.
* substitution step: the unifier must be proper (not a matcher); it holds
  for every atom and the goal length is unchanged.  This is the
  production step: it is what grows the answer.

An S-step is exhaustive rewriting, then one substitution step, then one
rewriting step with the same clause at the now-instantiated atom.  Each S
rule is one function of one atom, ``rewrite_atom`` and ``produce_atom``,
that gives a clause body and steps; ``rewrite_step`` and ``s_compound``
splice the body into a plain goal, the co-S rules into an annotated one.

``search`` is the one depth-first search loop of all four modes: ``refute``
runs it with the SLD or S rules, ``coengine.co_refute`` with the colp or
restricted loop rule ahead of the co-S rules.  It records what it finds in
one ``Result`` for every mode: an ``Answer`` per refutation, holding the
refutation's steps and its answer in solved form.  Each rule is tried only on
the clauses the program's first-argument index (``Program.candidates``)
offers for the selected atom; the ones it leaves out would fail uncharged,
so the index changes no step, charge or answer.  A step unifies or matches
the stored clause head in place (``unify.resolve_head``) and keeps the map
it made; ``Step.subst`` is built from it when first read, ``Step.clause`` too.

The meaning of a step is as above; only its application is deferred.  The
search keeps one ``Bindings`` store: a step whose unifier binds goal
variables pushes its map there instead of rebuilding the rest of the goal,
a selected atom is walked through the store unless the move into its goal
built it, and backtracking unwinds the store's trail.  So every rule sees
the atom the eager application would have built, and every step, its
substitution once read, every charge and every answer is the same.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from . import rational
from .program import Clause, Program, Renaming
from .terms import DeferredSubstitution, FreshVars, Substitution, Term, Var, variables_in_order
from .unify import UnifyKind, _resolve_full, resolve_head

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


class Step(NamedTuple):
    kind: StepKind
    atom_index: int
    clause_index: Optional[int]
    renaming: Optional[Renaming]  # of the clause used; None for LOOP steps
    subst: Substitution
    ancestor: Optional[Term] = None
    atom: Optional[Term] = None  # LOOP steps: the selected atom that closed

    @property
    def clause(self) -> Optional[Clause]:
        return None if self.renaming is None else self.renaming.instance()


class Answer(NamedTuple):
    """One refutation: its steps, and its answer in solved form over the
    query variables (``rational.solved_answer`` of the substitutions of
    every step but the matchers, which bind no goal variable, so the answer
    reads none of theirs).  A loop use is a LOOP step: it carries the atom
    that closed, the ancestor it closed on and the loop unifier."""

    steps: tuple[Step, ...]
    solved: Substitution


class Result(NamedTuple):
    """What one search found, in every mode.  ``loop_failures`` lists the
    failed ``coengine.restricted_loop`` calls (candidates the loop filters
    drop before the call are charged but not listed); it is empty in the
    other modes.  ``limits_hit`` names the bounds that fired, of
    ``max_depth``, ``max_rewrite_chain`` and ``max_steps``, sorted."""

    answers: list[Answer]
    status: Status
    steps_used: int
    loop_failures: list
    limits_hit: tuple[str, ...]


class Limits(NamedTuple):
    """Bounds on one search.

    The same rule holds in every mode.  A goal ``max_depth`` moves deep,
    and a rewrite that would make a rewriting chain longer than
    ``max_rewrite_chain``, are pruned: that branch ends and the search goes
    on with the others.  The search stops at ``max_answers`` answers, or
    when a move would take the charged steps past ``max_steps``.  Each
    bound that fired is named in ``Result.limits_hit``, and a search that
    ends without an answer reports LIMIT_EXCEEDED if any did.  The defaults
    are in ``Limits._field_defaults``.
    """

    max_steps: int = 10000
    max_depth: int = 2000
    max_answers: int = 1
    max_rewrite_chain: int = 64
    fair: bool = False


class Bindings:
    """The bindings the steps on the current branch made to goal variables,
    as one map in the order they were bound: the map is its own trail, and
    its length the trail mark.  A push keeps a unifier's bindings as
    unification left them, triangular within the push, so a term is read
    through the map by a full walk.  Every binding is made on a walked
    atom, whose variables are unbound, so the map never binds a variable
    twice and stays acyclic; a push that would is refused."""

    __slots__ = ("map",)

    def __init__(self) -> None:
        self.map: dict = {}

    def push(self, b: Mapping[Var, Term]) -> None:
        m, n = self.map, len(self.map)
        m.update(b)
        if len(m) != n + len(b):
            raise ValueError(f"a binding of {Substitution(b)} rebinds a bound variable")

    def unwind(self, mark: int) -> None:
        """Undo the bindings made after the map had ``mark`` entries."""
        m = self.map
        for _ in range(len(m) - mark):
            m.popitem()

    def walk(self, t: Term) -> Term:
        return t if t._ground or not self.map else _resolve_full(t, self.map)


def read_atom(store: Bindings, g: Goal, i: int) -> Goal:
    """``g`` with ``g[i]`` walked through ``store``."""
    atom = store.walk(g[i])
    if atom is not g[i]:
        return g[:i] + (atom,) + g[i + 1 :]
    return g


def sld_step(
    p: Program, g: Goal, atom_index: int, clause_index: int, fresh: FreshVars,
    store: Bindings,
) -> Optional[tuple[Goal, Step]]:
    """The body replaces the atom; a proper unifier's bindings go to
    ``store``, since they hold for the rest of the goal too (a matcher
    binds no goal variable)."""
    atom = g[atom_index]
    # A ground atom's unifier is its matcher; matching finds it faster.
    got = resolve_head(p.clause(clause_index), atom, fresh, matching=atom._ground)
    if got is None:
        return None
    kind, sigma, body, renaming, bindings = got
    if kind is UnifyKind.PROPER_UNIFIER:
        store.push(bindings)
    new_goal = g[:atom_index] + body + g[atom_index + 1 :]
    return new_goal, Step(StepKind.SLD, atom_index, clause_index, renaming, sigma)


def rewrite_atom(
    p: Program, atom: Term, atom_index: int, clause_index: int, fresh: FreshVars,
    store: Optional[Bindings],
) -> Optional[tuple[Goal, Step]]:
    """The rewriting step at the goal's ``atom_index``-th atom ``atom``: the
    clause body under the matcher, and the step."""
    got = resolve_head(p.clause(clause_index), atom, fresh, matching=True)
    if got is None:
        return None
    _, sigma, body, renaming, _ = got
    return body, Step(StepKind.REWRITE, atom_index, clause_index, renaming, sigma)


def produce_atom(
    p: Program, atom: Term, atom_index: int, clause_index: int, fresh: FreshVars,
    store: Bindings,
) -> Optional[tuple[Goal, list[Step]]]:
    """The production step at the goal's ``atom_index``-th atom ``atom``: a
    substitution step, whose proper unifier goes to ``store``, then a
    rewrite of the instantiated atom with the same clause instance; the
    clause body and the two steps.  A ground atom has no variable to bind,
    so it gets no attempt (and draws no ids)."""
    if atom._ground:
        return None
    got = resolve_head(p.clause(clause_index), atom, fresh)
    if got is None or got[0] is not UnifyKind.PROPER_UNIFIER:
        return None
    _, theta, body, renaming, bindings = got
    store.push(bindings)
    own = DeferredSubstitution(renaming.own, (theta,), True)
    return body, [
        Step(StepKind.SUBST, atom_index, clause_index, renaming, theta),
        Step(StepKind.REWRITE, atom_index, clause_index, renaming, own),
    ]


def _splice(g: Goal, i: int, got: Optional[tuple[Goal, Any]]) -> Optional[tuple[Goal, Any]]:
    """``g`` with the body of an atom-level step in place of ``g[i]``."""
    if got is None:
        return None
    return g[:i] + got[0] + g[i + 1 :], got[1]


def rewrite_step(
    p: Program, g: Goal, atom_index: int, clause_index: int, fresh: FreshVars,
    store: Bindings,
) -> Optional[tuple[Goal, Step]]:
    return _splice(g, atom_index, rewrite_atom(p, g[atom_index], atom_index, clause_index,
                                               fresh, store))


def s_compound(
    p: Program, g: Goal, atom_index: int, clause_index: int, fresh: FreshVars,
    store: Bindings,
) -> Optional[tuple[Goal, list[Step]]]:
    """The production half of an S-step, at ``g[atom_index]``."""
    return _splice(g, atom_index, produce_atom(p, g[atom_index], atom_index, clause_index,
                                               fresh, store))


# A move at a selected atom: the next goal, the step or steps to it, and
# whether it extends the rewriting chain.
Move = tuple[Any, Union[Step, list[Step]], bool]


class _SearchState:
    def __init__(self, limits: Limits):
        self.store = Bindings()
        self.limits = limits
        self.steps_used = 0
        self.limits_hit: set[str] = set()
        self.answers: list[Answer] = []
        self.loop_failures: list = []

    def charge(self, n: int) -> bool:
        self.steps_used += n
        if self.steps_used > self.limits.max_steps:
            self.limits_hit.add("max_steps")
            return False
        return True

    def charge_each(self, n: int) -> bool:
        """``n`` calls of ``charge(1)`` that stop at the first that fails,
        in one addition."""
        if n and self.steps_used + n > self.limits.max_steps:
            self.steps_used = max(self.steps_used, self.limits.max_steps) + 1
            self.limits_hit.add("max_steps")
            return False
        self.steps_used += n
        return True

    @property
    def done(self) -> bool:
        return len(self.answers) >= self.limits.max_answers or "max_steps" in self.limits_hit

    @property
    def status(self) -> Status:
        if self.answers:
            return Status.REFUTED
        if self.limits_hit:
            return Status.LIMIT_EXCEEDED
        return Status.FAILED


# Yields a mode's moves at the selected atom g[i] of a goal reached by a
# rewriting chain of the given length, charging each move to the state.
Expand = Callable[[_SearchState, Sequence, int, int], Iterator[Move]]
# Reads the selected atom g[i] through the store: ``read(store, g, i)``
# returns the goal with it walked.
Read = Callable[[Bindings, Sequence, int], Sequence]


def clause_moves(
    p: Program,
    rules: Sequence[tuple[Callable, int, bool]],
    fresh: FreshVars,
    atom_of: Callable[[Any], Term] = lambda entry: entry,
) -> Expand:
    """An ``expand`` for ``search`` that tries each ``(rule, charge,
    rewrite)`` in turn, each over the clauses the index offers for the
    selected atom ``atom_of(g[i])``, in clause order, with the search's
    store; a rewrite rule only matches, so it gets the index's matching
    lookup.  A rewrite past ``max_rewrite_chain`` is pruned as divergence
    and named in ``limits_hit``; each other move is charged, and the moves
    end when the budget does."""

    def expand(state: _SearchState, g: Sequence, i: int, chain: int) -> Iterator[Move]:
        atom = atom_of(g[i])
        store = state.store
        for rule, cost, rewrite in rules:
            for ci in p.candidates(atom, matching=rewrite):
                got = rule(p, g, i, ci, fresh, store)
                if got is None:
                    continue
                if rewrite and chain + 1 > state.limits.max_rewrite_chain:
                    state.limits_hit.add("max_rewrite_chain")
                    continue
                if not state.charge(cost):
                    return
                yield got[0], got[1], rewrite

    return expand


def search(
    query: Sequence[Term], initial: Sequence, expand: Expand, limits: Limits,
    fresh: FreshVars, read: Read = read_atom,
) -> Result:
    """The depth-first search behind every mode, on an explicit stack.

    ``expand(state, g, i, chain)`` yields a mode's moves at the selected
    atom ``g[i]`` in rule order, charging each to ``state`` and ending when
    a charge fails; ``chain`` is the rewriting chain that reached ``g``.
    Each refutation is recorded as an ``Answer`` in solved form over the
    variables of ``query``, with fresh names from ``fresh``.  This is the
    one place that selects atoms, bounds move depth and decides when to
    stop, by one rule for every mode: a goal ``max_depth`` moves deep gets
    no moves, so only its branch ends, and the search stops at
    ``max_answers`` answers or when the step budget is spent.

    A move may push bindings to ``state.store``, and each frame unwinds the
    store to its own trail mark before it makes its next move, so a move
    never sees a sibling's bindings.  The selected atom is ``read`` through
    the store before its moves are made, unless the store is empty or the
    atom is one the move into the goal built: those lie at
    ``range(i, i + len(g2) - n + 1)`` around the parent's selected ``i``, and
    are current, since a move builds them from a walked atom under its own
    resolved unifier.
    """
    state = _SearchState(limits)
    store = state.store
    bound = store.map
    query_vars = variables_in_order(query)
    path: list[Step] = []
    # One frame per goal on the branch: its moves, its depth in moves, its
    # rewriting chain, the lengths of ``path`` and of the trail at it, and
    # the goal's selected position and length.
    stack: list[tuple[Iterator[Move], int, int, int, int, int, int]] = []

    def enter(g: Sequence, built: range, moves: int, chain: int) -> None:
        if not g:
            steps = tuple(path)
            substs = [st.subst for st in steps if not st.subst.matcher]
            state.answers.append(
                Answer(steps, rational.solved_answer(query_vars, substs, fresh))
            )
        elif moves >= limits.max_depth:
            state.limits_hit.add("max_depth")
        else:
            i = moves % len(g) if limits.fair else 0
            if bound and i not in built:
                g = read(store, g, i)
            stack.append(
                (expand(state, g, i, chain), moves, chain, len(path), len(bound), i, len(g))
            )

    if not state.done:
        enter(initial, range(0), 0, 0)
    while stack and not state.done:
        frame_moves, moves, chain, mark, trail_mark, i, n = stack[-1]
        if len(bound) > trail_mark:
            store.unwind(trail_mark)
        move = next(frame_moves, None)
        if move is None:
            stack.pop()
            continue
        g2, taken, rewrite = move
        del path[mark:]
        if isinstance(taken, Step):
            path.append(taken)
        else:
            path.extend(taken)
        enter(g2, range(i, i + len(g2) - n + 1), moves + 1, chain + 1 if rewrite else 0)
    return Result(state.answers, state.status, state.steps_used, state.loop_failures,
                  tuple(sorted(state.limits_hit)))


def refute(
    p: Program,
    query: Sequence[Term],
    mode: str = "sld",
    limits: Limits = Limits(),
    fresh: Optional[FreshVars] = None,
) -> Result:
    """Depth-first, clause-order refutation search.

    mode "sld" applies SLD steps; mode "s" applies, per selected atom,
    every rewriting step and every substitution-plus-rewrite compound (one
    S-move each).  The bounds are those of ``Limits``.
    """
    if mode == "sld":
        rules = ((sld_step, 1, False),)
    elif mode == "s":
        rules = ((rewrite_step, 1, True), (s_compound, 2, False))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    fresh = fresh or FreshVars(10**6)
    expand = clause_moves(p, rules, fresh)
    return search(query, tuple(query), expand, limits, fresh)
