"""Bounded unfolding of circular substitutions, and their decircularization.

A circular binding such as ``X ↦ scons(0,X)`` stands for the infinite
succession of non-circular bindings ``X ↦ scons(0,X₁)``,
``X₁ ↦ scons(0,X₂)``, ...  ``unfold`` cuts the value of a term under such a
substitution at a depth, in one walk of the substitution: each time the walk
passes a cycle variable it enters the next generation of the succession.
Free variables the circular images mention are renamed per generation —
each unrolling round of a binding stands for one more clause application,
which would have introduced its own copies of those variables — and the
renaming is deterministic: ``_A_1`` for the solved form's ``_A``
(``terms.generation_var``).  ``validate`` and library callers read the cut
value as a term; the printer's ``X ~ …`` lines write the same walk's text
(``terms.truncated_text``, which also writes the ``X = …`` lines uncut).

``decircularize`` materializes a finite prefix of the succession as a list
of non-circular substitutions, one per generation, each resolved by one
``unify._resolve_full`` walk under one map: the non-circular bindings as
they are, each cycle variable sent to its generation n copy and each free
variable to its generation n-1 copy (``terms.generation_var``; generation 0
is the variable itself).  Generation n binds the generation n-1 copies of
the cycle variables, so mutually circular components share generation
indices: if A's image mentions B, then generation n of A's chain mentions
generation n of B's, and the chains interleave consistently.  When no
variable is bound to a cycle variable, applying the first n generations in
order and cutting at depth n gives exactly ``unfold`` at depth n.  A
binding to a cycle variable (an alias ``Y ↦ X`` of a cycle, or ``X ↦ Y`` on
the cycle itself) takes a generation without adding a level, so there the
prefix runs out of generations before the depth is reached, and ``unfold``
goes on to the depth asked for.
"""

from __future__ import annotations

from .terms import Struct, Substitution, Symbol, Term, generation_var, truncate_value, variables_of
from .unify import _resolve_full


def unfold(s: Substitution, t: Term, depth: int) -> Term:
    """Depth-bounded truncation of t's value under s: the positions at depth
    ``depth`` become the reserved leaf.  A circular s is unrolled one
    generation per cycle variable the walk passes, with one copy per
    generation of each free variable in a cycle body; a non-circular s is
    resolved.  One iterative walk (``terms.truncate_value``)."""
    if depth < 0:
        raise ValueError("unfold depth must be non-negative")
    return truncate_value(depth, t, s.bindings, s.cycle_vars())


def decircularize(s: Substitution, k: int) -> list[Substitution]:
    """The first k generations of the non-circular succession equivalent to
    s.  A non-circular s passes through as the one-element list [s]."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not s.circular:
        return [s]
    circ = s.cycle_vars()
    bind = dict(s.bindings)
    free = set().union(*map(variables_of, bind.values())) - bind.keys()
    # Generation 1 resolves the whole domain, so a variable that merely
    # reaches a cycle keeps one non-circular binding; later generations
    # resolve the cycle variables only.
    heads = list(bind)
    out = []
    for n in range(1, k + 1):
        bind.update({c: generation_var(c, n) for c in circ})
        root = Struct(Symbol("?images", len(heads)), tuple(s.bindings[v] for v in heads))
        images = _resolve_full(root, bind).args
        out.append(Substitution({generation_var(v, n - 1): t for v, t in zip(heads, images)}))
        bind.update({w: generation_var(w, n) for w in free})  # for generation n + 1
        heads = circ
    return out
