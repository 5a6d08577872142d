"""Bounded unfolding of circular substitutions, and their decircularization.

A circular binding such as ``X ↦ scons(0,X)`` stands for the infinite
succession of non-circular bindings ``X ↦ scons(0,X₁)``,
``X₁ ↦ scons(0,X₂)``, ...  ``unfold`` cuts the value of a term under such a
substitution at a depth, in one walk of the substitution: each time the walk
passes a cycle variable it enters the next generation of the succession.
Free variables the circular images mention are renamed per generation —
each unrolling round of a binding stands for one more clause application,
which would have introduced its own copies of those variables — and the
renaming is deterministic (``terms.generation_var``).  ``validate`` and
library callers read the cut value as a term; the printer's ``X ~ …`` lines
do not come here but write the same walk's text (``terms.truncated_text``,
the one text writer, which also writes the ``X = …`` lines uncut).

``decircularize`` materializes a finite prefix of the succession as a list
of non-circular substitutions, one per generation.  Mutually circular
components share generation indices: if A's image mentions B, then
generation n of A's chain mentions generation n of B's, so the chains
interleave consistently.  When no variable is bound to a cycle variable,
applying the first n generations in order and cutting at depth n gives
exactly ``unfold`` at depth n.  A binding to a cycle variable (an alias
``Y ↦ X`` of a cycle, or ``X ↦ Y`` on the cycle itself) takes a generation
without adding a level, so there the prefix runs out of generations before
the depth is reached, and ``unfold`` goes on to the depth asked for.
"""

from __future__ import annotations

from typing import Optional

from .terms import (
    FreshVars,
    Struct,
    Substitution,
    Term,
    Var,
    generation_var,
    truncate_value,
)


def unfold(s: Substitution, t: Term, depth: int) -> Term:
    """Depth-bounded truncation of t's value under s: the positions at depth
    ``depth`` become the reserved leaf.  A circular s is unrolled one
    generation per cycle variable the walk passes, with one copy per
    generation of each free variable in a cycle body; a non-circular s is
    resolved.  One iterative walk (``terms.truncate_value``)."""
    if depth < 0:
        raise ValueError("unfold depth must be non-negative")
    return truncate_value(depth, t, s.bindings, s.cycle_vars())


def decircularize(
    s: Substitution, k: int, fresh: Optional[FreshVars] = None
) -> list[Substitution]:
    """The first k generations of the non-circular succession equivalent to
    s.  A non-circular s passes through as the one-element list [s]."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not s.circular:
        return [s]
    fresh = fresh or FreshVars(10**5)
    # Variables that merely reach a cycle keep one non-circular binding
    # (their image with cycle variables at generation 1) and need no chain.
    circ = sorted(s.cycle_vars(), key=lambda v: v.id)
    circ_set = set(circ)

    gen_cache: dict[tuple[Var, int], Var] = {}

    def gen(v: Var, n: int) -> Var:
        got = gen_cache.get((v, n))
        if got is None:
            got = gen_cache[(v, n)] = fresh.new(f"{v.display}_{n}")
        return got

    resolved: dict[tuple[Var, int], Term] = {}

    def image_at(t: Term, n: int) -> Term:
        """t with circular variables renamed to generation n, bindings of
        non-circular variables resolved away (so each generation is
        idempotent and the prefix composes by plain application), and free
        variables replaced by their generation n-1 copies.  A left-to-right
        walk, so fresh names come in order of first occurrence; a frame is
        a Struct being rebuilt or a binding being resolved (once, into
        ``resolved``), its iterator and the images so far."""
        stack = [(None, iter((t,)), [])]
        while True:
            head, args, done = stack[-1]
            for a in args:
                if a._ground:
                    done.append(a)
                elif a.__class__ is Struct:
                    stack.append((a, iter(a.args), []))
                    break
                elif a in circ_set:
                    done.append(gen(a, n))
                elif (a, n) in resolved:
                    done.append(resolved[a, n])
                elif a in s:
                    stack.append((a, iter((s.bindings[a],)), []))
                    break
                else:
                    done.append(generation_var(a, n - 1))
            else:
                stack.pop()
                if head.__class__ is Struct:
                    value = Struct(head.symbol, tuple(done))
                else:
                    (value,) = done
                    if head is None:
                        return value
                    resolved[head, n] = value
                stack[-1][2].append(value)

    out = [Substitution({v: image_at(s.bindings[v], 1) for v in s.domain()})]
    for n in range(2, k + 1):
        out.append(Substitution({gen(v, n - 1): image_at(s.bindings[v], n) for v in circ}))
    return out
