"""Decircularization of circular substitutions and bounded unfolding.

A circular binding such as ``X ↦ scons(0,X)`` stands for the infinite
succession of non-circular bindings ``X ↦ scons(0,X₁)``,
``X₁ ↦ scons(0,X₂)``, ...  ``decircularize`` materializes a finite prefix
of that succession; applying the prefix in order reproduces the circular
substitution's value exactly up to the corresponding depth, which
``unfold`` computes directly.

Mutually circular components share generation indices: if A's image
mentions B, then generation n of A's chain mentions generation n of B's,
so the chains interleave consistently.  Free variables the circular images
mention are renamed per generation as well — each unrolling round of the
binding stands for one more clause application, which would have introduced
its own copies of those variables — and the renaming is deterministic, so
``unfold`` and ``apply_prefix`` over ``decircularize`` agree exactly.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .rational import solved_answer
from .terms import (
    TRUNCATED,
    FreshVars,
    Struct,
    Substitution,
    Term,
    Var,
    apply,
    truncate,
    variables_in_order,
)

# Generation copies get negative ids: deterministic across calls and
# disjoint from engine-issued (positive) variable ids.
_GEN_STRIDE = 1 << 20


def generation_var(v: Var, gen: int) -> Var:
    """The generation-``gen`` copy of a free variable (generation 0 is the
    variable itself)."""
    if gen == 0:
        return v
    if not 0 < gen < _GEN_STRIDE:
        raise ValueError("generation out of range")
    base = v.hint or f"_G{v.id}"
    return Var(-(abs(v.id) * _GEN_STRIDE + gen), f"{base}_{gen}")


def unfold(
    s: Substitution | Sequence[Substitution], t: Term, depth: int
) -> Term:
    """Depth-bounded truncation of t's value under s: circular bindings are
    unrolled one generation per binding application, free variables inside a
    cycle body get one copy per round, and the cut positions become the
    reserved leaf.

    A sequence of substitutions (a derivation's production and loop
    unifiers, in order) is first collapsed to its solved form over the
    subject term's variables; a single substitution is used as given, so
    this function and ``apply_prefix`` over ``decircularize`` agree
    exactly."""
    if depth < 0:
        raise ValueError("unfold depth must be non-negative")
    if depth == 0:
        return TRUNCATED
    if isinstance(s, Substitution):
        sigma = s
    else:
        substs = list(s)
        if len(substs) == 1:
            sigma = substs[0]
        else:
            sigma = solved_answer(variables_in_order([t]), substs)
    if not sigma.circular:
        return truncate(depth, apply(sigma, t))
    return truncate(depth, apply_prefix(decircularize(sigma, depth), t))


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
            base = v.hint or f"_G{v.id}"
            got = fresh.new(f"{base}_{n}")
            gen_cache[(v, n)] = got
        return got

    def image_at(t: Term, n: int) -> Term:
        """t with circular variables renamed to generation n, bindings of
        non-circular variables resolved away (so each generation is
        idempotent and the prefix composes by plain application), and free
        variables replaced by their generation n-1 copies."""
        if isinstance(t, Var):
            if t in circ_set:
                return gen(t, n)
            img = s.get(t)
            if img is not None:
                return image_at(img, n)
            return generation_var(t, n - 1)
        if not t.args:
            return t
        return Struct(t.symbol, tuple(image_at(a, n) for a in t.args))

    first: dict[Var, Term] = {}
    for v in s.domain():
        img = s.get(v)
        assert img is not None
        first[v] = image_at(img, 1)
    out = [Substitution(first)]
    for n in range(2, k + 1):
        layer: dict[Var, Term] = {}
        for v in circ:
            img = s.get(v)
            assert img is not None
            layer[gen(v, n - 1)] = image_at(img, n)
        out.append(Substitution(layer))
    return out


def apply_prefix(prefix: Sequence[Substitution], t: Term) -> Term:
    """Apply decircularized generations in order (each is non-circular and
    idempotent, so plain application suffices)."""
    for s in prefix:
        t = apply(s, t)
    return t
