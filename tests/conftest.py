"""Shared fixtures and generators for the test suite, and the reference
definitions the engine does not need: the checked ``apply``, ``compose``,
``occurs_in``, the dyadic tree metric, the per-candidate, memo-free loop
check, the eager step rules the binding store replaced, the scanning
value graph that ``rational.build_node``'s level index replaced and the
term writer that the uncut text walk replaced.

Randomized property tests draw from a ``random.Random`` seeded via the
``CORESOLVE_SEED`` environment variable (default fixed), so every run is
reproducible.
"""

import itertools
import os
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import total_ordering
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import pytest

from coresolve import coengine, derivation, validation
from coresolve.coengine import Entry, LoopFailure, apply_to_annotated, colp_loop, restricted_loop
from coresolve.decirc import unfold
from coresolve.derivation import Goal, Limits, Step, StepKind
from coresolve.program import Clause, Program, clause_to_text, parse_program, parse_query
from coresolve.rational import build_node, minimize
from coresolve.unify import UnifyKind, resolve_head
from coresolve.terms import (
    FreshVars,
    Struct,
    Substitution,
    Symbol,
    Term,
    Var,
    apply_raw,
    immutable_setattr,
    iter_subterms,
    oldest_on_variable_cycle,
    truncate,
    variables_in_order,
)

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

DEFAULT_SEED = 20260823

# One query per corpus program, the one its header comment is about.
CORPUS_QUERIES = {
    "bad": "bad(f(X))",
    "case1": "resource(X,Y), zeros(Y)",
    "case2": "resource(X,Y), zeros(Y)",
    "case3": "resource(X,Y,Z)",
    "ex21": "p(s(X1),X2,Y1,Y2)",
    "ex51": "p(X,s(X))",
    "ex52": "p(Y,s(X))",
    "fibs": "fibs(0,s(0),S)",
    "nat": "nat(X)",
    "nats": "nats(X)",
    "r": "r(X,Y)",
    "server": "resource(X,Y), zeros(Y)",
}


def seed() -> int:
    return int(os.environ.get("CORESOLVE_SEED", DEFAULT_SEED))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(seed())


def counting_constructions(monkeypatch, cls):
    """Counts, in ``.n``, the instances of ``cls`` built while the test runs."""
    counter = SimpleNamespace(n=0)
    construct = cls.__init__

    def counted(self, *args, **kwargs):
        counter.n += 1
        construct(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return counter


@pytest.fixture
def structs(monkeypatch):
    """Counts ``Struct`` constructions in ``structs.n`` while the test runs."""
    return counting_constructions(monkeypatch, Struct)


@pytest.fixture
def variables(monkeypatch):
    """Counts ``Var`` constructions in ``variables.n`` while the test runs."""
    return counting_constructions(monkeypatch, Var)


@contextmanager
def counting_lines(code):
    """Counts, in ``.n``, the lines run inside the block in the function
    whose code object is ``code``, with ``sys.settrace``."""
    counter = SimpleNamespace(n=0)

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        counter.n += event == "line"
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        yield counter
    finally:
        sys.settrace(previous)


def grows_at_most(counts: list[int], ratio: float) -> bool:
    """Whether each count is at most ``ratio`` times the one before."""
    return all(b <= ratio * a for a, b in zip(counts, counts[1:]))


def load(name: str):
    """Parse a corpus program; returns (program, fresh-id source)."""
    fresh = FreshVars()
    text = (PROGRAMS / f"{name}.lp").read_text(encoding="utf-8")
    return parse_program(text, fresh), fresh


def load_query(name: str, query: str):
    """Parse a corpus program and a query against one fresh-id source."""
    fresh = FreshVars()
    text = (PROGRAMS / f"{name}.lp").read_text(encoding="utf-8")
    prog = parse_program(text, fresh)
    return prog, parse_query(query, fresh), fresh


def mk(name: str, *args: Term) -> Struct:
    """Build ``name(args...)`` deriving the arity from the argument count."""
    return Struct(Symbol(name, len(args)), tuple(args))


def const(name: str) -> Struct:
    return Struct(Symbol(name, 0))


def rename_apart(t: Term, fresh: FreshVars) -> tuple[Term, Substitution]:
    """A copy of ``t`` over fresh variables, plus the bijective renaming."""
    mapping: dict[Var, Term] = {}
    for v in variables_in_order([t]):
        mapping[v] = fresh.new(v.hint)
    renaming = Substitution(mapping)
    return apply_raw(renaming, t), renaming


def apply_prefix(prefix, t: Term) -> Term:
    """Apply decircularized generations in order (each is non-circular and
    idempotent, so plain application suffices): the layered oracle that
    ``decirc.unfold`` is checked against."""
    for s in prefix:
        t = apply(s, t)
    return t


def apply_to_goal(s: Substitution, g: Goal) -> Goal:
    """Every atom of ``g`` under ``s``: the eager application the search
    defers through its binding store."""
    return tuple(apply_raw(s, a) for a in g)


def replay(g, steps):
    """All intermediate goals of a derivation, starting with the initial
    goal; confirms that a trace is honest."""
    goals = [g]
    for st in steps:
        cur = goals[-1]
        i = st.atom_index
        if st.kind is StepKind.SUBST:
            goals.append(apply_to_goal(st.subst, cur))
        elif st.kind is StepKind.REWRITE:
            body = tuple(apply_raw(st.subst, b) for b in st.clause.body)
            goals.append(cur[:i] + body + cur[i + 1 :])
        elif st.kind is StepKind.SLD:
            goals.append(
                apply_to_goal(st.subst, cur[:i] + st.clause.body + cur[i + 1 :])
            )
        else:
            goals.append(cur[:i] + cur[i + 1 :])
    return goals


# --- the eager step rules -----------------------------------------------------
# The rules as they were before the search kept a binding store: each
# applies its unifier to the rest of the goal, and in colp and cos to every
# ancestor, and pushes nothing, so plugged into ``derivation.search`` they
# leave its store empty and it reads no atom through it.  The loop rules
# ignore the search's memo of loop unifiers and unify every pair afresh.


def eager_sld_step(p, g, atom_index, clause_index, fresh, store):
    atom = g[atom_index]
    got = resolve_head(p.clause(clause_index), atom, fresh, matching=atom._ground)
    if got is None:
        return None
    sigma = got.substitution
    rest = (g[:atom_index], g[atom_index + 1 :])
    if got.kind is UnifyKind.PROPER_UNIFIER:
        rest = [apply_to_goal(sigma, part) for part in rest]
    new_goal = rest[0] + got.body + rest[1]
    return new_goal, Step(StepKind.SLD, atom_index, clause_index, got.renaming, sigma)


def eager_s_compound(p, g, atom_index, clause_index, fresh, store):
    atom = g[atom_index]
    if atom._ground:
        return None
    got = resolve_head(p.clause(clause_index), atom, fresh)
    if got is None or got.kind is not UnifyKind.PROPER_UNIFIER:
        return None
    theta, renaming = got.substitution, got.renaming
    g2 = apply_to_goal(theta, g)
    st1 = Step(StepKind.SUBST, atom_index, clause_index, renaming, theta)
    g3 = g2[:atom_index] + got.body + g2[atom_index + 1 :]
    st2 = Step(StepKind.REWRITE, atom_index, clause_index, renaming, renaming.own(theta))
    return g3, [st1, st2]


def eager_co_rewrite(p, g, atom_index, clause_index, fresh, store):
    entry = g[atom_index]
    got = resolve_head(p.clause(clause_index), entry.atom, fresh, matching=True)
    if got is None:
        return None
    grown = entry.ancestors + (entry.atom,)
    new_entries = tuple(Entry(b, grown) for b in got.body)
    step = Step(StepKind.REWRITE, atom_index, clause_index, got.renaming, got.substitution)
    return g[:atom_index] + new_entries + g[atom_index + 1 :], step


def eager_co_s_compound(p, g, atom_index, clause_index, fresh, store):
    atom = g[atom_index].atom
    if atom._ground:
        return None
    got = resolve_head(p.clause(clause_index), atom, fresh)
    if got is None or got.kind is not UnifyKind.PROPER_UNIFIER:
        return None
    theta, renaming = got.substitution, got.renaming
    g2 = apply_to_annotated(theta, g)
    st1 = Step(StepKind.SUBST, atom_index, clause_index, renaming, theta)
    grown = g2[atom_index].ancestors + (g2[atom_index].atom,)
    body_entries = tuple(Entry(b, grown) for b in got.body)
    g3 = g2[:atom_index] + body_entries + g2[atom_index + 1 :]
    st2 = Step(StepKind.REWRITE, atom_index, clause_index, renaming, renaming.own(theta))
    return g3, [st1, st2]


def eager_colp_loop(g, atom_index, ancestor, store, memo):
    out = coengine.rational_unify(g[atom_index].atom, ancestor)
    if not out.ok:
        return None
    rest = g[:atom_index] + g[atom_index + 1 :]
    return apply_to_annotated(out.substitution, rest), out.substitution


def memo_free_restricted_loop(g, atom_index, ancestor, memo):
    return restricted_loop(g, atom_index, ancestor, {})


EAGER_RULES = (
    (derivation, "sld_step", eager_sld_step),
    (derivation, "s_compound", eager_s_compound),
    (coengine, "co_rewrite", eager_co_rewrite),
    (coengine, "co_s_compound", eager_co_s_compound),
    (coengine, "colp_loop", eager_colp_loop),
    (coengine, "restricted_loop", memo_free_restricted_loop),
)


def use_eager_rules(monkeypatch) -> None:
    """Make ``refute`` and ``co_refute`` search with the eager rules."""
    for module, name, rule in EAGER_RULES:
        monkeypatch.setattr(module, name, rule)


def per_candidate_loop_moves(state, g, i, restricted, memo):
    """``coengine._loop_moves`` as it was before it picked its candidates
    first and kept a memo of loop unifiers: one ``charge(1)`` per ancestor,
    most recent first, each walked through the store as it is read, the
    filters applied to each in turn, and each rule given a fresh memo.  The
    reference the picking, memoized version must agree with, charge for
    charge."""
    entry = g[i]
    atom = entry.atom
    symbol = atom.symbol if isinstance(atom, Struct) else None
    ground = atom._ground
    for ancestor in reversed(entry.ancestors):
        if not state.charge(1):
            return False
        ancestor = state.store.walk(ancestor)
        if restricted and ground:
            continue
        other = ancestor.symbol
        if symbol is not None and other is not symbol and other != symbol:
            continue
        if restricted:
            res = restricted_loop(g, i, ancestor, {})
            if isinstance(res, LoopFailure):
                state.loop_failures.append(res)
                continue
            g2, theta = res
        else:
            if ground and ancestor._ground and atom != ancestor:
                continue
            got = colp_loop(g, i, ancestor, state.store, {})
            if got is None:
                continue
            g2, theta = got
        yield g2, Step(StepKind.LOOP, i, None, None, theta, ancestor, atom), False
    return True


# --- the scanning value graph ---------------------------------------------------
# ``rational.build_node`` as it was before it indexed each variable's binding
# levels: the reference its graphs must equal, root for root, label for
# label and child for child.


def scanning_resolve(term: Term, level: int, maps) -> tuple[Term, int]:
    """Chase variable bindings starting at ``level``, trying each later
    substitution in turn; returns the first non-variable term (with the
    level it lives at) or an unbound variable."""
    seen = None
    while isinstance(term, Var) and level < len(maps):
        img = maps[level].get(term)
        if img is None:
            level += 1
            continue
        if isinstance(img, Var):
            if seen is None:
                seen = set()
            elif (term, level) in seen:
                # A pure variable cycle (X = Y, Y = X): no structure.
                return oldest_on_variable_cycle(term, maps[level]), level
            seen.add((term, level))
        term = img
    return term, level


def scanning_build_node(terms, substs):
    maps = [s.bindings for s in substs]
    memo = {}
    labels, kids, unfilled = [], [], []

    def node_for(t, level):
        if isinstance(t, Var):
            t, level = scanning_resolve(t, level, maps)
        n = memo.get((t, level))
        if n is None:
            n = memo[t, level] = len(labels)
            kids.append(())
            if isinstance(t, Var):
                labels.append(t)
            else:
                labels.append(t.symbol)
                if t.args:
                    unfilled.append((n, t.args, level))
        return n

    roots = [node_for(t, 0) for t in terms]
    while unfilled:
        n, args, level = unfilled.pop()
        kids[n] = [node_for(a, level) for a in args]
    return roots, labels, kids


def values_bisimilar(a, b) -> bool:
    """Whether two values, each a term and its substitution list, denote
    the same rational tree: their value graphs are minimized side by side."""
    (root_a,), labels_a, kids_a = build_node([a[0]], a[1])
    (root_b,), labels_b, kids_b = build_node([b[0]], b[1])
    shift = len(labels_a)
    block = minimize(
        labels_a + labels_b, kids_a + [[k + shift for k in ks] for ks in kids_b]
    )
    return block[root_a] == block[root_b + shift]


# --- the term writer ------------------------------------------------------------
# ``terms.term_to_text`` and the printer's naming as they were before both
# became the uncut text walk: the references its text must equal.


def reference_text(t: Term, names: Optional[dict] = None) -> str:
    """A term in the program syntax, a variable in ``names`` by the name
    given there and any other by its display name.  The stack holds the
    argument iterators of the open structures."""
    names = names or {}
    out: list[str] = []
    open_args = []
    while True:
        if isinstance(t, Var):
            out.append(names.get(t) or t.display)
        elif t.args:
            out.append(t.symbol.name + "(")
            args = iter(t.args)
            open_args.append(args)
            t = next(args)
            continue
        else:
            out.append(t.symbol.name)
        while open_args:
            nxt = next(open_args[-1], None)
            if nxt is None:
                open_args.pop()
                out.append(")")
            else:
                out.append(",")
                t = nxt
                break
        else:
            return "".join(out)


def reference_names(query_vars, terms) -> dict:
    """_A, _B, ... for the non-query variables of ``terms`` in order of
    first occurrence, skipping the query variables' own names."""
    taken = {v.display for v in query_vars}
    others = [v for v in variables_in_order(terms) if v not in query_vars]
    labels = (f"_{n}" for n in map(letters, itertools.count()) if f"_{n}" not in taken)
    return dict(zip(others, labels))


def letters(n: int) -> str:
    """A, B, ..., Z, BA, BB, ...: ``n`` in base 26 with digits A to Z."""
    return (letters(n // 26) if n >= 26 else "") + chr(ord("A") + n % 26)


# --- checked substitution and the tree metric ---------------------------------
# The paper's background, which the tests check the engine against: the
# engine itself applies substitutions with ``apply_raw`` and never measures
# a distance.


class CircularSubstitutionError(ValueError):
    """Raised when a circular substitution is applied directly; circular
    bindings must go through bounded unfolding instead."""


def apply(s: Substitution, t: Term) -> Term:
    """Apply a non-circular substitution to a term (extension of the map
    from variables to terms, homomorphically)."""
    if s.circular:
        raise CircularSubstitutionError(
            "cannot apply a circular substitution; unfold it to a depth instead"
        )
    return apply_raw(s, t)


def compose(outer: Substitution, inner: Substitution) -> Substitution:
    """The substitution acting as ``outer`` after ``inner``:
    ``apply(compose(outer, inner), t) == apply(outer, apply(inner, t))``."""
    for s in (outer, inner):
        if s.circular:
            raise CircularSubstitutionError("cannot compose circular substitutions")
    out: dict[Var, Term] = {}
    for v, t in inner.items():
        out[v] = apply_raw(outer, t)
    for v, t in outer.items():
        if v not in inner:
            out[v] = t
    return Substitution(out)


def occurs_in(v: Var, t: Term) -> bool:
    return any(s == v for s in iter_subterms(t) if isinstance(s, Var))


def divergence_depth(s: Term, t: Term) -> Optional[int]:
    """Least n such that the depth-n truncations of s and t differ;
    None when s == t.  Level by level, so deep terms do not recurse."""
    level, depth = [(s, t)], 1
    while level:
        deeper = []
        for a, b in level:
            if isinstance(a, Var) or isinstance(b, Var) or a.symbol != b.symbol:
                if a != b:
                    return depth
            else:
                deeper.extend(zip(a.args, b.args))
        level, depth = deeper, depth + 1
    return None


@total_ordering
class Distance:
    """Exact dyadic distance: 0, or 2**(-exponent).  Immutable; all zero
    distances are equal, whatever their exponent."""

    __setattr__ = __delattr__ = immutable_setattr

    zero: bool
    exponent: int

    def __init__(self, zero: bool, exponent: int = 0) -> None:
        vars(self).update(zero=zero, exponent=exponent)

    def value(self) -> Fraction:
        return Fraction(0) if self.zero else Fraction(1, 2**self.exponent)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distance):
            return NotImplemented
        if self.zero or other.zero:
            return self.zero == other.zero
        return self.exponent == other.exponent

    def __lt__(self, other: "Distance") -> bool:
        # Nothing is below 0, and 0 is below the rest; 2**-e falls as e grows.
        return not other.zero and (self.zero or self.exponent > other.exponent)

    def __hash__(self) -> int:
        return hash((self.zero, 0 if self.zero else self.exponent))

    def __repr__(self) -> str:
        return f"Distance(zero={self.zero!r}, exponent={self.exponent!r})"

    def __str__(self) -> str:
        return "0" if self.zero else f"2^-{self.exponent}"


ZERO_DISTANCE = Distance(True)


def distance(s: Term, t: Term) -> Distance:
    """The dyadic ultrametric distance: 0 for equal terms, else 2**-n for
    the least depth n at which their truncations differ."""
    gamma = divergence_depth(s, t)
    if gamma is None:
        return ZERO_DISTANCE
    return Distance(False, gamma)


# --- random term generation ---------------------------------------------------

SIGNATURE = [
    Symbol("a", 0),
    Symbol("b", 0),
    Symbol("f", 1),
    Symbol("g", 2),
    Symbol("h", 3),
]


def random_term(rnd: random.Random, depth: int, vars_pool):
    """A random term over the shared signature, depth-bounded, drawing
    variables from the given pool."""
    if depth <= 0 or rnd.random() < 0.3:
        if vars_pool and rnd.random() < 0.5:
            return rnd.choice(vars_pool)
        return Struct(rnd.choice(SIGNATURE[:2]))
    sym = rnd.choice(SIGNATURE[2:])
    return Struct(
        sym, tuple(random_term(rnd, depth - 1, vars_pool) for _ in range(sym.arity))
    )


def var_pool(n: int, start: int = 1):
    return [Var(start + i, f"V{i}") for i in range(n)]


# --- random programs ----------------------------------------------------------

CONSTS = [Symbol("c0", 0), Symbol("c1", 0)]
FUNCS = [Symbol("f", 1), Symbol("g", 2)]


def ground_term(rnd, depth, consts=CONSTS, funcs=FUNCS):
    if depth <= 0 or rnd.random() < 0.45:
        return Struct(rnd.choice(consts))
    sym = rnd.choice(funcs)
    return Struct(
        sym, tuple(ground_term(rnd, depth - 1, consts, funcs) for _ in range(sym.arity))
    )


def random_program(rnd, fresh, consts=CONSTS, funcs=FUNCS):
    """A random program whose rules shrink their arguments: every body
    argument is either ground or a variable guarded by a constructor in
    the head, and clause bodies only call predicates of the same or lower
    index.  Terms are built from ``consts`` and ``funcs``."""
    preds = [
        Symbol(f"p{i}", rnd.choice([1, 2])) for i in range(rnd.randint(1, 4))
    ]
    clauses = []
    for pidx, sym in enumerate(preds):
        for _ in range(rnd.randint(1, 3)):
            guarded = []

            def head_arg():
                if rnd.random() < 0.4:
                    return ground_term(rnd, 2, consts, funcs)
                f = rnd.choice(funcs)
                vs = [
                    fresh.new(f"H{len(guarded) + k}") for k in range(f.arity)
                ]
                guarded.extend(vs)
                return Struct(f, tuple(vs))

            head = Struct(sym, tuple(head_arg() for _ in range(sym.arity)))
            body = []
            if guarded:
                # Two-atom bodies stay rare: they square the tree and blow
                # up answer terms without exercising anything new.
                n_body = 0 if (r := rnd.random()) < 0.45 else (1 if r < 0.9 else 2)
                for _ in range(n_body):
                    q = rnd.choice(preds[: pidx + 1])
                    args = tuple(
                        rnd.choice(guarded)
                        if rnd.random() < 0.7
                        else ground_term(rnd, 1, consts, funcs)
                        for _ in range(q.arity)
                    )
                    body.append(Struct(q, args))
            clauses.append(Clause(head, tuple(body)))
    return Program(tuple(clauses)), preds


def program_to_text(p: Program) -> str:
    """The program as source text, one clause a line."""
    return "\n".join(clause_to_text(c) for c in p.clauses) + ("\n" if p.clauses else "")


def check_lemma_4_1(p, query, steps_count=20, d=8, limits=Limits(), fresh=None):
    """Lemma 4.1 along the derivation ``check_theorem_5_1`` rebuilds: the
    distances from its partial answers to the depth-d answer proxy must
    strictly decrease on a subsequence covering every index and reach 0.
    Returns the verdict and the table of (step, distance)."""
    validation._require_preconditions(p)
    fresh = fresh or FreshVars(10**6)
    qt = validation._query_term(query)
    answer = validation._first_restricted_answer(p, query, limits, fresh)
    assert answer is not None, "the refutation closed no loop"
    proxy = unfold(answer.solved, qt, d)
    _, steps = validation.build_loop_unrolling(p, query, answer, steps_count, fresh)
    table = []
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
