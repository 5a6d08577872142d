"""Public behaviour of the engine's small records, and of the tests' own
``Distance``, pinned against the frozen dataclasses they once were:
construction by position and by keyword with the same defaults, ``==``, a
hash equal to the hash of the tuple of the compared fields (so set and dict
orders, and all output, stay put), ``AttributeError`` on assignment and
deletion, and the ``repr`` text."""

import random
from fractions import Fraction

import pytest

from conftest import Distance
from coresolve.coengine import Entry, LoopFailReason, LoopFailure
from coresolve.derivation import Limits, Step, StepKind
from coresolve.models import GroundAtomSet
from coresolve.productivity import (
    ProductivityStatus,
    ProductivityVerdict,
    RewritingWitness,
    WitnessStep,
)
from coresolve.program import Clause, Program, Renaming, Span, UniversalityReport
from coresolve.terms import Struct, Substitution, Symbol, Var
from coresolve.unify import UnifyKind, UnifyOutcome

X = Var(1, "X")
A = Struct(Symbol("a", 0))
B = Struct(Symbol("b", 0))
P = Struct(Symbol("p", 1), (X,))
CLAUSE = Clause(P, (Struct(Symbol("q", 1), (X,)),), Span(1, 1))
SIGMA = Substitution({X: A})
STEP = Step(StepKind.SLD, 0, 0, Renaming(CLAUSE, 7), SIGMA)

# (class, fields, the values of the required fields, the values of the
# defaulted fields as their defaults, other values for every field).
RECORDS = [
    (Distance, ("zero", "exponent"), (False,), (0,), (True, 3)),
    (UniversalityReport, ("violations",), (((0, Span(1, 1), (X,)),),), (), ((),)),
    (UnifyOutcome, ("kind", "substitution", "reason"), (UnifyKind.FAIL,), (None, None),
     (UnifyKind.MATCHER, SIGMA, "clash")),
    (Step, ("kind", "atom_index", "clause_index", "renaming", "subst", "ancestor", "atom"),
     (StepKind.SLD, 0, 0, Renaming(CLAUSE, 7), SIGMA), (None, None),
     (StepKind.LOOP, 1, None, None, Substitution({}), P, A)),
    (Limits, ("max_steps", "max_depth", "max_answers", "max_rewrite_chain", "fair"),
     (), (10000, 2000, 1, 64, False), (5, 6, 7, 8, True)),
    (Entry, ("atom", "ancestors"), (P,), ((),), (A, (P, B))),
    (LoopFailure, ("reason", "atom", "ancestor"),
     (LoopFailReason.NOT_AN_INSTANCE, P, A), (), (LoopFailReason.TRIVIAL_UNIFIER, A, P)),
    (WitnessStep, ("clause_index", "clause", "body_index", "atom"), (0, CLAUSE, 0, P), (),
     (1, Clause(A), 2, A)),
    (RewritingWitness, ("root", "steps", "loop_start"), (P, (STEP,), 0), (), (A, (), 1)),
    (ProductivityVerdict, ("status", "bound", "witness", "roots"),
     (ProductivityStatus.NO_LOOP_FOUND, 64), (None, ()),
     (ProductivityStatus.NON_PRODUCTIVE, 3, RewritingWitness(P, (), 0), (P,))),
    (GroundAtomSet, ("atoms", "depth_cap"), (frozenset({A}), 2), (), (frozenset({A, B}), 3)),
]


@pytest.mark.parametrize(
    "cls, fields, required, defaults, other", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_behaviour(cls, fields, required, defaults, other):
    values = required + defaults
    r = cls(*required)
    assert r == cls(*values) == cls(**dict(zip(fields, values)))
    assert r is not cls(*required)
    assert [getattr(r, f) for f in fields] == list(values)
    assert hash(r) == hash(values)
    for k in range(len(fields)):  # each field takes part in ==
        changed = values[:k] + other[k : k + 1] + values[k + 1 :]
        assert cls(*changed) != r
    args = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(r) == f"{cls.__name__}({args})"
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
    with pytest.raises(AttributeError):
        delattr(r, fields[0])


def test_program_compares_and_hashes_clauses_only():
    sig = {"p": Symbol("p", 1)}
    p = Program((CLAUSE,), sig, ("w",))
    assert p == Program((CLAUSE,)) == Program(clauses=(CLAUSE,), signature={}, warnings=())
    assert p != Program((CLAUSE, Clause(A)), sig, ("w",))
    assert hash(p) == hash(((CLAUSE,),))
    assert Program((CLAUSE,)).signature == {} and Program((CLAUSE,)).warnings == ()
    assert Program(()).signature is not Program(()).signature  # a fresh dict each
    assert repr(p) == f"Program(clauses=({CLAUSE!r},), signature={sig!r}, warnings=('w',))"
    for name in ("clauses", "signature", "extra"):
        with pytest.raises(AttributeError):
            setattr(p, name, None)
    # The first-argument index is built once, on the first lookup.
    assert list(p.candidates(P)) == [0] and p._index is p._index
    assert p.predicates() == [Symbol("p", 1)]


def test_limits_defaults_read_on_the_class():
    assert Limits._field_defaults == {
        "max_steps": 10000, "max_depth": 2000, "max_answers": 1,
        "max_rewrite_chain": 64, "fair": False,
    }
    assert Limits(max_answers=3) == Limits(10000, 2000, 3, 64, False)


def test_unify_outcome_truthiness():
    assert not UnifyOutcome(UnifyKind.FAIL, reason="clash")
    assert not UnifyOutcome(UnifyKind.FAIL).ok
    for kind in (UnifyKind.MATCHER, UnifyKind.PROPER_UNIFIER, UnifyKind.RATIONAL_UNIFIER):
        assert UnifyOutcome(kind, SIGMA) and UnifyOutcome(kind).ok


def test_record_methods():
    assert STEP.clause == Renaming(CLAUSE, 7).instance()
    assert Step(StepKind.LOOP, 0, None, None, SIGMA).clause is None
    w = WitnessStep(0, CLAUSE, 0, A)
    assert RewritingWitness(P, (w,), 0).atoms() == [P, A]
    assert not UniversalityReport(((0, Span(1, 1), (X,)),)).universal
    assert UniversalityReport(()).universal
    atoms = GroundAtomSet(frozenset({B, A}), 1)
    assert A in atoms and P not in atoms and atoms.sorted() == [A, B]


def test_distance_order_matches_its_value():
    rng = random.Random(20171)
    ds = [Distance(True), Distance(True, 4)]
    ds += [Distance(False, rng.randrange(0, 40)) for _ in range(60)]
    for a in ds:
        assert a.value() == (Fraction(0) if a.zero else Fraction(1, 2**a.exponent))
        for b in ds:
            va, vb = a.value(), b.value()
            assert (a < b, a <= b, a > b, a >= b) == (va < vb, va <= vb, va > vb, va >= vb)
            assert (a == b) == (va == vb) and (a != b) == (va != vb)
            if a == b:
                assert hash(a) == hash(b)
    assert str(Distance(True)) == "0" and str(Distance(False, 3)) == "2^-3"
    assert sorted(ds) == sorted(ds, key=Distance.value)
