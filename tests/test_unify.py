"""Matching, unification with occurs check, and rational-tree unification."""

import contextlib
import random
import signal
from collections import Counter
from types import SimpleNamespace

import pytest

from conftest import (
    CONSTS,
    CORPUS_QUERIES,
    FUNCS,
    apply,
    const,
    grows_at_most,
    load_query,
    mk,
    occurs_in,
    random_program,
    random_term,
    seed,
    values_bisimilar,
    var_pool,
)
from test_golden import MAX_STEPS
from coresolve import coengine, unify
from coresolve.derivation import Bindings, Limits
from coresolve.program import Clause, clause_instance
from coresolve.terms import (
    FreshVars,
    Struct,
    Substitution,
    Var,
    apply_raw,
    cycle_members,
    is_variant,
    iter_subterms,
    truncate,
    variables_of,
)
from coresolve.unify import (
    UnifyKind,
    UnifyOutcome,
    _extract,
    _occurs_resolved,
    _rational_solve,
    _resolve_full,
    _walk,
    mgm,
    mgu,
    rational_unify,
    resolve_head,
)

X, Y, Z = Var(1, "X"), Var(2, "Y"), Var(3, "Z")
Xp, Yp = Var(4, "Xp"), Var(5, "Yp")
zero = const("0")


def s_(t):
    return mk("s", t)


class TestMgm:
    def test_binds_pattern_only(self):
        pattern = mk("nats", mk("scons", X, Y))
        target = mk("nats", mk("scons", zero, Yp))
        out = mgm(pattern, target)
        assert out.kind is UnifyKind.MATCHER
        assert apply(out.substitution, pattern) == target
        assert out.substitution.domain() <= variables_of(pattern)

    def test_ground_identity(self):
        t = mk("nat", s_(zero))
        out = mgm(t, t)
        assert out.kind is UnifyKind.MATCHER
        assert out.substitution.is_identity()

    def test_fails_on_more_general_target(self):
        assert not mgm(mk("nats", mk("scons", X, Y)), mk("nats", Z)).ok


class TestMgu:
    def test_occurs_check_failure(self):
        x1 = Var(10, "X1")
        assert not mgu(mk("p", x1, x1), mk("p", X, s_(X))).ok

    def test_proper_unifier(self):
        out = mgu(mk("nats", mk("scons", Xp, Y)), mk("nats", X))
        assert out.kind is UnifyKind.PROPER_UNIFIER
        assert out.substitution.get(X) == mk("scons", Xp, Y)

    def test_identical_ground_is_matcher(self):
        out = mgu(mk("nat", zero), mk("nat", zero))
        assert out.kind is UnifyKind.MATCHER
        assert out.substitution.is_identity()

    def test_var_var_orientation(self):
        # Younger (higher-id) variable bound to the older one.
        out = mgu(mk("p", X), mk("p", Y))
        assert out.substitution.get(Y) == X

    def test_symmetry_up_to_variant(self, rng):
        pool = var_pool(3)
        for _ in range(200):
            a = random_term(rng, 3, pool)
            b = random_term(rng, 3, pool)
            ab, ba = mgu(a, b), mgu(b, a)
            assert ab.ok == ba.ok
            if ab.ok:
                assert is_variant(
                    apply(ab.substitution, a), apply(ba.substitution, a)
                )


class TestRationalUnify:
    def test_circular_stream_answer(self):
        out = rational_unify(mk("nats", Yp), mk("nats", mk("scons", zero, Yp)))
        assert out.kind is UnifyKind.RATIONAL_UNIFIER
        assert out.substitution.get(Yp) == mk("scons", zero, Yp)

    def test_no_occurs_check(self):
        x1 = Var(10, "X1")
        out = rational_unify(mk("p", x1, x1), mk("p", X, s_(X)))
        assert out.kind is UnifyKind.RATIONAL_UNIFIER
        assert out.substitution.circular

    def test_clash_fails(self):
        assert not rational_unify(mk("f", const("a")), mk("f", const("b"))).ok

    def test_sound_at_every_depth(self, rng):
        # The two sides of a solved equation denote the same rational tree,
        # free variables included: their value-graph nodes are bisimilar.
        pool = var_pool(3)
        checked = 0
        for _ in range(300):
            a = random_term(rng, 3, pool)
            b = random_term(rng, 3, pool)
            out = rational_unify(a, b)
            if not out.ok:
                continue
            checked += 1
            substs = [out.substitution]
            assert values_bisimilar((a, substs), (b, substs))
        assert checked > 50

    def test_extract_agrees_with_the_old_extract(self, rng):
        pool = var_pool(3)
        circular = clashes = 0
        for _ in range(1000):
            a = random_term(rng, 4, pool)
            b = random_term(rng, 4, pool)
            same = agree_with_reference(a, b)
            # Equal subterms held as one object, and as two.
            assert agree_with_reference(*hash_consed(a, b)) == same, (a, b)
            assert agree_with_reference(unshared(a), unshared(b)) == same, (a, b)
            two_vars = mk("pair", *pool[:2])
            one = agree_with_reference(two_vars, mk("pair", a, a))
            assert agree_with_reference(two_vars, mk("pair", a, unshared(a))) == one, a
            circular += same.startswith("{") and rational_unify(a, b).substitution.circular
            clashes += same.startswith("clash")
        assert circular > 50 and clashes > 50

    def test_printed_unifier_ignores_object_sharing(self):
        # Equal f(A) objects and one shared f(A) give the same classes: A,
        # B and f(A) are one class, named by its oldest variable, B.
        A, B = Var(2, "A"), Var(1, "B")
        two = rational_unify(mk("p", A, B), mk("p", mk("f", A), mk("f", A)))
        fa = mk("f", A)
        one = rational_unify(mk("p", A, B), mk("p", fa, fa))
        assert repr(two.substitution) == repr(one.substitution) == "{B↦f(B), A↦f(B)}"

    def test_corpus_loop_pairs_ignore_object_sharing(self, monkeypatch):
        # Every (atom, ancestor) pair the corpus runs in colp and cos feed
        # the loop rules, unified as it is and rebuilt with no subterm
        # object shared.
        pairs = []
        for rule in ("colp_loop", "restricted_loop"):
            def record(g, i, ancestor, *store, _rule=getattr(coengine, rule)):
                pairs.append((g[i].atom, ancestor))
                return _rule(g, i, ancestor, *store)

            monkeypatch.setattr(coengine, rule, record)
        for name, query in sorted(CORPUS_QUERIES.items()):
            for mode in ("colp", "restricted"):
                p, q, fresh = load_query(name, query)
                max_steps = MAX_STEPS.get(name, Limits._field_defaults["max_steps"])
                limits = Limits(max_steps=max_steps, max_answers=3)
                coengine.co_refute(p, q, mode, limits, fresh)
        circular = 0
        for a, b in pairs:
            got = rational_unify(a, b)
            again = rational_unify(unshared(a), unshared(b))
            assert (got.kind, got.reason) == (again.kind, again.reason), (a, b)
            assert repr(got.substitution) == repr(again.substitution), (a, b)
            circular += got.kind is UnifyKind.RATIONAL_UNIFIER
        assert len(pairs) > 1000 and circular > 50

    def test_deep_circular_unifier(self):
        t = X
        for _ in range(10_000):
            t = s_(t)
        out = rational_unify(X, t)
        assert out.kind is UnifyKind.RATIONAL_UNIFIER
        assert out.substitution.get(X) == t


class TestOccursIn:
    def test_direct(self):
        assert occurs_in(X, s_(X))

    def test_absent(self):
        assert not occurs_in(X, s_(Y))

    def test_deep(self):
        assert occurs_in(X, mk("f", mk("g", mk("f", X)), Y))


class TestCrossLaws:
    def test_mgm_success_implies_mgu_matcher(self, rng):
        pool = var_pool(3)
        hits = 0
        for _ in range(300):
            pattern = random_term(rng, 3, pool)
            target = random_term(rng, 3, [])
            out = mgm(pattern, target)
            if not out.ok:
                continue
            hits += 1
            u = mgu(pattern, target)
            assert u.kind is UnifyKind.MATCHER
            assert u.substitution == out.substitution
        assert hits > 10

    def test_mgu_success_implies_rational_equal(self, rng):
        pool = var_pool(3)
        for _ in range(300):
            a = random_term(rng, 3, pool)
            b = random_term(rng, 3, pool)
            u = mgu(a, b)
            if not u.ok:
                continue
            r = rational_unify(a, b)
            assert r.ok
            assert not r.substitution.circular
            assert apply(r.substitution, a) == apply(r.substitution, b)

    def test_computed_unifiers_idempotent(self, rng):
        pool = var_pool(3)
        for _ in range(300):
            a = random_term(rng, 3, pool)
            b = random_term(rng, 3, pool)
            u = mgu(a, b)
            if not u.ok:
                continue
            sigma = u.substitution
            t = random_term(rng, 3, pool)
            assert apply(sigma, apply(sigma, t)) == apply(sigma, t)


# The mgu as it was before its kernels left ground subterms alone: every
# binding is resolved and rebuilt in full, and the occurs check walks
# ground subterms too.  Kept as the oracle of TestGroundShortcuts.
def _old_apply(s, t):
    if isinstance(t, Var):
        img = s.get(t)
        return img if img is not None else t
    if not t.args:
        return t
    new_args = tuple(_old_apply(s, a) for a in t.args)
    if all(n is o for n, o in zip(new_args, t.args)):
        return t
    return Struct(t.symbol, new_args)


def _old_walk(t, bind):
    while isinstance(t, Var):
        nxt = bind.get(t)
        if nxt is None:
            return t
        t = nxt
    return t


def _old_occurs(v, t, bind):
    stack = [t]
    while stack:
        cur = _old_walk(stack.pop(), bind)
        if cur == v:
            return True
        if isinstance(cur, Struct):
            stack.extend(cur.args)
    return False


def _old_resolve(t, bind):
    t = _old_walk(t, bind)
    if isinstance(t, Var) or not t.args:
        return t
    return Struct(t.symbol, tuple(_old_resolve(a, bind) for a in t.args))


def old_mgu(a, b):
    bind = {}
    stack = [(a, b)]
    while stack:
        s, t = stack.pop()
        s = _old_walk(s, bind)
        t = _old_walk(t, bind)
        if s == t:
            continue
        if isinstance(s, Var) and isinstance(t, Var):
            if s.id < t.id:
                bind[t] = s
            else:
                bind[s] = t
            continue
        if isinstance(s, Var) or isinstance(t, Var):
            v, u = (s, t) if isinstance(s, Var) else (t, s)
            if _old_occurs(v, u, bind):
                return UnifyOutcome(UnifyKind.FAIL, reason="occurs check")
            bind[v] = u
            continue
        if s.symbol != t.symbol:
            return UnifyOutcome(UnifyKind.FAIL, reason=f"clash: {s.symbol} vs {t.symbol}")
        stack.extend(zip(s.args, t.args))
    solved = Substitution({v: _old_resolve(t, bind) for v, t in bind.items()})
    if _old_apply(solved, a) == b and solved.domain() <= variables_of(a):
        return UnifyOutcome(UnifyKind.MATCHER, solved)
    return UnifyOutcome(UnifyKind.PROPER_UNIFIER, solved)


# Rational unification as it was on its own union-find, changed only to
# intern structures by value: the reference of
# test_extract_agrees_with_the_old_extract.
class _UnionFind:
    """Union-find over term nodes for rational-tree unification.

    Term values (variables or structured subterms) are interned to integer
    handles once, so the hot find/union paths never hash or compare terms.
    Each class keeps its oldest variable (for deterministic answers) and one
    structure witness (symbols of two witnesses in one class must agree).
    """

    def __init__(self):
        self.ids = {}
        self.parent = []
        self.var_rep = []
        self.witness = []

    def add(self, t):
        k = self.ids.get(t)
        if k is None:
            k = len(self.parent)
            self.ids[t] = k
            self.parent.append(k)
            if isinstance(t, Var):
                self.var_rep.append(t)
                self.witness.append(None)
            else:
                self.var_rep.append(None)
                self.witness.append(t)
        return k

    def find(self, k):
        parent = self.parent
        root = k
        while parent[root] != root:
            root = parent[root]
        while parent[k] != root:
            parent[k], k = root, parent[k]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        self.parent[rb] = ra
        va, vb = self.var_rep[ra], self.var_rep[rb]
        if va is None or (vb is not None and vb.id < va.id):
            va = vb
        self.var_rep[ra] = va
        if self.witness[ra] is None:
            self.witness[ra] = self.witness[rb]
        return ra


def old_rational_solve(a, b):
    uf = _UnionFind()
    work = [(a, b)]
    while work:
        s, t = work.pop()
        ks, kt = uf.add(s), uf.add(t)
        if uf.find(ks) == uf.find(kt):
            continue
        ws = uf.witness[uf.find(ks)]
        wt = uf.witness[uf.find(kt)]
        if ws is not None and wt is not None:
            if ws.symbol != wt.symbol:
                return f"clash: {ws.symbol} vs {wt.symbol}"
            uf.union(ks, kt)
            work.extend(zip(ws.args, wt.args))
        else:
            uf.union(ks, kt)
    return uf


# A recursive render that carries the classes on its path.
def old_extract(uf, roots):
    for root in roots:
        for sub in iter_subterms(root):
            uf.add(sub)

    def class_of(t):
        return uf.find(uf.add(t))

    all_classes = sorted({uf.find(k) for k in range(len(uf.parent))})
    edges = {}
    for c in all_classes:
        w = uf.witness[c]
        edges[c] = tuple(class_of(arg) for arg in w.args) if w is not None else ()
    cyclic = cycle_members(all_classes, edges.__getitem__)

    def render(cls, on_path):
        w = uf.witness[cls]
        rep = uf.var_rep[cls]
        if w is None:
            return rep
        if cls in on_path or (cls in cyclic and rep is not None):
            return rep
        inner = on_path | {cls}
        return Struct(w.symbol, tuple(render(c, inner) for c in edges[cls]))

    bindings = {}
    seen_vars = set()
    for root in roots:
        for sub in iter_subterms(root):
            if isinstance(sub, Var) and sub not in seen_vars:
                seen_vars.add(sub)
                cls = class_of(sub)
                rep = uf.var_rep[cls]
                w = uf.witness[cls]
                if w is not None:
                    bindings[sub] = Struct(
                        w.symbol, tuple(render(c, frozenset({cls})) for c in edges[cls])
                    )
                elif rep is not None and sub != rep:
                    bindings[sub] = rep
    return Substitution(bindings)


def agree_with_reference(a, b):
    """The repr of the unifier of ``a`` and ``b``, or the clash reason,
    after checking that the reference gives the same substitution, repr
    and clash reason."""
    got, want = _rational_solve(a, b), old_rational_solve(a, b)
    if isinstance(want, str):
        assert got == want, (a, b)
        return want
    got, want = _extract(got, [a, b]), old_extract(want, [a, b])
    assert got == want and repr(got) == repr(want), (a, b)
    return repr(got)


def unshared(t):
    """A copy of ``t`` in which no two structure positions are one object."""
    if isinstance(t, Var):
        return t
    return Struct(t.symbol, tuple(unshared(a) for a in t.args))


def hash_consed(*ts):
    """Copies of ``ts`` in which equal structures are one object."""
    pool = {}

    def go(u):
        if isinstance(u, Var):
            return u
        u = Struct(u.symbol, tuple(go(a) for a in u.args))
        return pool.setdefault(u, u)

    return [go(t) for t in ts]


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the body once ``seconds`` have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestBindingCycles:
    # The walks trust no map to be acyclic: a variable reached again from
    # its own value raises ValueError naming it.  Without the check, a
    # cyclic map made ``_resolve_full`` grow its stack without end.
    SELF = {X: s_(X)}
    LOOP = {X: Y, Y: X}

    def raises(self, call, bind, names):
        with time_limit(5), pytest.raises(ValueError, match=rf"binding cycle: variable ({names}) "):
            call(bind)

    @pytest.mark.parametrize("bind", [SELF, LOOP], ids=["X=f(X)", "X=Y,Y=X"])
    def test_resolve_full(self, bind):
        self.raises(lambda b: _resolve_full(mk("p", Z, X), b), bind, "X|Y")
        self.raises(lambda b: _resolve_full(X, b), bind, "X|Y")

    @pytest.mark.parametrize("bind", [SELF, LOOP], ids=["X=f(X)", "X=Y,Y=X"])
    def test_occurs_resolved(self, bind):
        self.raises(lambda b: _occurs_resolved(Z, mk("p", X, X), b), bind, "X|Y")

    @pytest.mark.parametrize("bind", [SELF, LOOP], ids=["X=f(X)", "X=Y,Y=X"])
    def test_store_walk(self, bind):
        store = Bindings()
        store.push(bind)
        self.raises(lambda b: store.walk(mk("p", X)), bind, "X|Y")

    def test_walk_follows_variable_chains_only(self):
        assert _walk(X, self.SELF) == s_(X)
        self.raises(lambda b: _walk(X, b), self.LOOP, "X|Y")
        self.raises(lambda b: _walk(Z, b), {Z: X, **self.LOOP}, "X|Y")

    def test_shared_values_are_not_cycles(self):
        # A variable met twice, but never inside its own value.
        bind = {X: mk("g", Y, Y), Y: s_(Z)}
        assert _resolve_full(mk("p", X, Y), bind) == mk("p", mk("g", s_(Z), s_(Z)), s_(Z))
        assert _occurs_resolved(Z, mk("p", X, Y), bind)


def martelli_montanari(n, occurs):
    """f(X1,…,Xn) and f(g(X0,X0),…,g(Xn-1,Xn-1)) (Martelli and Montanari
    1982), whose mgu binds Xn to a tree of 2^n leaves; with ``occurs``, Z
    and h(Xn) go in front, and the occurs check on Z searches that tree."""
    xs = var_pool(n + 1, start=100)
    left, right = xs[1:], [mk("g", x, x) for x in xs[:-1]]
    if occurs:
        left, right = [Z, *left], [mk("h", xs[-1]), *right]
    return mk("f", *left), mk("f", *right), xs


class TestSharedValues:
    # Each walk takes a bound variable's value once, so mgu's work on
    # values that share variables grows with the bindings, not the tree.
    @pytest.mark.parametrize("occurs", [False, True], ids=["resolve", "occurs check"])
    def test_mgu_work_is_quadratic(self, occurs, monkeypatch):
        walks = SimpleNamespace(n=0)

        def counted(t, bind):
            walks.n += 1
            if walks.n > 100_000:
                raise RuntimeError("mgu walks a tree of bindings' values")
            return _walk(t, bind)

        monkeypatch.setattr(unify, "_walk", counted)
        counts = []
        for n in (20, 40, 80):
            a, b, xs = martelli_montanari(n, occurs)
            walks.n = 0
            got = mgu(a, b)
            counts.append(walks.n)
            value = got.substitution.get(xs[-1])
            for _ in range(n):
                assert value.args[0] is value.args[1]
                value = value.args[0]
            assert value == xs[0]
        assert grows_at_most(counts, 4.5), counts


class TestGroundShortcuts:
    def test_apply_returns_ground_terms_themselves(self, rng):
        pool = var_pool(4)
        ground = 0
        for _ in range(500):
            t = random_term(rng, 4, pool if rng.random() < 0.5 else [])
            bound = [v for v in pool if rng.random() < 0.6]
            sigma = Substitution({v: random_term(rng, 2, pool) for v in bound})
            got = apply_raw(sigma, t)
            assert got == _old_apply(sigma, t)
            if not variables_of(t):
                ground += 1
                assert got is t
        assert ground > 100

    def test_resolve_returns_unchanged_terms_themselves(self, rng):
        # Each variable is bound to a term over older variables only, which
        # is the acyclic triangular map mgu builds.
        pool = var_pool(5)
        untouched = 0
        for _ in range(500):
            bind = {
                v: random_term(rng, 2, pool[:i]) for i, v in enumerate(pool) if rng.random() < 0.5
            }
            t = random_term(rng, 4, pool)
            got = _resolve_full(t, bind)
            assert got == _old_resolve(t, bind), (t, bind)
            if not variables_of(t) & bind.keys():
                untouched += 1
                assert got is t
        assert untouched > 100

    def test_resolve_deep_terms(self):
        t = X
        for _ in range(10_000):
            t = s_(t)
        assert _resolve_full(t, {}) is t
        assert _resolve_full(t, {Y: zero}) is t
        want = zero
        for _ in range(10_000):
            want = s_(want)
        assert _resolve_full(t, {X: zero}) == want

    def test_mgu_agrees_with_the_old_mgu(self, rng):
        pool = var_pool(4)
        every = {UnifyKind.MATCHER, UnifyKind.PROPER_UNIFIER, UnifyKind.FAIL}
        kinds = set()
        # Pairs are drawn until 1,000 are checked and every kind has come
        # up; a matcher is rare, and a seed may need more pairs to meet one.
        drawn = 0
        while drawn < 1000 or kinds != every:
            if drawn == 50_000:
                pytest.fail(f"{drawn} pairs gave only {sorted(k.value for k in kinds)}")
            drawn += 1
            # Deep ground subterms on both sides, sharing variables.
            a = mk("p", random_term(rng, 3, pool), random_term(rng, 5, []))
            b = mk("p", random_term(rng, 3, pool), random_term(rng, 2, pool))
            got, want = mgu(a, b), old_mgu(a, b)
            assert got == want, (a, b)
            kinds.add(got.kind)
        assert kinds == every


# Goal variables older and younger than every renamed clause variable
# (those start at RENAMED), so variable-variable bindings go both ways.
RENAMED = 10**6
GOAL_VARS = [Var(1, "G1"), Var(2, "G2"), Var(10**9, "Y1"), Var(10**9 + 1, "Y2")]


def open_term(rnd, depth):
    """A random term over the random programs' symbols and GOAL_VARS."""
    if depth <= 0 or rnd.random() < 0.4:
        if rnd.random() < 0.5:
            return rnd.choice(GOAL_VARS)
        return Struct(rnd.choice(CONSTS))
    sym = rnd.choice(FUNCS)
    return Struct(sym, tuple(open_term(rnd, depth - 1) for _ in range(sym.arity)))


def goal_for(rnd, head):
    """An atom of the head's predicate: per argument, a goal variable, a
    random term, or an instance of the head's argument whose variables
    become goal variables or random terms."""

    def arg(a):
        r = rnd.random()
        if r < 0.25:
            return rnd.choice(GOAL_VARS)
        if r < 0.45:
            return open_term(rnd, 2)
        image = {v: open_term(rnd, 1) for v in variables_of(a)}
        return apply_raw(Substitution(image), a)

    return Struct(head.symbol, tuple(arg(a) for a in head.args))


def clause_variants(rnd, c):
    """The clause; the clause with two variables made one (a repeated head
    variable); and the clause with a variable for one head argument and an
    extra body atom over a variable only the body has."""
    out = [c]
    vs = list(c.var_positions)
    if len(vs) >= 2:
        same = Substitution(dict([rnd.sample(vs, 2)]))
        out.append(Clause(apply_raw(same, c.head), tuple(apply_raw(same, b) for b in c.body)))
    if vs:
        args = list(c.head.args)
        args[rnd.randrange(len(args))] = rnd.choice(vs)
        sym = c.head.symbol
        extra = Struct(sym, (Var(10**5, "E"),) * sym.arity)
        out.append(Clause(Struct(sym, tuple(args)), c.body + (extra,)))
    return out


class TestResolveHead:
    def test_agrees_with_mgu_and_mgm_on_the_renamed_head(self):
        rnd = random.Random(seed() + 11)
        seen: Counter = Counter()
        for _ in range(150):
            p, _ = random_program(rnd, FreshVars(10**4))
            for c in [v for c in p.clauses for v in clause_variants(rnd, c)]:
                for _ in range(6):
                    atom = goal_for(rnd, c.head)
                    for matching in (False, True):
                        self.check(c, atom, matching, seen)
        assert seen["occurs check"] >= 20
        assert seen["clash"] >= 20 and seen["no matcher"] >= 20
        assert seen[UnifyKind.MATCHER] >= 100 and seen[UnifyKind.PROPER_UNIFIER] >= 100
        assert seen["goal var bound to copy"] >= 20 and seen["copy bound to goal var"] >= 20

    @staticmethod
    def check(c, atom, matching, seen):
        fa, fb = FreshVars(RENAMED), FreshVars(RENAMED)
        inst = clause_instance(c, fa)
        want = (mgm if matching else mgu)(inst.head, atom)
        got = resolve_head(c, atom, fb, matching)
        assert fa.new().id == fb.new().id
        if not want.ok:
            assert got is None, (c, atom, matching)
            seen[want.reason.split(":")[0]] += 1
            return
        assert got is not None, (c, atom, matching)
        kind, sigma, body, renaming, bindings = got
        assert kind is want.kind
        if kind is UnifyKind.PROPER_UNIFIER:
            # The bindings a step hands the store read as the unifier.
            store = Bindings()
            store.push(bindings)
            assert [(v, store.walk(v)) for v in want.substitution.bindings] == list(
                want.substitution.items())
        # The deferred substitution, read twice, is the unifier each time,
        # and reading it draws no id.
        for _ in range(2):
            assert list(sigma.items()) == list(want.substitution.items())
            assert sigma.cycle_vars() == want.substitution.cycle_vars()
        assert fa.new().id == fb.new().id
        assert body == tuple(apply_raw(want.substitution, b) for b in inst.body)
        assert renaming.instance() == inst
        seen[want.kind] += 1
        copies = {v.id for v in inst.var_positions}
        for v, t in want.substitution.items():
            if isinstance(t, Var) and (v.id in copies) != (t.id in copies):
                seen["copy bound to goal var" if v.id in copies else "goal var bound to copy"] += 1
