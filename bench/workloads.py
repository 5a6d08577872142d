"""The benchmark's workloads: each is a list of ``coresolve run`` calls with
the check that judges each call's result.

Every input is a pure function of the workload seed.  The stream and deep
workloads run fixed query sets whose order the seed shuffles; wide-program
generates its whole fact base and its query pairs from the seed.  The
engine only ever sees the generated program text and the query strings.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable

import checks

WORKLOADS = ("stream-answers", "deep-loop", "wide-program")

# deep-loop: nat(s^N(0)) on both sides of the default --max-rewrite 64.
NAT_DEPTHS = (8, 32, 63, 64, 96)
MAX_REWRITE = 64
FIBS_MAX_STEPS = 200
RECURSION_DEPTH = 1200

# stream-answers: answers enumerated per call, and unfolding depth.
STREAM_ANSWERS = (20, 40, 60)
UNFOLD_DEPTH = 5
STREAMS = (
    ("nats", "nats.lp", "nats(X)", ("X",)),
    ("server", "server.lp", "resource(X,Y)", ("X", "Y")),
    ("r", "r.lp", "r(X,Y)", ("X", "Y")),
)

# wide-program: a forest of random trees (every node but a root has one
# parent).  Query pairs are chosen by the number of nodes the search must
# visit, so seeds differ in labels and shapes, not in the amount of work.
TREES = 30
TREE_NODES = 11
REACH_VISITS = (1, 2, 3, 4, 5, 7)
UNREACH_VISITS = (11, 11, 11, 6, 4, 2)


@dataclass(frozen=True)
class Query:
    label: str  # the query class: calls with one label are repeats
    mode: str
    argv: tuple[str, ...]
    judge: Callable  # (code, out, exc) -> checks.Verdict


def nat_term(n: int) -> str:
    return "s(" * n + "0" + ")" * n


def _run(path: str, query: str, mode: str, *extra: str) -> tuple[str, ...]:
    return ("run", path, "-q", query, "--mode", mode, *extra)


def stream_answers(seed: int, programs: str) -> list[Query]:
    out = []
    for shape, file, query, variables in STREAMS:
        for mode in ("cos", "colp"):
            for k in STREAM_ANSWERS:
                argv = _run(
                    f"{programs}/{file}", query, mode,
                    "--max-answers", str(k), "--unfold-depth", str(UNFOLD_DEPTH),
                )

                def judge(code, out, exc, shape=shape, variables=variables, k=k):
                    if exc is not None:
                        return checks.check_verdict(0, code, out, exc)
                    return checks.check_stream(shape, variables, k, UNFOLD_DEPTH, code, out)

                out.append(Query(f"{shape}-k{k}", mode, argv, judge))
    random.Random(seed).shuffle(out)
    return out


def deep_loop(seed: int, programs: str) -> list[Query]:
    out = []
    for mode in ("sld", "s", "colp", "cos"):
        for n in NAT_DEPTHS:
            argv = _run(f"{programs}/nat.lp", f"nat({nat_term(n)})", mode)
            false_limit = mode != "sld" and n >= MAX_REWRITE

            def judge(code, out, exc, false_limit=false_limit):
                return checks.check_verdict(0, code, out, exc, false_limit)

            out.append(Query(f"nat-{n}", mode, argv, judge))
        argv = _run(
            f"{programs}/fibs.lp", "fibs(0,s(0),S)", mode, "--max-steps", str(FIBS_MAX_STEPS)
        )
        out.append(Query("fibs", mode, argv, lambda c, o, e: checks.check_verdict(2, c, o, e)))
    # nat(s^1200(0)) is finite and ground: it must succeed.  The engine
    # raises RecursionError instead (known defect b).
    argv = _run(f"{programs}/nat.lp", f"nat({nat_term(RECURSION_DEPTH)})", "sld")
    out.append(Query(f"nat-{RECURSION_DEPTH}", "sld", argv, lambda c, o, e: checks.check_verdict(0, c, o, e)))
    random.Random(seed).shuffle(out)
    return out


def generate_wide(seed: int) -> tuple[str, list[tuple[str, str]], list[tuple[str, str, str]]]:
    """The wide program's text, its edges, and the (label, source, target)
    query triples, half of them reachable."""
    # A rare forest offers no pair for some visit count; draw another one
    # from the same seed.
    for attempt in itertools.count():
        got = _draw_wide(random.Random(f"{seed}/{attempt}"))
        if got is not None:
            return got


def _draw_wide(rng: random.Random):
    names = [f"n{i}" for i in range(TREES * TREE_NODES)]
    rng.shuffle(names)
    trees = [names[t * TREE_NODES:(t + 1) * TREE_NODES] for t in range(TREES)]
    edges = []
    for nodes in trees:
        for j in range(1, TREE_NODES):
            edges.append((nodes[rng.randrange(j)], nodes[j]))
    rng.shuffle(edges)
    text = "".join(f"edge({a},{b}).\n" for a, b in edges)
    text += "path(X,Y) :- edge(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y).\n"

    # The search visits nodes depth-first in fact order.  From a tree root
    # it succeeds at the parent of the target, after ``preorder rank of the
    # parent + 1`` visits; towards a target in another tree it visits the
    # whole subtree of the source.  Pairs are picked to need the visit
    # counts in REACH_VISITS and UNREACH_VISITS, so every seed mixes short
    # and long searches alike.
    children: dict[str, list[str]] = {}
    for a, b in edges:
        children.setdefault(a, []).append(b)
    order = rng.sample(range(TREES), TREES)

    def pick(candidates) -> tuple[int, str] | None:
        for t in order:
            found = candidates(trees[t])
            if found:
                order.remove(t)
                return t, rng.choice(found)
        return None

    pairs = []
    for visits in REACH_VISITS:
        label = f"reach-v{visits}"

        def parent_at_rank(nodes, visits=visits):
            parent = _preorder(children, nodes[0])[visits - 1]
            return children.get(parent, [])

        got = pick(parent_at_rank)
        if got is None:
            return None
        pairs.append((label, trees[got[0]][0], got[1]))
    for n, visits in enumerate(UNREACH_VISITS):
        label = f"unreach-v{visits}-{n}"

        def subtree_of_size(nodes, visits=visits):
            return [v for v in nodes if len(_preorder(children, v)) == visits]

        got = pick(subtree_of_size)
        if got is None:
            return None
        other = trees[(got[0] + 1 + rng.randrange(TREES - 1)) % TREES]
        pairs.append((label, got[1], rng.choice(other)))
    return text, edges, pairs


def _preorder(children: dict[str, list[str]], root: str) -> list[str]:
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(reversed(children.get(node, [])))
    return order


def reachable(edges: list[tuple[str, str]], source: str, target: str) -> bool:
    """Breadth-first search over the generated edges."""
    succ: dict[str, list[str]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    seen, todo = {source}, deque([source])
    while todo:
        node = todo.popleft()
        for nxt in succ.get(node, ()):
            if nxt == target:
                return True
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return False


def wide_program(seed: int, program_path: str) -> tuple[str, list[Query]]:
    """The generated program text (to be written to ``program_path``) and
    its queries in sld, s and cos."""
    text, edges, pairs = generate_wide(seed)
    out = []
    for label, a, b in pairs:
        # The verdict comes from a search of the edges, not from the label.
        expected = 0 if reachable(edges, a, b) else 1
        for mode in ("sld", "s", "cos"):

            def judge(code, out, exc, expected=expected):
                return checks.check_verdict(expected, code, out, exc)

            out.append(Query(f"path-{label}", mode, _run(program_path, f"path({a},{b})", mode), judge))
    random.Random(seed).shuffle(out)
    return text, out


def build(workload: str, seed: int, programs: str, scratch: str) -> tuple[list[Query], list[str]]:
    """The workload's queries and the program files it parses."""
    if workload == "stream-answers":
        return stream_answers(seed, programs), [f"{programs}/{f}" for _, f, _, _ in STREAMS]
    if workload == "deep-loop":
        return deep_loop(seed, programs), [f"{programs}/nat.lp", f"{programs}/fibs.lp"]
    path = f"{scratch}/wide-seed{seed}.lp"
    text, queries = wide_program(seed, path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return queries, [path]
