"""A fixed block of reference work, timed beside every call to correct the
benchmark's times for the speed of the machine at that moment.

On a shared host the speed of pure-Python code drifts by 20-50% over
seconds to minutes, as neighbours come and go.  A call's time divided by
the time of this block, run right next to it, cancels most of that drift
while still moving with any change to the engine: the block shares no code
with ``coresolve``.  It does the same kind of work as the engine (frozen
dataclass terms, tuples, dicts, recursion, ``isinstance`` dispatch), so
contention slows both alike.

Corrected time = measured time x NOMINAL_MS / (mean block time nearby),
that is, the time the call would take on a machine that runs the block in
NOMINAL_MS.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter

# The block's time on a lightly loaded 2-vCPU Xeon VM with Python 3.11.
# Any constant would do; this one keeps corrected times near real ones.
NOMINAL_MS = 1.5
# Blocks timed before and after a call that give its local speed.  Over
# twelve 25 s runs per workload, a window of 3 left 2-4% run-to-run spread
# in the corrected metrics; the median of all blocks of a run left 10-28%.
WINDOW = 3


@dataclass(frozen=True)
class V:
    id: int


@dataclass(frozen=True)
class F:
    name: str
    args: tuple


def _build(depth: int, at: int, leaves: list[V]):
    if depth == 0:
        return leaves[at % len(leaves)]
    return F("f" if depth & 1 else "g", tuple(_build(depth - 1, at + i, leaves) for i in range(2)))


def _subst(t, s: dict):
    if isinstance(t, V):
        return s.get(t, t)
    return F(t.name, tuple(_subst(a, s) for a in t.args))


def _unify(a, b, s: dict) -> bool:
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        while isinstance(x, V) and x in s:
            x = s[x]
        while isinstance(y, V) and y in s:
            y = s[y]
        if x == y:
            continue
        if isinstance(x, V):
            s[x] = y
        elif isinstance(y, V):
            s[y] = x
        elif x.name == y.name and len(x.args) == len(y.args):
            todo.extend(zip(x.args, y.args))
        else:
            return False
    return True


def block() -> float:
    """Run the reference block once; return its time in seconds."""
    t0 = perf_counter()
    leaves = [V(i) for i in range(8)]
    for r in range(2):
        a = _build(7, r, leaves)
        b = _subst(a, {v: F("c", ()) for v in leaves[::2]})
        if not _unify(a, b, {}):
            raise AssertionError("reference block: its terms must unify")
        hash(b)
    return perf_counter() - t0


def corrected(times: list[float], blocks: list[float]) -> list[float]:
    """Each time, scaled by NOMINAL_MS over the mean of the WINDOW blocks
    timed before the call and the WINDOW after it.  ``blocks[i]`` was timed
    right after call ``i``."""
    out = []
    for i, t in enumerate(times):
        local = statistics.fmean(blocks[max(0, i - WINDOW): i + WINDOW])
        out.append(t * NOMINAL_MS / (1000 * local))
    return out
