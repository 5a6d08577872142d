"""Spans around the engine's layers, recorded from outside the engine.

``Tracer.install`` replaces each traced function at every module global of
the ``coresolve`` package that refers to it (``from .unify import mgm``
makes a second reference in ``coengine``), so calls between modules and
within one module both pass through the wrapper.  Each call records a span
``[name, start, end, parent, query]``; outcome counters are taken at the
same boundary.  Spans of one query are folded into per-name totals when
the query ends; only the first KEEP_SPANS spans are kept for writing out.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs wrapped in a traced run.  ``refute`` and
# ``co_refute`` are the search drivers: their self time is the search loop.
TRACED = (
    ("program", "parse_program"),
    ("program", "clause_instance"),
    ("unify", "mgm"),
    ("unify", "mgu"),
    ("unify", "_rational_solve"),
    ("unify", "_extract"),
    ("unify", "rational_unify"),
    ("terms", "apply_raw"),
    ("terms", "is_instance"),
    ("terms", "term_to_text"),
    ("derivation", "refute"),
    ("derivation", "sld_step"),
    ("derivation", "rewrite_step"),
    ("derivation", "s_compound"),
    ("coengine", "co_refute"),
    ("coengine", "restricted_loop"),
    ("coengine", "colp_loop"),
    ("coengine", "co_replay"),
    ("coengine", "apply_to_annotated"),
    ("coengine", "co_rewrite"),
    ("coengine", "co_s_compound"),
    ("coengine", "preflight_warnings"),
    ("productivity", "check_productive"),
    ("rational", "solved_answer"),
    ("rational", "minimize"),
    ("rational", "build_node"),
    ("decirc", "unfold"),
    ("decirc", "decircularize"),
    ("cli", "_load"),
    ("cli", "_print_answer"),
)
ROOT = "cli.main"
KEEP_SPANS = 100_000  # spans kept for writing out


def self_times(spans) -> dict[int, float]:
    """Self time of each span, by index: its duration minus the durations of
    its children.  Spans come from one thread, so children never overlap
    and their durations add up to the part of the parent they cover."""
    out = {i: s[2] - s[1] for i, s in enumerate(spans)}
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _nested_in_same(spans, i: int) -> bool:
    """Whether span ``i`` runs inside another span of its own name, whose
    inclusive time already covers it."""
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == spans[i][0]:
            return True
        p = spans[p][3]
    return False


def _outcome(name: str, args, result, counts) -> None:
    """Outcome counters taken at the span boundary."""
    if name in ("unify.mgm", "unify.mgu"):
        if result.ok:
            counts[name + ".ok"] += 1
        if result.kind.value == "proper_unifier":
            counts[name + ".proper"] += 1
    elif name == "unify._rational_solve":
        if not isinstance(result, str):
            counts[name + ".ok"] += 1
    elif name in (
        "derivation.sld_step", "derivation.rewrite_step", "derivation.s_compound",
        "coengine.co_rewrite", "coengine.co_s_compound",
    ):
        if result is not None:
            counts[name + ".ok"] += 1
    elif name in ("coengine.restricted_loop", "coengine.colp_loop"):
        g, i = args[0], args[1]
        counts["loop.max_ancestors"] = max(counts["loop.max_ancestors"], len(g[i].ancestors))
        reason = getattr(result, "reason", None)
        if reason is not None:
            counts["loop_failures." + reason.value] += 1
        elif result is not None:
            counts["loop.closed"] += 1
    elif name in ("derivation.refute", "coengine.co_refute"):
        counts[name + ".steps_used"] += result.steps_used


class Tracer:
    def __init__(self):
        self._wrappers: dict[str, object] = {}
        self._undo: list[tuple] = []
        self.kept: list[list] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = -1
        self.calls: dict[str, int] = defaultdict(int)
        # Self and inclusive time by query mode and span name.
        self.mode_self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.mode_incl_s: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)

    def install(self) -> None:
        """Wrap every TRACED function at each of its module globals."""
        modules = [m for n, m in sys.modules.items() if n == "coresolve" or n.startswith("coresolve.")]
        for module_name, fn_name in TRACED:
            name = f"{module_name}.{fn_name}"
            original = getattr(importlib.import_module("coresolve." + module_name), fn_name)
            wrapper = self._wrappers.get(name)
            if wrapper is None:
                wrapper = self._wrappers[name] = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for m, key, original in reversed(self._undo):
            setattr(m, key, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query]
            stack.append(len(spans))
            spans.append(span)
            try:
                span[1] = perf_counter()
                result = fn(*args, **kwargs)
                span[2] = perf_counter()
            finally:
                stack.pop()
                if not span[2]:
                    span[2] = perf_counter()
            _outcome(name, args, result, self.counts)
            return result

        return traced

    def begin(self, query: int) -> None:
        """Open the root span of one query."""
        self.query = query
        self.stack.append(0)
        self.spans.append([ROOT, perf_counter(), 0.0, -1, query])

    def end(self, mode: str) -> None:
        """Close the query's root span and fold the query's spans."""
        self.spans[0][2] = perf_counter()
        own = self_times(self.spans)
        for i, s in enumerate(self.spans):
            self.calls[s[0]] += 1
            self.mode_self_s[(mode, s[0])] += own[i]
            if not _nested_in_same(self.spans, i):
                self.mode_incl_s[(mode, s[0])] += s[2] - s[1]
        room = KEEP_SPANS - len(self.kept)
        if room > 0:
            self.kept.extend(self.spans[:room])
        self.spans.clear()
        self.stack.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.kept:
                fh.write(json.dumps(s) + "\n")


def layer_metrics(tr: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per round of the workload's query list."""
    calls, counts = tr.calls, tr.counts
    own: dict[str, float] = defaultdict(float)
    for (_, name), s in tr.mode_self_s.items():
        own[name] += s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    steps = counts["derivation.refute.steps_used"] + counts["coengine.co_refute.steps_used"]
    loop_calls = calls["coengine.restricted_loop"] + calls["coengine.colp_loop"]
    m: dict[str, tuple[float, str]] = {}

    def per_round(key: str, value: float, unit: str) -> None:
        m[key] = (value / rounds, unit)

    for name in (
        "program.clause_instance", "unify.mgm", "unify.mgu", "unify._rational_solve",
        "terms.apply_raw", "terms.is_instance", "derivation.sld_step",
        "derivation.rewrite_step", "derivation.s_compound", "coengine.co_replay",
        "coengine.co_rewrite", "coengine.co_s_compound", "productivity.check_productive",
        "rational.solved_answer", "rational.minimize", "rational.build_node",
        "decirc.unfold", "decirc.decircularize",
    ):
        per_round(name + ".calls", calls[name], "count")
    for name in (
        "program.parse_program", "program.clause_instance", "unify.mgm", "unify.mgu",
        "unify._rational_solve", "unify._extract", "unify.rational_unify",
        "terms.apply_raw", "terms.is_instance", "terms.term_to_text", "derivation.refute",
        "coengine.co_refute", "coengine.co_replay", "coengine.apply_to_annotated",
        "coengine.preflight_warnings", "productivity.check_productive",
        "rational.solved_answer", "rational.minimize", "rational.build_node",
        "decirc.unfold", "decirc.decircularize", "cli._load", "cli._print_answer", ROOT,
    ):
        per_round(name + ".self_s", own[name], "s")
    for name in (
        "unify.mgm", "unify._rational_solve", "derivation.sld_step",
        "derivation.rewrite_step", "derivation.s_compound", "coengine.co_rewrite",
        "coengine.co_s_compound",
    ):
        m[name + ".ok_ratio"] = (ratio(counts[name + ".ok"], calls[name]), "ratio")
    m["unify.mgu.proper_ratio"] = (ratio(counts["unify.mgu.proper"], calls["unify.mgu"]), "ratio")
    m["program.clause_instance.per_step"] = (ratio(calls["program.clause_instance"], steps), "count/step")
    per_round("derivation.steps_used", counts["derivation.refute.steps_used"], "count")
    per_round("coengine.steps_used", counts["coengine.co_refute.steps_used"], "count")
    per_round("coengine.loop.attempts", loop_calls, "count")
    m["coengine.loop.closed_ratio"] = (ratio(counts["loop.closed"], loop_calls), "ratio")
    per_round(
        "coengine.loop.self_s", own["coengine.restricted_loop"] + own["coengine.colp_loop"], "s"
    )
    m["coengine.loop.max_ancestors"] = (counts["loop.max_ancestors"], "count")
    for reason in ("no_rational_unifier", "not_an_instance", "trivial_unifier"):
        per_round("coengine.loop_failures." + reason, counts["loop_failures." + reason], "count")
    per_round("trace.spans", sum(calls.values()), "count")
    return m


def top_times(tr: Tracer, modes, inclusive: bool = False, n: int = 5) -> list[tuple[str, float]]:
    """The ``n`` largest self (or inclusive) times over queries of the given
    modes, with the loop check's two rules counted as one layer."""
    totals: dict[str, float] = defaultdict(float)
    for (mode, name), s in (tr.mode_incl_s if inclusive else tr.mode_self_s).items():
        if mode in modes:
            if name in ("coengine.restricted_loop", "coengine.colp_loop"):
                name = "coengine.loop"
            totals[name] += s
    return sorted(totals.items(), key=lambda kv: -kv[1])[:n]
