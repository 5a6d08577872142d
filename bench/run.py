"""coresolve benchmark: one closed-loop client making ``coresolve run``
calls in-process, one at a time, over a seeded workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Workloads: stream-answers, deep-loop, wide-program (see bench/README.md).
Each call goes through ``coresolve.cli.main(argv)`` with stdout and stderr
captured; its exit code and printed answers are checked by ``checks``.
Every reported time is corrected for the machine's speed at that moment by
a reference block timed right after each call (see ``reference``).  The
client repeats whole rounds of the workload's query list until ``--seconds``
have passed.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics of
the traced ones.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--workload all``
runs each workload in its own process and prints a table instead.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROGRAMS = ROOT / "programs"
OUT = HERE / "out"
SETUP_RUNS = 15  # fresh processes per set-up measurement; the median is reported
WARMUP_CALLS = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def src_lines() -> int:
    return sum(len(f.read_text(encoding="utf-8").splitlines()) for f in (SRC / "coresolve").glob("*.py"))


def measure_setup(files: list[str]) -> tuple[float, float]:
    """Median set-up time over SETUP_RUNS fresh processes, as measured and
    as corrected by the reference blocks each process runs after it."""
    measured, corrected = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(SRC), *files],
            capture_output=True, text=True, timeout=60, check=True,
        )
        setup, block = map(float, done.stdout.split())
        measured.append(setup)
        corrected.append(setup * reference.NOMINAL_MS / (1000 * block))
    return statistics.median(measured), statistics.median(corrected)


class Client:
    """Makes calls and keeps each query class's row: times, exit codes,
    ``steps_used`` and check outcomes.  A reference block is timed right
    after every call, and ``correct`` turns the measured times into
    corrected ones (see ``reference``)."""

    def __init__(self, cli, tracer: tracing.Tracer | None):
        self.cli = cli
        self.tracer = tracer
        self.rows: dict[tuple[str, str], dict] = {}
        self.failures: dict[str, int] = {}
        self.calls = 0
        self.sequence: list[tuple[dict, bool, float]] = []  # (row, traced, time) per call
        self.blocks: list[float] = []  # reference block time after each call
        self.unexplained = 0  # failed calls not put down to a known defect
        self._steps = None
        # steps_used is not printed by the CLI: read it off the search
        # result on its way back to the CLI.  The search is looked up at
        # each call, so a traced run sees the traced one.
        for name, module in (("refute", "derivation"), ("co_refute", "coengine")):
            setattr(cli, name, self._keep_steps(sys.modules["coresolve." + module], name))

    def _keep_steps(self, module, name: str):
        def search(*args, **kwargs):
            result = getattr(module, name)(*args, **kwargs)
            self._steps = result.steps_used
            return result

        return search

    def call(self, q: workloads.Query, traced: bool = False):
        out, err = io.StringIO(), io.StringIO()
        self._steps, code, exc = None, None, None
        if traced:
            self.tracer.begin(self.calls)
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(list(q.argv))
        except Exception as e:  # an escaped exception is a failed call, counted below
            exc = e
        dt = perf_counter() - t0
        if traced:
            self.tracer.end(q.mode)
        return dt, code, out.getvalue(), exc

    def measure(self, q: workloads.Query, traced: bool) -> None:
        dt, code, out, exc = self.call(q, traced)
        self.blocks.append(reference.block())
        self.calls += 1
        verdict = q.judge(code, out, exc)
        row = self.rows.setdefault(
            (q.label, q.mode),
            {"label": q.label, "mode": q.mode, "measured": [], "times": [], "traced_times": [],
             "answers": 0, "bad_answers": 0, "ok": 0, "failed": 0, "exit": None,
             "steps_used": None, "failures": {}},
        )
        self.sequence.append((row, traced, dt))
        if not traced:
            row["measured"].append(dt)
        row["answers"] += verdict.answers
        row["bad_answers"] += verdict.bad_answers
        row["exit"] = type(exc).__name__ if exc is not None else code
        row["steps_used"] = self._steps
        if verdict.ok:
            row["ok"] += 1
        else:
            row["failed"] += 1
            self.unexplained += not verdict.explained
            for tag, message in verdict.failures.items():
                row["failures"][tag] = message
                self.failures[tag] = self.failures.get(tag, 0) + 1

    def run_round(self, queries, traced: bool = False) -> None:
        for q in queries:
            self.measure(q, traced)

    def correct(self) -> None:
        """Fill each row's ``times`` and ``traced_times`` with corrected times."""
        fixed = reference.corrected([dt for _, _, dt in self.sequence], self.blocks)
        for (row, traced, _), t in zip(self.sequence, fixed):
            row["traced_times" if traced else "times"].append(t)


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(client: Client, setup_s: float) -> dict[str, tuple[float, str]]:
    """The gated metrics, from corrected times."""
    rows = list(client.rows.values())
    times = [t for r in rows for t in r["times"]]
    busy = sum(times)
    ok = sum(r["ok"] for r in rows)
    return {
        "setup_s": (setup_s, "s"),
        "query_p50_ms": (1000 * statistics.median(times), "ms"),
        "query_p90_ms": (1000 * statistics.quantiles(times, n=10)[8], "ms"),
        "query_geomean_ms": (1000 * geomean([statistics.median(r["times"]) for r in rows]), "ms"),
        "queries_per_s": (ok / busy, "1/s"),
        "answers_per_s": (sum(r["answers"] for r in rows) / busy, "1/s"),
        "ok_share": (ok / client.calls, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def report(args, client: Client, rounds: int, metrics, extra: dict) -> dict:
    failed = sum(r["failed"] for r in client.rows.values())
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  rounds {rounds}  src_lines {extra['src_lines']}")
    print(f"{'query':32} {'mode':5} {'calls':>5} {'measured_ms':>11} {'corrected_ms':>12} "
          f"{'steps_used':>10} {'exit':>14}  check")
    for r in sorted(client.rows.values(), key=lambda r: (r["label"], r["mode"])):
        ts = r["times"] or r["traced_times"]
        measured = statistics.median(r["measured"]) if r["measured"] else float("nan")
        verdict = "ok" if not r["failed"] else "FAIL " + ",".join(sorted(r["failures"]))
        if r["bad_answers"]:
            verdict += f" ({r['bad_answers']} of {r['answers']} answers)"
        print(f"{r['label']:32} {r['mode']:5} {len(ts):5} {1000 * measured:11.2f} "
              f"{1000 * statistics.median(ts):12.2f} {str(r['steps_used']):>10} {str(r['exit']):>14}  {verdict}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"fail_share = {failed}/{client.calls} = {failed / client.calls:.4f}")
    for tag, n in sorted(client.failures.items()):
        note = checks.KNOWN_DEFECTS.get(tag, "NOT A KNOWN DEFECT")
        print(f"failures {tag}: {n} calls ({note})")
    blocks = client.blocks
    print(f"reference block: median {1000 * statistics.median(blocks):.3f} ms, fastest "
          f"{1000 * min(blocks):.3f} ms, nominal {reference.NOMINAL_MS} ms; measured setup "
          f"{extra['setup_measured_s']:.4f} s")
    for line in extra.get("notes", []):
        print(line)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": rounds, "src_lines": extra["src_lines"], "fail_share": failed / client.calls,
        "failures": client.failures, "setup_measured_s": extra["setup_measured_s"],
        "reference_blocks": client.blocks, "rows": list(client.rows.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str), encoding="utf-8"
    )
    return {
        "correct": client.unexplained == 0,
        "attempted": client.calls,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_workload(args) -> int:
    if not (SRC / "coresolve" / "cli.py").is_file() or not PROGRAMS.is_dir():
        print(f"error: no coresolve sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from coresolve import cli

    if Path(cli.__file__).resolve().parent != SRC / "coresolve":
        print(f"error: imported coresolve from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    queries, files = workloads.build(args.workload, args.seed, str(PROGRAMS), str(OUT))
    setup_measured_s, setup_s = measure_setup(files)
    tracer = tracing.Tracer() if args.trace else None
    client = Client(cli, tracer)
    for q in queries[:WARMUP_CALLS]:
        client.call(q)
        reference.block()
    extra = {"src_lines": src_lines(), "setup_measured_s": setup_measured_s}

    start, rounds = perf_counter(), 0
    while rounds == 0 or perf_counter() - start < args.seconds:
        client.run_round(queries)
        if tracer is not None:
            tracer.install()
            try:
                client.run_round(queries, traced=True)
            finally:
                tracer.uninstall()
        rounds += 1
    client.correct()

    if tracer is None:
        metrics = end_to_end(client, setup_s)
    else:
        metrics = tracing.layer_metrics(tracer, rounds)
        plain = sum(t for r in client.rows.values() for t in r["times"])
        traced = sum(t for r in client.rows.values() for t in r["traced_times"])
        metrics["trace.overhead_ratio"] = (traced / plain - 1, "ratio")
        metrics["info.src_lines"] = (extra["src_lines"], "count")
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(spans))
        modes = sorted({q.mode for q in queries})
        extra["notes"] = [f"spans written to {spans} (first {len(tracer.kept)})"]
        for inclusive in (False, True):
            for group in [modes] + [[m] for m in modes]:
                top = ", ".join(
                    f"{n} {s / rounds:.4f}s" for n, s in tracing.top_times(tracer, group, inclusive)
                )
                kind = "inclusive" if inclusive else "self"
                extra["notes"].append(f"largest {kind} time per round, {'+'.join(group)}: {top}")
    print(json.dumps(report(args, client, rounds, metrics, extra)))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; one table of every metric."""
    code = 0
    print(f"{'workload':16} {'metric':36} {'value':>14} unit")
    for w in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(f"{w:16} failed with exit {done.returncode}: {done.stderr.strip()[-500:]}")
            code = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            print(f"{w:16} {name:36} {m['value']:14.6g} {m['unit']}")
        share = result["failed"] / result["attempted"]
        print(f"{w:16} {'fail_share':36} {share:14.6g} ratio "
              f"({result['failed']} of {result['attempted']} calls; correct={result['correct']})")
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
