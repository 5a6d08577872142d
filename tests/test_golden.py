"""Golden behaviour pins: one query per corpus program in every mode, a
wide edge/path program whose steps skip most clauses, and the streams of
circular answers with their unfoldings.

``tests/golden/corpus.json`` records, for each call, what
``coresolve run --max-answers 3 --trace structured`` prints on stdout, its
exit code, and the ``steps_used`` of the engine call behind it.
``tests/golden/wide.json`` records the same for ``tests/golden/wide.lp``
at ``--max-answers 5``.  The corpus programs have at most three clauses, so
only the wide pin shows that clause selection tries the clauses that can
fit and skips the ones that cannot, in the same order and at the same
charges.  Any change to the search (step order, charges, limit verdicts,
answers) shows here.  ``tests/golden/streams.json`` records stdout and exit
code for the three stream queries in cos and colp, at ``--max-answers 60
--unfold-depth 5`` and at ``--max-answers 10`` with unfolding depths 1 and
12: every printed ``~`` line of a circular answer shows here.
``tests/golden/validate.json`` records stdout, stderr and exit code of
``coresolve validate`` on each corpus query (but ex52, whose refusal alone
takes seconds), and on the three stream queries at a larger depth and more
rounds: the unfolding Theorem 5.1 is checked against shows here.
``tests/golden/commands.json`` records stdout, stderr and exit code of
``coresolve check --universal --productive`` and ``coresolve oracle --cap 3``
on every corpus program: each violation's source position, each loop
witness and each bounded least model shows here.

Regenerate only when a behaviour change is intended, and say so:

    PYTHONPATH=src python tests/test_golden.py

It prints one line per row it changed (the file, then the call: program or
query, mode and bounds), and nothing for a row it left as it was.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from conftest import CORPUS_QUERIES, PROGRAMS, bench_checks
from coresolve.cli import main
from coresolve.coengine import co_refute
from coresolve.derivation import Limits, refute
from coresolve.program import parse_program, parse_query
from coresolve.terms import FreshVars, variables_in_order

GOLDEN = Path(__file__).resolve().parent / "golden" / "corpus.json"
WIDE = GOLDEN.parent / "wide.lp"
WIDE_GOLDEN = GOLDEN.parent / "wide.json"
STREAMS_GOLDEN = GOLDEN.parent / "streams.json"
VALIDATE_GOLDEN = GOLDEN.parent / "validate.json"
COMMANDS_GOLDEN = GOLDEN.parent / "commands.json"
MODES = ("sld", "s", "colp", "cos")
MAX_ANSWERS = 3
# These searches never end and grow their terms as they go.  Each step of
# ex52 still costs time in the size of its growing atom (``unify.resolve_head``
# builds the clause body by resolving a head variable's value, which holds
# the whole atom's first argument), and a fibs pin at the default budget
# would print thousands of trace lines, so 200 steps keeps both short.
# case2 and server run at the default budget.
MAX_STEPS = {"ex52": 200, "fibs": 200}
DEFAULT_STEPS = Limits._field_defaults["max_steps"]
WIDE_MAX_ANSWERS = 5
# Reachable, unreachable, reachable only through the bridge rule, and the
# two open ends.
WIDE_QUERIES = ("path(a,b)", "path(a,c)", "path(i2,c)", "path(a,Y)", "path(X,b)")
STREAM_QUERIES = (("nats", "nats(X)"), ("server", "resource(X,Y)"), ("r", "r(X,Y)"))
# (max answers, unfolding depth)
STREAM_BOUNDS = ((60, 5), (10, 1), (10, 12))
# (depth, rounds): validate's defaults, and a deeper run on the streams.
VALIDATE_BOUNDS = ((8, 16), (12, 24))
# The arguments after the program file, by subcommand.
COMMANDS = {"check": ("--universal", "--productive"), "oracle": ("--cap", "3")}
# The fields of a record that a call observes; the others name the call.
OBSERVED = ("exit", "steps_used", "stdout", "stderr")


def observe(
    path: Path, query: str, mode: str, max_answers: int, max_steps: int,
    unfold_depth: int = 0,
) -> dict:
    """What one call prints and exits with.  Without unfolding, the call
    also prints its structured trace, and the record holds the engine's
    ``steps_used``; with unfolding, only the answers are recorded."""
    argv = [
        "run", str(path), "-q", query, "--mode", mode,
        "--max-answers", str(max_answers), "--max-steps", str(max_steps),
    ]
    argv += ["--unfold-depth", str(unfold_depth)] if unfold_depth else ["--trace", "structured"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if unfold_depth:
        return {"exit": code, "stdout": out.getvalue()}
    fresh = FreshVars()
    p = parse_program(path.read_text(encoding="utf-8"), fresh)
    q = parse_query(query, fresh)
    limits = Limits(max_steps=max_steps, max_answers=max_answers)
    if mode in ("sld", "s"):
        result = refute(p, q, mode, limits, fresh)
    else:
        engine_mode = "restricted" if mode == "cos" else "colp"
        result = co_refute(p, q, engine_mode, limits, fresh)
    return {"exit": code, "steps_used": result.steps_used, "stdout": out.getvalue()}


def observe_corpus(name: str, mode: str) -> dict:
    query = CORPUS_QUERIES[name]
    max_steps = MAX_STEPS.get(name, DEFAULT_STEPS)
    got = observe(PROGRAMS / f"{name}.lp", query, mode, MAX_ANSWERS, max_steps)
    return {"program": name, "query": query, "mode": mode, **got}


def observe_wide(query: str, mode: str) -> dict:
    got = observe(WIDE, query, mode, WIDE_MAX_ANSWERS, DEFAULT_STEPS)
    return {"query": query, "mode": mode, **got}


def observe_stream(name: str, mode: str, max_answers: int, unfold_depth: int) -> dict:
    query = dict(STREAM_QUERIES)[name]
    got = observe(
        PROGRAMS / f"{name}.lp", query, mode, max_answers, DEFAULT_STEPS, unfold_depth
    )
    return {
        "program": name, "query": query, "mode": mode,
        "max_answers": max_answers, "unfold_depth": unfold_depth, **got,
    }


def observe_validate(name: str, depth: int, rounds: int) -> dict:
    query = CORPUS_QUERIES[name]
    argv = [
        "validate", str(PROGRAMS / f"{name}.lp"), "-q", query,
        "--depth", str(depth), "--rounds", str(rounds),
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "program": name, "query": query, "depth": depth, "rounds": rounds,
        "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
    }


def observe_command(name: str, command: str) -> dict:
    argv = [command, str(PROGRAMS / f"{name}.lp"), *COMMANDS[command]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "program": name, "command": command,
        "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
    }


def calls():
    return [(name, mode) for name in sorted(CORPUS_QUERIES) for mode in MODES]


def wide_calls():
    return [(query, mode) for query in WIDE_QUERIES for mode in MODES]


def stream_calls():
    return [
        (name, mode, k, depth)
        for name, _ in STREAM_QUERIES
        for mode in ("cos", "colp")
        for k, depth in STREAM_BOUNDS
    ]


def validate_calls():
    default, deep = VALIDATE_BOUNDS
    streams = dict(STREAM_QUERIES)
    return [
        (name, *bounds)
        for name in sorted(CORPUS_QUERIES)
        if name != "ex52"
        for bounds in ((default, deep) if name in streams else (default,))
    ]


def command_calls():
    return [(path.stem, command) for path in sorted(PROGRAMS.glob("*.lp")) for command in COMMANDS]


def load_golden() -> dict:
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {(r["program"], r["mode"]): r for r in records}


def load_wide_golden() -> dict:
    records = json.loads(WIDE_GOLDEN.read_text(encoding="utf-8"))
    return {(r["query"], r["mode"]): r for r in records}


def load_streams_golden() -> dict:
    records = json.loads(STREAMS_GOLDEN.read_text(encoding="utf-8"))
    return {
        (r["program"], r["mode"], r["max_answers"], r["unfold_depth"]): r
        for r in records
    }


def load_validate_golden() -> dict:
    records = json.loads(VALIDATE_GOLDEN.read_text(encoding="utf-8"))
    return {(r["program"], r["depth"], r["rounds"]): r for r in records}


def load_commands_golden() -> dict:
    records = json.loads(COMMANDS_GOLDEN.read_text(encoding="utf-8"))
    return {(r["program"], r["command"]): r for r in records}


def test_golden_covers_every_call():
    assert sorted(load_golden()) == sorted(calls())


def test_wide_golden_covers_every_call():
    assert sorted(load_wide_golden()) == sorted(wide_calls())


def test_streams_golden_covers_every_call():
    assert sorted(load_streams_golden()) == sorted(stream_calls())


def test_validate_golden_covers_every_call():
    assert sorted(load_validate_golden()) == sorted(validate_calls())


def test_commands_golden_covers_every_call():
    assert sorted(load_commands_golden()) == sorted(command_calls())


@pytest.mark.parametrize("name,mode", calls())
def test_matches_golden(name, mode):
    assert observe_corpus(name, mode) == load_golden()[(name, mode)]


@pytest.mark.parametrize("query,mode", wide_calls())
def test_wide_matches_golden(query, mode):
    assert observe_wide(query, mode) == load_wide_golden()[(query, mode)]


@pytest.mark.parametrize("name,mode,max_answers,unfold_depth", stream_calls())
def test_streams_match_golden(name, mode, max_answers, unfold_depth):
    got = observe_stream(name, mode, max_answers, unfold_depth)
    assert got == load_streams_golden()[(name, mode, max_answers, unfold_depth)]


@pytest.mark.parametrize("name,mode,max_answers,unfold_depth", stream_calls())
def test_streams_golden_passes_the_bench_checks(name, mode, max_answers, unfold_depth):
    # The benchmark's checker reads each pinned stream on its own: every
    # answer has the stream's shape, and its = lines unfold to its ~ lines.
    row = load_streams_golden()[(name, mode, max_answers, unfold_depth)]
    variables = tuple(v.display for v in variables_in_order(parse_query(row["query"], FreshVars())))
    verdict = bench_checks().check_stream(
        name, variables, max_answers, unfold_depth, row["exit"], row["stdout"]
    )
    assert verdict.ok, verdict.failures


@pytest.mark.parametrize("name,depth,rounds", validate_calls())
def test_validate_matches_golden(name, depth, rounds):
    got = observe_validate(name, depth, rounds)
    assert got == load_validate_golden()[(name, depth, rounds)]


@pytest.mark.parametrize("name,command", command_calls())
def test_commands_match_golden(name, command):
    assert observe_command(name, command) == load_commands_golden()[(name, command)]


def test_regeneration_names_only_the_rows_it_changes(tmp_path, capsys):
    path = tmp_path / "pins.json"
    kept = {"program": "nats", "mode": "cos", "exit": 0, "stdout": "X = scons(0,X)\n"}
    _write(path, [kept])
    capsys.readouterr()
    _write(path, [kept, {"program": "r", "mode": "cos", "max_answers": 10, "exit": 1, "stdout": ""}])
    assert capsys.readouterr().out == "pins.json program=r mode=cos max_answers=10\n"
    assert json.loads(path.read_text(encoding="utf-8"))[0] == kept


def _write(path: Path, records: list) -> None:
    """Write the records, and print one line per row that is not in the
    file as it was: the file, and the row's call without what it observed."""
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    for record in records:
        if record not in old:
            call = (f"{k}={v}" for k, v in record.items() if k not in OBSERVED)
            print(path.name, *call)
    path.write_text(
        json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    _write(GOLDEN, [observe_corpus(name, mode) for name, mode in calls()])
    _write(WIDE_GOLDEN, [observe_wide(query, mode) for query, mode in wide_calls()])
    _write(STREAMS_GOLDEN, [observe_stream(*call) for call in stream_calls()])
    _write(VALIDATE_GOLDEN, [observe_validate(*call) for call in validate_calls()])
    _write(COMMANDS_GOLDEN, [observe_command(*call) for call in command_calls()])
