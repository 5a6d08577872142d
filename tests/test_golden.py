"""Golden behaviour pin: one query per corpus program in every mode.

``tests/golden/corpus.json`` records, for each call, what
``coresolve run --max-answers 3 --trace structured`` prints on stdout, its
exit code, and the ``steps_used`` of the engine call behind it.  Any change
to the search (step order, charges, limit verdicts, answers) shows here.

Regenerate only when a behaviour change is intended, and say so:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from conftest import CORPUS_QUERIES, PROGRAMS, load_query
from coresolve.cli import main
from coresolve.coengine import co_refute
from coresolve.derivation import Limits, refute

GOLDEN = Path(__file__).resolve().parent / "golden" / "corpus.json"
MODES = ("sld", "s", "colp", "cos")
MAX_ANSWERS = 3
# These searches never end and grow their terms as they go, so at the
# default budget some of their runs take minutes; 200 steps keeps each short.
MAX_STEPS = {"case2": 200, "ex52": 200, "fibs": 200, "server": 200}


def observe(name: str, mode: str) -> dict:
    query = CORPUS_QUERIES[name]
    max_steps = MAX_STEPS.get(name, Limits.max_steps)
    argv = [
        "run", str(PROGRAMS / f"{name}.lp"), "-q", query, "--mode", mode,
        "--max-answers", str(MAX_ANSWERS), "--max-steps", str(max_steps),
        "--trace", "structured",
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    p, q, fresh = load_query(name, query)
    limits = Limits(max_steps=max_steps, max_answers=MAX_ANSWERS)
    if mode in ("sld", "s"):
        result = refute(p, q, mode, limits, fresh)
    else:
        engine_mode = "restricted" if mode == "cos" else "colp"
        result = co_refute(p, q, engine_mode, limits, fresh, preflight=False)
    return {
        "program": name,
        "query": query,
        "mode": mode,
        "exit": code,
        "steps_used": result.steps_used,
        "stdout": out.getvalue(),
    }


def calls():
    return [(name, mode) for name in sorted(CORPUS_QUERIES) for mode in MODES]


def load_golden() -> dict:
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {(r["program"], r["mode"]): r for r in records}


def test_golden_covers_every_call():
    assert sorted(load_golden()) == sorted(calls())


@pytest.mark.parametrize("name,mode", calls())
def test_matches_golden(name, mode):
    assert observe(name, mode) == load_golden()[(name, mode)]


if __name__ == "__main__":
    records = [observe(name, mode) for name, mode in calls()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
