"""Command-line front end.

Subcommands: ``run`` (query a program in one of four engine modes),
``check`` (static checks), ``validate`` (answer/derivation correspondence),
``oracle`` (bounded least-model enumeration), ``repl``.  ``main`` checks
the bounds and ``check``'s flags, reads and parses the program file once,
and calls the subcommand as ``func(program, fresh, args, out, err)``.

Exit codes for ``run``: 0 at least one answer, 1 finite failure, 2 limit
exceeded (a stderr line names the bounds that fired), 3 usage or parse
error, 4 static-check refusal (only with ``--strict``).  ``check`` exits 0
on a clean verdict and 4 on a violation or loop witness.  ``validate``
exits 0 when no depth disagrees (a depth the rebuilt derivation has not
reached is ``short``, not a disagreement), 1 on a disagreement, 3 on
misuse.  Every subcommand exits 3 when the program file cannot be read or
is not UTF-8 text, and 5 on an internal error: an exception that escapes
the subcommand is reported as one ``internal error:`` line on stderr,
never as a traceback.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from typing import Optional, Sequence

from .coengine import co_refute, preflight_warnings
from .derivation import Limits, Status, refute
from .productivity import ProductivityStatus, check_productive
from .program import ParseError, Program, check_universal, parse_program, parse_query
from .terms import (
    FreshVars,
    Substitution,
    Term,
    Var,
    term_to_text,
    truncated_text,
    variables_in_order,
)

TRACE_HEADER = "coresolve-trace v1"

EXIT_ANSWER = 0
EXIT_FAILED = 1
EXIT_LIMIT = 2
EXIT_USAGE = 3
EXIT_CHECK = 4
EXIT_INTERNAL = 5

# Bounds from the command line or ``:set``: each must be positive, except
# the unfolding depth, where 0 means no unfolding.
BOUNDS = ("max_steps", "max_rewrite", "max_answers", "unfold_depth",
          "bound", "cap", "depth", "rounds")


def _bound_error(key: str, value: int) -> Optional[str]:
    """The usage error for a bound out of range, or None."""
    flag = "--" + key.replace("_", "-")
    if key == "unfold_depth":
        return f"error: {flag} must not be negative" if value < 0 else None
    return f"error: {flag} must be positive" if value <= 0 else None


def _letters(n: int) -> str:
    out = ""
    while True:
        out = chr(ord("A") + n % 26) + out
        n //= 26
        if n == 0:
            return out


def _print_answer(
    query_vars: Sequence[Var],
    solved: Substitution,
    unfold_depth: int,
    out,
) -> None:
    """Print ``X = …`` per bound query variable, and for a circular answer at a positive
    ``unfold_depth`` ``X ~ …``: the value cut at that depth, written as it is cut.
    Every other variable is named _A, _B, ... where the ``=`` lines first meet it,
    skipping the query's own names, so output is byte-stable; a lone ``_``, fresh at
    each occurrence, gets lines only under the name one of these gave it."""
    query = {v for v in query_vars if v.hint != "_"}
    shown = [(v, img) for v in query_vars if v in query and (img := solved.get(v)) is not None]
    if not shown:
        print("true", file=out)
        return
    taken = {v.display for v in query}
    unused = (s for s in ("_" + _letters(n) for n in itertools.count()) if s not in taken)
    names: dict[Var, str] = {}

    def name(v: Var) -> Optional[str]:
        if v in query:
            return None
        if v not in names:
            names[v] = next(unused)
            # A bound ``_`` (a cycle reached through it) is shown too: its value is nowhere else.
            if v.hint == "_" and (img := solved.get(v)) is not None:
                shown.append((v, img))
        return names[v]

    # Every ``=`` line is written before any is printed, so each ``~`` line
    # knows the names of them all.  ``shown`` grows while it is read.
    equations = [term_to_text(img, name) for _, img in shown]
    for (v, _), text in zip(shown, equations):
        label = names.get(v) or v.display
        print(f"{label} = {text}", file=out)
        if unfold_depth > 0 and solved.circular:
            text = truncated_text(unfold_depth, v, solved.bindings, solved.cycle_vars(), names.get)
            print(f"{label} ~ {text}", file=out)


def _emit_trace(steps, fmt: str, out) -> None:
    print(TRACE_HEADER, file=out)
    if fmt == "structured":
        import json  # only here: a one-shot process need not load it
    for n, st in enumerate(steps):
        # Only a LOOP step has an ancestor.
        ancestor = None if st.ancestor is None else term_to_text(st.ancestor)
        if fmt == "text":
            clause = "-" if st.clause_index is None else st.clause_index
            extra = "" if ancestor is None else f" ancestor={ancestor}"
            print(
                f"{n} {st.kind.value} clause={clause} atom={st.atom_index} "
                f"subst={st.subst!r}{extra}",
                file=out,
            )
            continue
        rec = {
            "n": n,
            "kind": st.kind.value,
            "clause": st.clause_index,
            "atom": st.atom_index,
            "subst": {
                v.display: term_to_text(t) for v, t in st.subst.items()
            },
        }
        if ancestor is not None:
            rec["ancestor"] = ancestor
        print(json.dumps(rec, sort_keys=True), file=out)


def _load(path: str, out_err) -> Optional[tuple[Program, FreshVars]]:
    fresh = FreshVars()
    try:
        # No newline translation: a lone "\r" is not a line end, as in
        # ``parse_program``, so positions match its line:col.
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=out_err)
        return None
    except UnicodeDecodeError as exc:
        print(f"error: {path} is not UTF-8 text: {exc}", file=out_err)
        return None
    try:
        prog = parse_program(text, fresh)
    except ParseError as exc:
        print(f"parse error: {exc}", file=out_err)
        return None
    for w in prog.warnings:
        print(f"warning: {w}", file=out_err)
    return prog, fresh


def _query(args, fresh: FreshVars, err) -> Optional[list[Term]]:
    """The atoms of ``args.query``, or None after printing its parse error."""
    try:
        return parse_query(args.query, fresh)
    except ParseError as exc:
        print(f"parse error: {exc}", file=err)
        return None


def cmd_run(prog: Program, fresh: FreshVars, args, out, err) -> int:
    query = _query(args, fresh, err)
    if query is None:
        return EXIT_USAGE
    limits = Limits(
        max_steps=args.max_steps,
        max_answers=args.max_answers,
        max_rewrite_chain=args.max_rewrite,
        fair=args.fair,
    )
    if args.mode == "cos":
        warnings = preflight_warnings(prog)
        for w in warnings:
            print(f"warning: {w}", file=err)
        if args.strict and warnings:
            print("refusing to run under --strict", file=err)
            return EXIT_CHECK
    if args.mode in ("sld", "s"):
        result = refute(prog, query, args.mode, limits, fresh)
    else:
        engine_mode = "restricted" if args.mode == "cos" else "colp"
        result = co_refute(prog, query, engine_mode, limits, fresh)
    if args.trace != "off":
        traces = [answer.steps for answer in result.answers]
        # A failed sld or s search prints a lone header.
        if not traces and args.mode in ("sld", "s"):
            traces = [()]
        for steps in traces:
            _emit_trace(steps, args.trace, out)
    query_vars = variables_in_order(query)
    for k, answer in enumerate(result.answers):
        if k:
            print("", file=out)
        _print_answer(query_vars, answer.solved, args.unfold_depth, out)
    if result.status is not Status.LIMIT_EXCEEDED:
        return EXIT_ANSWER if result.status is Status.REFUTED else EXIT_FAILED
    # Exit 2 names each bound that fired on stderr, so stdout holds answers only.
    named = [f"--max-steps {limits.max_steps}" if name == "max_steps"
             else f"depth bound {limits.max_depth}" for name in result.limits_hit]
    if result.diverged:
        named.append(f"--max-rewrite {limits.max_rewrite_chain}")
    print(f"limit exceeded: {', '.join(named)}", file=err)
    return EXIT_LIMIT


def cmd_check(prog: Program, fresh: FreshVars, args, out, err) -> int:
    code = EXIT_ANSWER
    if args.universal:
        report = check_universal(prog)
        if report.universal:
            print("universal: every body variable occurs in its head", file=out)
        else:
            for i, span, vs in report.violations:
                names = ",".join(v.display for v in vs)
                print(
                    f"not universal: clause {i} at {span} has existential "
                    f"body variables {{{names}}}",
                    file=out,
                )
            code = EXIT_CHECK
    if args.productive:
        verdict = check_productive(prog, bound=args.bound, fresh=fresh)
        if verdict.status is ProductivityStatus.NO_LOOP_FOUND:
            print(
                f"no rewriting loop found up to bound {verdict.bound} "
                "(inconclusive evidence of productivity)",
                file=out,
            )
        else:
            w = verdict.witness
            assert w is not None
            print(f"rewriting loop witness from {term_to_text(w.root)}:", file=out)
            for st in w.steps:
                print(
                    f"  clause {st.clause_index} -> {term_to_text(st.atom)}",
                    file=out,
                )
            code = EXIT_CHECK
    return code


def cmd_validate(prog: Program, fresh: FreshVars, args, out, err) -> int:
    from .validation import ValidationRefused, check_theorem_5_1  # off the path of ``run``

    query = _query(args, fresh, err)
    if query is None:
        return EXIT_USAGE
    try:
        report = check_theorem_5_1(
            prog, query, d_max=args.depth, rounds=args.rounds, fresh=fresh
        )
    except ValidationRefused as exc:
        print(f"refused: {exc}", file=err)
        return EXIT_USAGE
    for (d, lhs, rhs, _), mark in zip(report.table, report.marks()):
        print(
            f"depth {d}: derivation {term_to_text(lhs)} | "
            f"answer {term_to_text(rhs)} | {mark}",
            file=out,
        )
    if not report.table:
        print("no loop uses; nothing to compare", file=out)
    return EXIT_ANSWER if report.agrees else EXIT_FAILED


def cmd_oracle(prog: Program, fresh: FreshVars, args, out, err) -> int:
    from .models import lfp_enumerate  # off the path of ``run``

    atoms = lfp_enumerate(prog, args.cap)
    for a in atoms.sorted():
        print(term_to_text(a), file=out)
    return EXIT_ANSWER


def repl(prog: Program, fresh: FreshVars, args, out, err) -> int:
    """Answer each line of standard input with the program ``main`` read.
    Each input draws its variables from the id the parse left off at, as a
    fresh load would."""
    start = fresh.new().id
    # The starting settings are the command line's defaults.
    run = build_parser().parse_args(["run", args.file, "-q", ""])
    check = build_parser().parse_args(["check", args.file])
    print("coresolve repl; :quit to exit", file=out)
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        if line in (":quit", ":q"):
            break
        if line.startswith(":set "):
            parts = line.split()
            if len(parts) != 3:
                print("usage: :set KEY VALUE", file=out)
                continue
            key, value = parts[1], parts[2]
            if key == "mode" and value in ("sld", "s", "colp", "cos"):
                run.mode = value
            elif key == "mode":
                print("usage: :set mode sld|s|colp|cos", file=out)
            elif key in ("max_steps", "max_answers", "unfold_depth"):
                try:
                    number = int(value)
                except ValueError:
                    print("value must be an integer", file=out)
                    continue
                error = _bound_error(key, number)
                if error:
                    print(error, file=out)
                else:
                    setattr(run, key, number)
            else:
                print(f"unknown setting {key}", file=out)
            continue
        if line.startswith(":check"):
            parts = line.split()
            what = parts[1] if len(parts) > 1 else "universal"
            check.universal = what == "universal"
            check.productive = what == "productive"
            if check.universal or check.productive:
                cmd_check(prog, FreshVars(start), check, out, err)
            else:
                print("usage: :check universal|productive", file=out)
            continue
        if line.startswith(":"):
            print(f"unknown command {line}", file=out)
            continue
        if line.startswith("?-"):
            line = line[2:].strip()
        run.query = line
        code = cmd_run(prog, FreshVars(start), run, out, err)
        if code == EXIT_FAILED:
            print("no", file=out)
        elif code == EXIT_LIMIT:
            print("limit exceeded", file=out)
    return EXIT_ANSWER


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later ``main`` call in the process, since building it costs more than
    many queries do.  Callers only parse with it; none may change it."""
    parser = argparse.ArgumentParser(
        prog="coresolve",
        description="structural-resolution engine with coinductive loop detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a query against a program")
    run.add_argument("file")
    run.add_argument("-q", "--query", required=True)
    run.add_argument(
        "--mode", choices=["sld", "s", "colp", "cos"], default="cos"
    )
    limits = Limits._field_defaults
    run.add_argument("--max-steps", type=int, default=limits["max_steps"])
    run.add_argument("--max-rewrite", type=int, default=limits["max_rewrite_chain"])
    run.add_argument("--max-answers", type=int, default=limits["max_answers"])
    run.add_argument("--unfold-depth", type=int, default=0)
    run.add_argument("--fair", action="store_true")
    run.add_argument(
        "--trace", choices=["off", "text", "structured"], default="off"
    )
    run.add_argument("--strict", action="store_true")
    run.set_defaults(func=cmd_run)

    check = sub.add_parser("check", help="static checks")
    check.add_argument("file")
    check.add_argument("--universal", action="store_true")
    check.add_argument("--productive", action="store_true")
    check.add_argument("--bound", type=int, default=64)
    check.set_defaults(func=cmd_check)

    validate = sub.add_parser(
        "validate", help="answer/derivation correspondence check"
    )
    validate.add_argument("file")
    validate.add_argument("-q", "--query", required=True)
    validate.add_argument("--depth", type=int, default=8)
    validate.add_argument("--rounds", type=int, default=16)
    validate.set_defaults(func=cmd_validate)

    oracle = sub.add_parser("oracle", help="bounded least-model enumeration")
    oracle.add_argument("file")
    oracle.add_argument("--cap", type=int, default=4)
    oracle.set_defaults(func=cmd_oracle)

    rp = sub.add_parser("repl", help="interactive query loop")
    rp.add_argument("file")
    rp.set_defaults(func=repl)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_ANSWER
    for key in BOUNDS:
        value = getattr(args, key, None)
        error = None if value is None else _bound_error(key, value)
        if error:
            print(error, file=sys.stderr)
            return EXIT_USAGE
    if args.command == "check" and not (args.universal or args.productive):
        print("check: at least one of --universal / --productive is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        loaded = _load(args.file, sys.stderr)
        if loaded is None:
            return EXIT_USAGE
        return args.func(*loaded, args, sys.stdout, sys.stderr)
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
