"""Golden tests for the command-line front end: exit codes and output."""

import argparse
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PROGRAMS, load_query
from coresolve import cli, coengine, decirc, derivation, rational, terms, unify
from coresolve.cli import TRACE_HEADER, main
from coresolve.coengine import co_refute
from coresolve.derivation import Limits, refute
from coresolve.program import ParseError, parse_program, parse_query
from coresolve.terms import variables_in_order


def lp(name: str) -> str:
    return str(PROGRAMS / f"{name}.lp")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_nats_cos_answer(self, capsys):
        code, out, err = run(capsys, "run", lp("nats"), "-q", "nats(X)")
        assert code == 0
        assert out == "X = scons(0,X)\n"

    def test_unfold_depth(self, capsys):
        code, out, _ = run(
            capsys, "run", lp("nats"), "-q", "nats(X)", "--unfold-depth", "4"
        )
        assert code == 0
        assert "X ~ scons(0,scons(0,scons(0,scons(◇,◇))))" in out

    def test_ground_sld_true(self, capsys):
        code, out, _ = run(capsys, "run", lp("nat"), "-q", "nat(s(0))", "--mode", "sld")
        assert code == 0
        assert out == "true\n"

    def test_deep_ground_term_sld(self, capsys):
        # Term operations recurse over term depth; a 500-deep query needs
        # more stack than CPython's default recursion limit gives.
        query = "nat(" + "s(" * 500 + "0" + ")" * 500 + ")"
        code, out, _ = run(capsys, "run", lp("nat"), "-q", query, "--mode", "sld")
        assert code == 0
        assert out == "true\n"

    def test_depth_1200_ground_term_sld(self, capsys):
        # Past the depth at which the recursive query reader used to raise
        # RecursionError; mgu leaves the ground bindings as they are.
        query = "nat(" + "s(" * 1200 + "0" + ")" * 1200 + ")"
        code, out, _ = run(capsys, "run", lp("nat"), "-q", query, "--mode", "sld")
        assert code == 0
        assert out == "true\n"

    def test_deep_answer_sld(self, capsys, tmp_path):
        # The answer is 1,500 levels deep: building its value graph,
        # rendering the solved form and printing it used to recurse.
        deep = "s(" * 1500 + "0" + ")" * 1500
        path = tmp_path / "deep.lp"
        path.write_text(f"p({deep}).\nq(X) :- p(X).\n", encoding="utf-8")
        code, out, err = run(capsys, "run", str(path), "-q", "q(X)", "--mode", "sld")
        assert code == 0
        assert out == f"X = {deep}\n"
        assert err == ""

    @pytest.mark.parametrize("mode", ["sld", "s", "colp", "cos"])
    def test_deep_non_ground_answer(self, capsys, tmp_path, mode):
        # The answer keeps a variable 1,500 levels down.  Renaming it for
        # printing, and renaming the fact apart in the cos preflight, used
        # to recurse over the depth outside the search.
        path = tmp_path / "deep.lp"
        path.write_text("p(" + "s(" * 1500 + "Y" + ")" * 1500 + ").\n", encoding="utf-8")
        code, out, _ = run(capsys, "run", str(path), "-q", "p(X)", "--mode", mode)
        assert code == 0
        assert out == "X = " + "s(" * 1500 + "_A" + ")" * 1500 + "\n"

    @pytest.mark.parametrize("mode", ["colp", "cos"])
    def test_variable_query_atom(self, capsys, tmp_path, mode):
        # The atom X joins its ancestors as its value p(f(X)).  Kept as it
        # was read, it was a variable ancestor, whose symbol the loop
        # check's filter read: an AttributeError and exit 5.
        path = tmp_path / "v.lp"
        path.write_text("p(f(X)) :- q(X).\nq(Y) :- p(Y).\nr(a).\n", encoding="utf-8")
        code, out, err = run(capsys, "run", str(path), "-q", "X", "--mode", mode)
        assert (code, out, err) == (0, "X = p(_A)\n", "")

    def test_anonymous_query_variables_get_no_line(self, capsys, tmp_path):
        # Each lone _ is its own variable: printed as a query variable, two
        # of them shared the one name _.
        code, out, _ = run(capsys, "run", lp("nats"), "-q", "nats(_),nats(_)")
        assert (code, out) == (0, "true\n")
        path = tmp_path / "p.lp"
        path.write_text("p(f(Y),Y).\n", encoding="utf-8")
        code, out, _ = run(capsys, "run", str(path), "-q", "p(X,_),p(_,Z)", "--mode", "sld")
        assert (code, out) == (0, "X = f(_A)\n")

    @pytest.mark.parametrize("mode", ["colp", "cos"])
    def test_anonymous_variable_a_line_names_gets_its_equation(self, capsys, tmp_path, mode):
        # The cycle X reaches through _ is bound only in _'s own equation:
        # without that line, X = f(_A) would read as if _A were free.
        path = tmp_path / "r.lp"
        path.write_text("nats(scons(0,Y)) :- nats(Y).\nr(f(Y),Y) :- nats(Y).\n", encoding="utf-8")
        for depth, unfolded in (("0", []), ("2", ["X ~ f(scons(◇,◇))", "_A ~ scons(0,scons(◇,◇))"])):
            code, out, _ = run(
                capsys, "run", str(path), "-q", "r(X,_)", "--mode", mode, "--unfold-depth", depth,
            )
            expected = ["X = f(_A)", "_A = scons(0,_A)"]
            for k, line in enumerate(unfolded):
                expected.insert(2 * k + 1, line)
            assert (code, out.splitlines()) == (0, expected)

    def test_unfold_through_variable_binding(self, capsys):
        # Y = X takes a generation without adding a level; Y's unfolding
        # still reaches the depth asked for, like X's.
        code, out, _ = run(
            capsys, "run", lp("case3"), "-q", "resource(X,Y,Z)",
            "--mode", "colp", "--unfold-depth", "3",
        )
        assert code == 0
        assert out.splitlines() == [
            "X = cons(get(_A),X)",
            "X ~ cons(get(_A),cons(get(◇),cons(◇,◇)))",
            "Y = X",
            "Y ~ cons(get(X_1),cons(get(◇),cons(◇,◇)))",
            "Z = cons(_A,Z)",
            "Z ~ cons(_A,cons(X_1,cons(◇,◇)))",
        ]

    def test_printing_runs_no_cycle_analysis(self, monkeypatch):
        # Printing one circular answer with two query variables reuses the
        # cycle variables the solved form came with.  Unfolding each layer
        # of a decircularized prefix ran the analysis on every layer, and
        # then printing ran it once on the solved form.
        p, q, fresh = load_query("r", "r(X,Y)")
        result = co_refute(p, q, "restricted", Limits(), fresh)
        answer = result.answers[0]
        calls = 0
        analysis = terms.cycle_members

        def counted(nodes, succ):
            nonlocal calls
            calls += 1
            return analysis(nodes, succ)

        for module in (terms, rational, unify):
            monkeypatch.setattr(module, "cycle_members", counted)
        out = io.StringIO()
        cli._print_answer(variables_in_order(q), answer.solved, 5, out)
        assert out.getvalue().count(" ~ ") == 2
        assert calls == 0

    def test_unfolded_lines_build_no_term(self, structs):
        # Each line is written as its value is cut.  Cutting the value
        # into a new term and rendering that built five per line.
        p, q, fresh = load_query("nats", "nats(X)")
        answers = co_refute(p, q, "restricted", Limits(max_answers=20), fresh).answers
        out = io.StringIO()
        structs.n = 0
        for answer in answers:
            cli._print_answer(variables_in_order(q), answer.solved, 5, out)
        assert out.getvalue().count("X ~ scons(0,scons(0,scons(0,scons(0,scons(◇,◇)))))") == 20
        assert structs.n == 0

    def test_printing_names_variables_as_it_writes(self, monkeypatch):
        # The text walk names each variable the first time it writes it.
        # A separate pass over the printed images named them first.
        p, q, fresh = load_query("case3", "resource(X,Y,Z)")
        (answer,) = co_refute(p, q, "colp", Limits(max_answers=1), fresh).answers
        query_vars = variables_in_order(q)
        passes = []
        walk, order = terms.iter_subterms, terms.variables_in_order
        monkeypatch.setattr(terms, "iter_subterms", lambda t: passes.append(t) or walk(t))
        monkeypatch.setattr(cli, "variables_in_order", lambda ts: passes.append(ts) or order(ts))
        out = io.StringIO()
        cli._print_answer(query_vars, answer.solved, 3, out)
        assert passes == []
        assert out.getvalue().splitlines()[:2] == [
            "X = cons(get(_A),X)", "X ~ cons(get(_A),cons(get(◇),cons(◇,◇)))",
        ]

    def test_naming_is_linear_in_the_query_variables(self, monkeypatch):
        # Query variables were looked up in a list: each of the n answer
        # variables was compared with all n of them.
        compare = terms.Var.__eq__
        calls = 0

        def counted(self, other):
            nonlocal calls
            calls += 1
            return compare(self, other)

        counts = []
        for n in (500, 1000, 2000):
            fresh = terms.FreshVars()
            p = parse_program("p(f(Y)).", fresh)
            q = parse_query(",".join(f"p(X{i})" for i in range(n)), fresh)
            (answer,) = refute(p, q, "sld", Limits(max_depth=3 * n), fresh).answers
            out = io.StringIO()
            with monkeypatch.context() as patch:
                patch.setattr(terms.Var, "__eq__", counted)
                calls = 0
                cli._print_answer(variables_in_order(q), answer.solved, 0, out)
            assert out.getvalue().count(" = f(_") == n
            counts.append(calls)
        assert all(c <= size for c, size in zip(counts, (500, 1000, 2000))), counts

    @pytest.mark.parametrize("mode", ["cos", "colp"])
    @pytest.mark.parametrize("name,query", [
        ("nats", "nats(X)"), ("server", "resource(X,Y)"), ("r", "r(X,Y)"),
    ])
    def test_one_stream_answer_analyses_two_graphs(
        self, capsys, monkeypatch, mode, name, query
    ):
        # One cycle analysis on the rational unifier of the loop and one on
        # the answer's value graph, which is built once for all query
        # variables.  The loop check and printing ran the analysis again on
        # the substitutions built from them, and the graph was built once
        # per query variable.
        calls = {"cycle_members": 0, "build_node": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        analysis = counted("cycle_members", terms.cycle_members)
        for module in (terms, rational, unify):
            monkeypatch.setattr(module, "cycle_members", analysis)
        monkeypatch.setattr(rational, "build_node", counted("build_node", rational.build_node))
        code, out, _ = run(capsys, "run", lp(name), "-q", query, "--mode", mode,
                           "--max-answers", "3", "--unfold-depth", "5")
        assert code == 0
        assert out.count(" ~ ") == 3 * query.count(",") + 3
        assert calls["cycle_members"] <= 2 * 3
        assert calls["build_node"] == 3

    def test_engine_calls_go_through_the_cli_globals(self, capsys, monkeypatch):
        # The benchmark reads steps_used by replacing cli.refute and
        # cli.co_refute; a call that bypassed them would leave it blank.
        calls = []

        def keep_steps(module, name):
            def search(*args, **kwargs):
                result = getattr(module, name)(*args, **kwargs)
                calls.append((name, result.steps_used))
                return result

            return search

        for name, module in (("refute", derivation), ("co_refute", coengine)):
            monkeypatch.setattr(cli, name, keep_steps(module, name))
        for mode, engine in (("sld", "refute"), ("s", "refute"),
                             ("colp", "co_refute"), ("cos", "co_refute")):
            calls.clear()
            run(capsys, "run", lp("nats"), "-q", "nats(X)", "--mode", mode,
                "--max-steps", "100")
            assert [name for name, _ in calls] == [engine]
            assert isinstance(calls[0][1], int)

    def test_finite_failure(self, capsys):
        code, _, _ = run(capsys, "run", lp("nat"), "-q", "nat(f(0))", "--mode", "sld")
        assert code == 1

    def test_fibs_limit_exceeded(self, capsys):
        code, _, err = run(
            capsys, "run", lp("fibs"), "-q", "fibs(0,s(0),F)", "--max-steps", "500"
        )
        assert code == 2
        assert "not universal" in err

    def test_limit_line_names_each_bound(self, capsys, tmp_path):
        # Exit 2 says on stderr which bounds fired, with their values; the
        # search records them, and stdout stays empty.
        (tmp_path / "depth.lp").write_text("p(X) :- p(X).\n", encoding="utf-8")
        (tmp_path / "chain.lp").write_text("p(X) :- p(f(X)).\n", encoding="utf-8")
        (tmp_path / "both.lp").write_text("p(X) :- p(f(X)).\np(s(X)) :- p(X).\n", encoding="utf-8")
        nat150 = "nat(" + "s(" * 150 + "0" + ")" * 150 + ")"
        cases = [
            ([lp("fibs"), "-q", "fibs(0,s(0),S)", "--mode", "sld", "--max-steps", "200"],
             "--max-steps 200"),
            ([lp("nat"), "-q", nat150, "--mode", "cos", "--max-rewrite", "100000"],
             "--max-steps 10000"),
            ([str(tmp_path / "depth.lp"), "-q", "p(a)", "--mode", "sld"], "depth bound 2000"),
            ([lp("nat"), "-q", nat150, "--mode", "cos"], "--max-rewrite 64"),
            ([str(tmp_path / "chain.lp"), "-q", "p(a)", "--mode", "s", "--max-rewrite", "9"],
             "--max-rewrite 9"),
            ([str(tmp_path / "both.lp"), "-q", "p(Y)", "--mode", "s", "--max-steps", "500"],
             "--max-steps 500, --max-rewrite 64"),
        ]
        for argv, named in cases:
            code, out, err = run(capsys, "run", *argv)
            assert (code, out) == (2, "")
            assert err.splitlines()[-1] == f"limit exceeded: {named}"

    def test_no_limit_line_without_exit_2(self, capsys):
        for argv in (["nats(X)"], ["nats(X)", "--mode", "colp", "--max-answers", "3"]):
            code, _, err = run(capsys, "run", lp("nats"), "-q", *argv)
            assert code == 0 and "limit" not in err

    def test_strict_refusal(self, capsys):
        code, _, err = run(
            capsys, "run", lp("fibs"), "-q", "fibs(0,s(0),F)", "--strict"
        )
        assert code == 4
        assert "refusing" in err

    def test_query_parse_error(self, capsys):
        code, _, err = run(capsys, "run", lp("nat"), "-q", "nat(")
        assert code == 3
        assert "parse error" in err

    def test_internal_error_is_one_line_and_exit_5(self, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("engine fault")

        monkeypatch.setattr(cli, "refute", broken)
        code, out, err = run(capsys, "run", lp("nat"), "-q", "nat(0)", "--mode", "sld")
        assert code == 5
        assert out == ""
        assert err == "internal error: RuntimeError: engine fault\n"

    def test_binding_cycle_is_exit_5(self, capsys, monkeypatch):
        # A fault that binds a variable to a term holding it: the walk of
        # the next atom reads through that binding, and must stop.
        push = derivation.Bindings.push

        def cyclic(store, b):
            push(store, {v: terms.Struct(terms.Symbol("s", 1), (v,)) for v in b})

        monkeypatch.setattr(derivation.Bindings, "push", cyclic)
        code, out, err = run(capsys, "run", lp("nat"), "-q", "nat(X), nat(X)", "--mode", "sld")
        assert code == 5
        assert out == ""
        assert err.startswith("internal error: ValueError: binding cycle: variable X ")

    def test_trace_header(self, capsys):
        code, out, _ = run(
            capsys, "run", lp("nat"), "-q", "nat(0)", "--mode", "sld", "--trace", "text"
        )
        assert code == 0
        assert out.splitlines()[0] == TRACE_HEADER

    def test_structured_trace_loop_record(self, capsys):
        code, out, _ = run(
            capsys, "run", lp("nats"), "-q", "nats(X)", "--trace", "structured"
        )
        assert code == 0
        assert '"kind": "loop"' in out or '"ancestor"' in out

    def test_deterministic_output(self, capsys):
        argv = ["run", lp("server"), "-q", "resource(X,Y), zeros(Y)"]
        code1 = main(list(argv))
        first = capsys.readouterr().out
        code2 = main(list(argv))
        second = capsys.readouterr().out
        assert code1 == code2 == 0
        assert first == second
        assert first.splitlines() == ["X = cons(get(0),X)", "Y = cons(0,Y)"]


class TestCheck:
    def test_fibs_universal_violation(self, capsys):
        code, out, _ = run(capsys, "check", lp("fibs"), "--universal")
        assert code == 4
        assert "{Z}" in out

    def test_bad_productive_witness(self, capsys):
        code, out, _ = run(capsys, "check", lp("bad"), "--productive")
        assert code == 4
        assert "rewriting loop witness" in out
        assert "bad(f(" in out

    def test_nats_both_checks_clean(self, capsys):
        code, out, _ = run(capsys, "check", lp("nats"), "--universal", "--productive")
        assert code == 0
        assert "universal" in out and "no rewriting loop" in out

    def test_requires_a_flag(self, capsys):
        # The flag error comes before the file is read, so a missing file
        # reports it too.
        for path in (lp("nats"), "no-such-file.lp"):
            code, _, err = run(capsys, "check", path)
            assert code == 3
            assert "at least one" in err
            assert err == "check: at least one of --universal / --productive is required\n"


class TestValidate:
    def test_r_program_agrees(self, capsys):
        code, out, _ = run(capsys, "validate", lp("r"), "-q", "r(X,Y)")
        assert code == 0
        assert "MISMATCH" not in out
        assert out.count("ok") >= 6

    def test_server_agrees(self, capsys):
        code, out, _ = run(
            capsys, "validate", lp("server"), "-q", "resource(X,Y), zeros(Y)"
        )
        assert code == 0

    def test_ex51_refused(self, capsys):
        code, _, err = run(capsys, "validate", lp("ex51"), "-q", "p(X,s(X))")
        assert code == 3
        assert "refused" in err

    def test_depths_the_derivation_never_reached_are_short(self, capsys):
        code, out, _ = run(
            capsys, "validate", lp("nats"), "-q", "nats(X)", "--depth", "30", "--rounds", "30"
        )
        assert code == 0
        marks = [line.rsplit(" | ", 1)[1] for line in out.splitlines()]
        assert marks == ["ok"] * 17 + ["short"] * 13
        # Row 18: the derivation still has Y where the answer has structure.
        assert ",Y)" in out.splitlines()[17]

    def test_real_mismatch_still_reported(self, capsys, monkeypatch):
        # An answer side whose stream elements are 1 instead of 0.
        zero, one = terms.Symbol("0", 0), terms.Symbol("1", 0)

        def flip(t):
            if isinstance(t, terms.Var):
                return t
            symbol = one if t.symbol == zero else t.symbol
            return terms.Struct(symbol, tuple(flip(a) for a in t.args))

        unfold = decirc.unfold
        monkeypatch.setattr(decirc, "unfold", lambda s, t, depth: flip(unfold(s, t, depth)))
        code, out, _ = run(capsys, "validate", lp("nats"), "-q", "nats(X)")
        assert code == 1
        marks = [line.rsplit(" | ", 1)[1] for line in out.splitlines()]
        assert marks == ["ok", "ok"] + ["MISMATCH"] * 6


class TestOracle:
    def test_nat_cap5_sorted(self, capsys):
        code, out, _ = run(capsys, "oracle", lp("nat"), "--cap", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines == sorted(lines)
        assert "nat(0)" in lines and "nat(s(s(s(s(0)))))" in lines
        assert len(lines) == 5

    def test_deep_fact(self, capsys, tmp_path):
        # The fact is far deeper than the cap, so it adds no atom; measuring
        # its depth used to recurse and raise RecursionError.
        program = tmp_path / "deep.lp"
        deep = "deep(" + "s(" * 10_000 + "0" + ")" * 10_001 + "."
        program.write_text("nat(0). nat(s(X)) :- nat(X). " + deep)
        code, out, err = run(capsys, "oracle", str(program), "--cap", "3")
        assert (code, err) == (0, "")
        assert out.splitlines() == ["nat(0)", "nat(s(0))", "nat(s(s(0)))"]


class TestUsage:
    def test_missing_file(self, capsys):
        path = "no-such-file.lp"
        for argv in (["run", path, "-q", "p(X)"], ["check", path, "--universal"],
                     ["validate", path, "-q", "p(X)"], ["oracle", path], ["repl", path]):
            code, out, err = run(capsys, *argv)
            assert code == 3
            assert out == "" and err.startswith("error: ") and path in err
            assert err.count("\n") == 1

    def test_program_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.lp"
        path.write_bytes(b"p(\xff).\n")
        for argv in (["run", str(path), "-q", "p(X)"], ["check", str(path), "--universal"],
                     ["validate", str(path), "-q", "p(X)"], ["oracle", str(path)],
                     ["repl", str(path)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "")
            assert err.startswith(f"error: {path} is not UTF-8 text: ") and err.count("\n") == 1

    def test_nonpositive_bound(self, capsys):
        cases = [
            (["run", lp("nat"), "-q", "nat(0)", "--max-steps", "0"],
             "--max-steps must be positive"),
            (["validate", lp("r"), "-q", "r(X,Y)", "--rounds", "-1"],
             "--rounds must be positive"),
            (["validate", lp("r"), "-q", "r(X,Y)", "--depth", "0"],
             "--depth must be positive"),
            (["run", lp("nats"), "-q", "nats(X)", "--unfold-depth", "-1"],
             "--unfold-depth must not be negative"),
        ]
        for argv, message in cases:
            assert run(capsys, *argv) == (3, "", f"error: {message}\n")

    def test_lone_carriage_return_is_not_a_line_end(self, capsys, tmp_path):
        # The file is read as it is, so its positions are parse_program's.
        text = "p(a).\rq(b) :- p(a), s(c.\r"
        path = tmp_path / "cr.lp"
        path.write_bytes(text.encode())
        with pytest.raises(ParseError) as exc:
            parse_program(text)
        assert (exc.value.line, exc.value.column) == (1, 24)
        for argv in (["run", str(path), "-q", "p(a)"], ["check", str(path), "--universal"]):
            assert run(capsys, *argv) == (3, "", "parse error: 1:24: expected ')'\n")


class TestRepeatedMain:
    # Library callers and the benchmark call main many times in one
    # process; the parser is built by the first call only.
    CALLS = [
        ["run", lp("nats"), "-q", "nats(X)", "--trace", "text", "--max-answers", "3"],
        ["run", lp("server"), "-q", "resource(X,Y), zeros(Y)"],
        ["run", lp("nat")],
        ["--help"],
        ["check", lp("fibs"), "--universal", "--productive"],
        ["validate", lp("r"), "-q", "r(X,Y)"],
        ["run", lp("nats"), "-q", "nats(X)", "--unfold-depth", "3"],
    ]

    def test_each_call_gives_what_a_fresh_main_gives(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        in_sequence = [run(capsys, *argv) for argv in self.CALLS]
        for argv, got in zip(self.CALLS, in_sequence):
            cli.build_parser.cache_clear()
            assert got == run(capsys, *argv), argv
        codes = [code for code, _, _ in in_sequence]
        assert codes == [0, 0, 3, 0, 4, 0, 0]
        assert "usage: coresolve run" in in_sequence[2][2]
        assert in_sequence[3][1].startswith("usage: coresolve")

    def test_later_calls_build_no_parser(self, capsys, monkeypatch):
        built = 0
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            nonlocal built
            built += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        run(capsys, *self.CALLS[1])
        assert built > 0
        built = 0
        for argv in self.CALLS:
            run(capsys, *argv)
        assert built == 0


def repl(capsys, monkeypatch, name, inp):
    """``coresolve repl`` on program ``name``, reading the lines of ``inp``."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(inp))
    return run(capsys, "repl", lp(name))


class TestRepl:
    def test_query_set_and_check(self, capsys, monkeypatch):
        inp = (
            "?- nats(X).\n"
            ":set mode sld\n"
            "nats(X).\n"
            ":check productive\n"
            ":quit\n"
        )
        code, text, _ = repl(capsys, monkeypatch, "nats", inp)
        assert code == 0
        assert "X = scons(0,X)" in text
        assert "limit exceeded" in text
        assert "no rewriting loop" in text

    def test_set_rejects_out_of_range_bounds(self, capsys, monkeypatch):
        inp = (
            ":set max_answers 0\n"
            ":set max_steps -5\n"
            ":set unfold_depth -1\n"
            ":set unfold_depth 0\n"
            "nat(0).\n"
        )
        code, out, _ = repl(capsys, monkeypatch, "nat", inp)
        assert code == 0
        assert out.splitlines()[1:] == [
            "error: --max-answers must be positive",
            "error: --max-steps must be positive",
            "error: --unfold-depth must not be negative",
            "true",
        ]

    def test_check_without_a_known_check_is_a_usage_line(self, capsys, monkeypatch):
        code, out, err = repl(capsys, monkeypatch, "nat", ":check termination\n:check\n")
        assert code == 0
        assert err == ""
        assert out.splitlines()[1:] == [
            "usage: :check universal|productive",
            "universal: every body variable occurs in its head",
        ]

    def test_every_usage_line(self, capsys, monkeypatch):
        inp = ":set mode\n\n:set max_steps abc\n:set foo 1\n:set mode xyz\n:bogus\nnat(0).\n"
        code, out, err = repl(capsys, monkeypatch, "nat", inp)
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [
            "usage: :set KEY VALUE",
            "value must be an integer",
            "unknown setting foo",
            "usage: :set mode sld|s|colp|cos",
            "unknown command :bogus",
            "true",
        ]

    def test_program_read_once(self, capsys, monkeypatch):
        # r.lp has no nullary symbol, so its one warning shows each parse.
        parses = []
        monkeypatch.setattr(cli, "parse_program", lambda *a: parses.append(a) or parse_program(*a))
        inp = "nats(X)\nnats(X)\n:check productive\n:check universal\n"
        code, out, err = repl(capsys, monkeypatch, "r", inp)
        assert code == 0
        assert len(parses) == 1
        assert err == "warning: signature has no nullary symbol; ground instances are empty\n"
        assert out.splitlines()[1:3] == ["no", "no"]

    def test_each_input_as_a_fresh_run(self, capsys, monkeypatch):
        # Every input starts from the variable ids a fresh load gives, so
        # the output is what separate run and check calls print.
        inputs = ["nats(X)", ":set mode sld", "nats(Y)", ":check productive", ":set mode colp",
                  "nats(X)", ":check universal"]
        _, got, _ = repl(capsys, monkeypatch, "nats", "\n".join(inputs))
        expected = ["coresolve repl; :quit to exit"]
        for argv in (["run", lp("nats"), "-q", "nats(X)"],
                     ["run", lp("nats"), "-q", "nats(Y)", "--mode", "sld"],
                     ["check", lp("nats"), "--productive"],
                     ["run", lp("nats"), "-q", "nats(X)", "--mode", "colp"],
                     ["check", lp("nats"), "--universal"]):
            code, one, _ = run(capsys, *argv)
            expected += one.splitlines()
            if argv[0] == "run":
                expected += {1: ["no"], 2: ["limit exceeded"]}.get(code, [])
        assert got.splitlines() == expected


class TestModuleEntry:
    def test_python_m_coresolve_runs_the_command(self):
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        argv = [sys.executable, "-m", "coresolve", "run", lp("nat"), "-q", "nat(s(0))", "--mode", "sld"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "true\n", "")

