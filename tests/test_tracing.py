"""The bench's per-layer mode still sees the engine's rules.

``bench/tracing.py`` wraps each traced function at the module globals that
refer to it, so a rule the search no longer reaches through such a global
would read zero in every per-layer row without any error.  This loads the
bench's tracer as it is, runs every mode through the command line with it
installed, and checks that each rule and loop check was called, and that
uninstalling puts every original function back.
"""

import contextlib
import importlib
import importlib.util
import io
import itertools
import sys
from pathlib import Path

from conftest import PROGRAMS
from coresolve.cli import main

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
MODES = ("sld", "s", "colp", "cos")
# An open stream is only ever produced, and closes its loops; an atom with
# a given first element is rewritten too.
QUERIES = ("nats(X)", "nats(scons(s(0),X))")
CALLED = (
    "derivation.sld_step", "derivation.rewrite_step", "derivation.s_compound",
    "coengine.co_rewrite", "coengine.co_s_compound", "coengine.colp_loop",
    "coengine.restricted_loop",
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_globals(originals) -> dict:
    """Each module global of the package that refers to one of ``originals``."""
    return {
        (module_name, key): value
        for module_name, module in list(sys.modules.items())
        if module_name == "coresolve" or module_name.startswith("coresolve.")
        for key, value in vars(module).items()
        if any(value is original for original in originals)
    }


def test_every_mode_reaches_its_traced_rules():
    tracing = load_tracing()
    originals = [
        getattr(importlib.import_module("coresolve." + module), name)
        for module, name in tracing.TRACED
    ]
    before = traced_globals(originals)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for k, (mode, query) in enumerate(itertools.product(MODES, QUERIES)):
            argv = ["run", str(PROGRAMS / "nats.lp"), "-q", query, "--mode", mode,
                    "--max-steps", "200"]
            tracer.begin(k)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                main(argv)
            tracer.end(mode)
    finally:
        tracer.uninstall()
    assert {name: tracer.calls[name] for name in CALLED if not tracer.calls[name]} == {}
    assert tracer.counts["loop.max_ancestors"] > 0
    assert traced_globals(originals) == before
