"""``cli.main`` pauses the cyclic garbage collector for the command it runs
and gives it back as it found it: on after every exit code, off when the
caller had turned it off.  The library functions leave it alone."""

import ast
import gc
import json
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from steenrod_kit import cli, documents
from steenrod_kit.chains import Cell, ChainComplex
from steenrod_kit.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, main
from steenrod_kit.documents import load_complex, load_corpus
from steenrod_kit.homology import cohomology, homology
from steenrod_kit.rings import F2, ZZ
from steenrod_kit.simplicial import DeltaComplex, freely_add_degeneracies

CIRCLE = DeltaComplex.from_facets([(0, 1), (1, 2), (0, 2)], name="circle")
PACKAGE = Path(documents.__file__).parent


@pytest.fixture(autouse=True)
def collector_on():
    assert gc.isenabled()
    yield
    gc.enable()  # a failing test must not leave the collector off for the rest of the run


def _corpus_path(name):
    return PACKAGE / "corpus" / f"{name}.json"


def _not_a_complex():
    """∂₁∂₂ ≠ 0: the 2-cell's boundary is the edge, whose boundary is a vertex."""
    basis = {d: [Cell(d, ("c", d))] for d in range(3)}
    return ChainComplex(ZZ, basis, {0: [{}], 1: [{0: 1}], 2: [{0: 1}]}, 2, exhaustive=True)


def _failing(args):
    raise RuntimeError("a fault of the program")


# how main ends with each exit code: (argv, handler to put in place of _cmd_info or None)
EXITS = {
    EXIT_OK: (["info", "--input", str(_corpus_path("circle"))], None),
    EXIT_INPUT: (["info", "--input", str(_corpus_path("no-such-space"))], None),
    EXIT_INTERNAL: (["info", "--input", str(_corpus_path("circle"))], _failing),
}


def test_a_handler_runs_with_the_collector_off(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "_cmd_info", lambda args: seen.append(gc.isenabled()) or EXIT_OK)
    assert main(["info"]) == EXIT_OK
    assert seen == [False] and gc.isenabled()


@pytest.mark.parametrize("code", sorted(EXITS))
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_gives_the_collector_back_as_it_found_it(code, enabled, monkeypatch, capsys):
    argv, handler = EXITS[code]
    if handler is not None:
        monkeypatch.setattr(cli, "_cmd_info", handler)
    if not enabled:
        gc.disable()
    assert main(argv) == code
    assert gc.isenabled() == enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_an_argument_error_gives_the_collector_back(enabled, capsys):
    if not enabled:
        gc.disable()
    with pytest.raises(SystemExit):
        main(["sq", "--no-such-option"])
    assert gc.isenabled() == enabled


def test_a_command_starts_no_collection(capsys):
    starts = []

    def on_gc(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    re.purge()  # every pattern is compiled anew, as in a fresh process
    gc.callbacks.append(on_gc)
    try:
        assert main(["sq", "--input", str(_corpus_path("rp2"))]) == EXIT_OK
    finally:
        gc.callbacks.remove(on_gc)
    assert starts == []


# the collections that start while cli.main runs in a fresh process: the first allocation after
# it returns may start one, since the pause leaves the youngest generation over its threshold
COLLECTIONS_IN_MAIN = """
import gc, json, sys
sys.path.insert(0, sys.argv[1])
import steenrod_kit.cli as cli

def in_main(frame):
    while frame is not None and frame.f_code is not cli.main.__code__:
        frame = frame.f_back
    return frame is not None

def on_gc(phase, info):
    if phase == "start" and in_main(sys._getframe()):
        starts.append(info["generation"])

starts = []
gc.callbacks.append(on_gc)
try:
    code = cli.main(sys.argv[2:])
except SystemExit as stop:
    code = stop.code
print(json.dumps([code, starts]))
"""


def test_an_argument_error_starts_no_collection():
    # argparse parses an argument error: importing it and building its parser and patterns
    # allocate several thresholds' worth of containers, all inside the pause
    argv = ["sq", "--input", "x", "--no-such-option"]
    run = subprocess.run([sys.executable, "-S", "-c", COLLECTIONS_IN_MAIN, str(PACKAGE.parent), *argv],
                         capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(run.stdout) == [EXIT_INPUT, []]
    assert run.stderr.splitlines()[-1] == "steenrod-kit: error: unrecognized arguments: --no-such-option"


BUILDERS = {
    "load_complex": lambda: load_complex(_corpus_path("rp2")),
    "chains_from_faces": lambda: CIRCLE.chains_from_faces(F2, lambda n: range(CIRCLE.n_cells(n))),
    "homology": lambda: homology(load_corpus("torus").chains(ZZ), 1),
    "cohomology": lambda: cohomology(load_corpus("rp2").chains(F2), 1),
    "from_facets": lambda: DeltaComplex.from_facets([(0, 1, 2), (1, 2, 3)]),
    "freely_add_degeneracies": lambda: freely_add_degeneracies(CIRCLE, 3),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_collector_is_on_after_a_return(name):
    assert BUILDERS[name]() is not None
    assert gc.isenabled()


@pytest.mark.parametrize("text, message", [
    ("{\"kind\": \"delta\", ", "not valid JSON"),
    (json.dumps({"kind": "delta", "cells": {"0": ["a", "b"], "1": ["e"]}, "faces": {"0": [[], []]}}), "face list"),
])
def test_collector_is_on_after_a_load_raises(text, message, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_complex(path)
    assert gc.isenabled()


@pytest.mark.parametrize("group", [homology, cohomology])
def test_collector_is_on_after_a_failed_boundary_check(group):
    with pytest.raises(ArithmeticError, match="∂²≠0"):
        group(_not_a_complex(), 1)
    assert gc.isenabled()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_a_caller_that_turned_the_collector_off_keeps_it_off(name):
    gc.disable()
    try:
        BUILDERS[name]()
        assert not gc.isenabled()
        with pytest.raises(ArithmeticError):
            homology(_not_a_complex(), 1)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_only_the_command_line_module_imports_gc():
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if "gc" in names or (isinstance(node, ast.ImportFrom) and node.module == "gc"):
                importers.add(path.name)
    assert importers == {"cli.py"}


def test_a_space_and_its_complex_are_freed_without_the_collector():
    # the complex's lazy basis closes over the name and the kept indices, not
    # the face table, so the memoized complex and its table form no cycle;
    # a loaded presentation memoizes its chains on itself in the same way
    for make in (lambda: DeltaComplex.from_facets([(0, 1, 2), (0, 2, 3)]), lambda: load_corpus("counterexample")):
        space = make()
        complex_ = space.chains(F2)
        assert space.chains(F2) is complex_
        homology(complex_, 1)
        cohomology(complex_, 1)
        refs = weakref.ref(space), weakref.ref(complex_)
        gc.disable()
        try:
            del space, complex_
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
