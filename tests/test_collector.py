"""The bulk builders pause the cyclic garbage collector and always give it
back as they found it: on after a return or a raise, off when the caller had
turned it off, and left to the outermost of nested paused calls."""

import gc
import json
import weakref
from pathlib import Path

import pytest

from steenrod_kit import documents
from steenrod_kit.chains import Cell, ChainComplex
from steenrod_kit.documents import load_complex, load_corpus
from steenrod_kit.homology import cohomology, homology
from steenrod_kit.rings import F2, ZZ, collector_paused
from steenrod_kit.simplicial import DeltaComplex, freely_add_degeneracies

CIRCLE = DeltaComplex.from_facets([(0, 1), (1, 2), (0, 2)], name="circle")


@pytest.fixture(autouse=True)
def collector_on():
    assert gc.isenabled()
    yield
    gc.enable()  # a failing test must not leave the collector off for the rest of the run


def _corpus_path(name):
    return Path(documents.__file__).parent / "corpus" / f"{name}.json"


def _not_a_complex():
    """∂₁∂₂ ≠ 0: the 2-cell's boundary is the edge, whose boundary is a vertex."""
    basis = {d: [Cell(d, ("c", d))] for d in range(3)}
    return ChainComplex(ZZ, basis, {0: [{}], 1: [{0: 1}], 2: [{0: 1}]}, 2, exhaustive=True)


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


def test_builders_run_with_the_collector_off(monkeypatch):
    seen = []
    original = DeltaComplex.validate

    def validate(self):
        seen.append(gc.isenabled())
        original(self)

    monkeypatch.setattr(DeltaComplex, "validate", validate)
    load_complex(_corpus_path("circle"))
    DeltaComplex.from_facets([(0, 1)])
    assert seen == [False, False] and gc.isenabled()


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


def test_nested_paused_calls_leave_the_collector_to_the_outermost():
    states = []

    @collector_paused
    def outer(fail):
        states.append(gc.isenabled())
        load_complex(_corpus_path("circle"))
        homology(load_corpus("circle").chains(ZZ), 0)
        states.append(gc.isenabled())  # the inner calls did not turn it back on
        if fail:
            raise RuntimeError("outer fails")
        return "done"

    assert outer(False) == "done" and gc.isenabled()
    with pytest.raises(RuntimeError):
        outer(True)
    assert gc.isenabled() and states == [False] * 4


def test_a_space_and_its_complex_are_freed_without_the_collector():
    # the complex's lazy basis closes over the name and the kept indices, not
    # the face table, so the memoized complex and its table form no cycle
    space = DeltaComplex.from_facets([(0, 1, 2), (0, 2, 3)])
    complex_ = space.chains(F2)
    homology(complex_, 1)
    refs = weakref.ref(space), weakref.ref(complex_)
    gc.disable()
    try:
        del space, complex_
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
