import json
from pathlib import Path

import pytest

from steenrod_kit import documents
from steenrod_kit.documents import (
    complex_to_document,
    corpus_names,
    document_to_complex,
    load_complex,
    load_corpus,
    save_complex,
)
from steenrod_kit.simplicial import DeltaComplex, freely_add_degeneracies, standard_delta


def test_corpus_is_complete():
    names = corpus_names()
    for expected in (
        "delta1",
        "delta2",
        "delta3",
        "delta4",
        "delta5",
        "boundary_delta3",
        "circle",
        "torus",
        "rp2",
        "rp4",
        "klein",
        "counterexample",
    ):
        assert expected in names
    with pytest.raises(ValueError):
        load_corpus("no_such_space")


def test_delta_document_roundtrip(tmp_path):
    original = load_corpus("torus")
    path = tmp_path / "torus.json"
    save_complex(original, path)
    loaded = load_complex(path)
    assert isinstance(loaded, DeltaComplex)
    assert loaded.cells == original.cells and loaded.faces == original.faces
    assert loaded.name == original.name


def test_simplicial_document_roundtrip(tmp_path):
    original = freely_add_degeneracies(standard_delta(1), 3)
    path = tmp_path / "interval.json"
    save_complex(original, path)
    loaded = load_complex(path)
    assert loaded.cells == original.cells
    assert loaded.faces == original.faces
    assert loaded.degeneracies == original.degeneracies
    assert loaded.strict == original.strict
    # tuple labels survive the JSON list encoding
    assert loaded.basis_cell(2, 0).label == original.basis_cell(2, 0).label


def test_counterexample_document_keeps_laxness():
    x = load_corpus("counterexample")
    doc = complex_to_document(x)
    again = document_to_complex(doc)
    assert not again.strict


def test_malformed_documents_raise(tmp_path):
    with pytest.raises(ValueError):
        load_complex(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        load_complex(bad)
    array = tmp_path / "array.json"
    array.write_text("[1,2]")
    with pytest.raises(ValueError):
        load_complex(array)
    with pytest.raises(ValueError):
        document_to_complex({"kind": "mystery", "cells": {}, "faces": {}})
    with pytest.raises(ValueError):
        document_to_complex({"kind": "delta"})  # missing tables


def test_corrupted_face_table_names_the_cell(tmp_path):
    doc = complex_to_document(load_corpus("circle"))
    doc["faces"]["1"][2] = [0, 9]  # face index out of range
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_complex(path)
    assert "1" in str(err.value)  # the offending dimension or cell is reported


@pytest.mark.parametrize("table", ["faces", "degeneracies"])
def test_table_longer_than_its_dimension_names_it(table, tmp_path):
    # one face list too many used to load, and homology printed H_0 = Z, H_1 = Z
    circle = load_corpus("circle")
    doc = complex_to_document(freely_add_degeneracies(circle, 2) if table == "degeneracies" else circle)
    doc[table]["1"].append(list(doc[table]["1"][0]))
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"dimension 1 has {len(doc[table]['1'])} "):
        load_complex(path)


@pytest.mark.parametrize("table", ["faces", "degeneracies"])
def test_table_shorter_than_its_dimension_names_the_cell(table):
    doc = complex_to_document(freely_add_degeneracies(load_corpus("circle"), 2))
    missing = len(doc[table]["1"]) - 1
    doc[table]["1"].pop()
    with pytest.raises(ValueError, match=rf"cell \(1,{missing}\) has no"):
        document_to_complex(doc)


def test_saving_a_shipped_document_gives_back_its_bytes(tmp_path):
    for name in corpus_names():
        path = tmp_path / f"{name}.json"
        save_complex(load_corpus(name), path)
        shipped = Path(documents.__file__).parent / "corpus" / f"{name}.json"
        assert path.read_bytes() == shipped.read_bytes(), name
