"""File formats: complex documents and the shipped corpus.

A complex document is a single JSON object describing either a delta-complex
(``kind: "delta"``: cells per dimension with face-index lists) or a
simplicial-set presentation (``kind: "simplicial"``: additionally degeneracy
tables, a strictness flag, and an optional basepoint).  A dimension's face
(and degeneracy) lists load as one list of index tuples, the form the
constructors keep; they check its length, its entries and the face
identities.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Union

from .simplicial import DeltaComplex, SimplicialSetPresentation

DOCUMENT_SCHEMA = 1


# ---------------------------------------------------------------------------
# Complex documents
# ---------------------------------------------------------------------------


def complex_to_document(obj: DeltaComplex) -> dict:
    doc: dict = {
        "schema": DOCUMENT_SCHEMA,
        "name": obj.name,
        "truncation_dim": obj.truncation_dim,
        "cells": {str(n): [_label_out(l) for l in obj.cells[n]] for n in sorted(obj.cells)},
        "faces": {str(n): list(map(list, obj.faces[n])) for n in sorted(obj.cells)},
    }
    if isinstance(obj, SimplicialSetPresentation):
        doc["kind"] = "simplicial"
        doc["degeneracies"] = {
            str(n): list(map(list, obj.degeneracies[n])) for n in sorted(obj.cells) if n in obj.degeneracies
        }
        doc["strict"] = obj.strict
        if obj.basepoint is not None:
            doc["basepoint"] = obj.basepoint
    else:
        doc["kind"] = "delta"
    return doc


def _label_out(label: object) -> object:
    if isinstance(label, tuple):
        return [_label_out(x) for x in label]
    return label


def _label_in(label: object) -> object:
    """JSON lists back to tuples: a list of scalars in one ``tuple()`` call,
    recursing only into nested lists."""
    if not isinstance(label, list):
        return label
    if list in map(type, label):
        return tuple(map(_label_in, label))
    return tuple(label)


def _labels_in(labels: list) -> list:
    """A dimension's labels, as ``_label_in`` gives them: when all are lists
    of scalars, one ``tuple()`` call each."""
    if set(map(type, labels)) == {list} and list not in set(map(type, chain.from_iterable(labels))):
        return list(map(tuple, labels))
    return list(map(_label_in, labels))


def document_to_complex(doc: dict) -> DeltaComplex:
    try:
        kind = doc["kind"]
        cells = {int(n): _labels_in(labels) for n, labels in doc["cells"].items()}
        faces = {int(n): list(map(tuple, per_cell)) for n, per_cell in doc["faces"].items()}
        degeneracies = {int(n): list(map(tuple, per_cell)) for n, per_cell in doc.get("degeneracies", {}).items()}
        truncation = doc.get("truncation_dim", max(cells) if cells else 0)
        name = doc.get("name", "")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed complex document: {exc}") from exc
    if type(truncation) is not int or truncation < 0:
        raise ValueError(f"malformed complex document: truncation_dim must be an integer ≥ 0, not {truncation!r}")
    if not isinstance(name, str):
        raise ValueError(f"malformed complex document: name must be a string, not {name!r}")
    if kind == "delta":
        return DeltaComplex(cells, faces, truncation, name=name)
    if kind == "simplicial":
        strict = doc.get("strict", True)
        if type(strict) is not bool:
            raise ValueError(f"malformed complex document: strict must be true or false, not {strict!r}")
        return SimplicialSetPresentation(
            cells,
            faces,
            degeneracies,
            truncation,
            name=name,
            strict=strict,
            basepoint=doc.get("basepoint"),
        )
    raise ValueError(f"unknown complex kind: {kind!r}")


def load_complex(path: Union[str, Path]) -> DeltaComplex:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return document_to_complex(doc)


def document_text(obj: DeltaComplex) -> str:
    """The text of the document ``save_complex`` writes."""
    return json.dumps(complex_to_document(obj), separators=(",", ":")) + "\n"


def save_complex(obj: DeltaComplex, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document_text(obj))


# ---------------------------------------------------------------------------
# Shipped corpus
# ---------------------------------------------------------------------------


def _corpus_dir() -> Path:
    return Path(__file__).resolve().parent / "corpus"


def corpus_names() -> list:
    return sorted(p.stem for p in _corpus_dir().glob("*.json"))


def load_corpus(name: str) -> DeltaComplex:
    path = _corpus_dir() / f"{name}.json"
    if not path.exists():
        raise ValueError(f"no corpus space named {name!r}; available: {', '.join(corpus_names())}")
    return load_complex(path)

