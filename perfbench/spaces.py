"""Benchmark inputs: seeded vertex relabelings of fixed triangulations.

A relabeling keeps the topology, and so every oracle, while it changes the
order of cells, the orientation of each simplex and hence the pivots the
linear algebra meets.  Documents are written in the program's public delta
complex format by code of the benchmark's own, so the inputs do not depend on
the code under test.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

Facet = Tuple[int, ...]


def shipped_facets(corpus_dir: Path, name: str) -> List[Facet]:
    """Top-dimensional cells of a shipped corpus document (pure complexes)."""
    doc = json.loads((corpus_dir / f"{name}.json").read_text(encoding="utf-8"))
    top = max(doc["cells"], key=int)
    return [tuple(cell) for cell in doc["cells"][top]]


def klein_facets(n: int) -> List[Facet]:
    """Klein bottle from an n×n grid: columns glued straight, rows with a flip."""

    def vertex(i: int, j: int) -> int:
        if i == n:
            i, j = 0, (n - j) % n
        return n * i + j % n

    facets = []
    for i in range(n):
        for j in range(n):
            a, b = vertex(i, j), vertex(i, j + 1)
            c, d = vertex(i + 1, j), vertex(i + 1, j + 1)
            facets += [(a, b, d), (a, d, c)]
    return facets


def relabel(facets: Sequence[Facet], seed: object) -> List[Facet]:
    """Apply a seeded permutation of the vertex set."""
    vertices = sorted({v for f in facets for v in f})
    image = list(vertices)
    random.Random(seed).shuffle(image)
    perm = dict(zip(vertices, image))
    return [tuple(perm[v] for v in f) for f in facets]


def delta_document(facets: Sequence[Facet], name: str) -> dict:
    """The simplicial complex generated by ``facets`` as a delta document:
    cells are sorted vertex tuples, d_i drops the i-th vertex."""
    by_dim: Dict[int, set] = {}
    for facet in facets:
        ordered = tuple(sorted(facet))
        if len(set(ordered)) != len(ordered):
            raise ValueError(f"facet {facet} repeats a vertex")
        for k in range(1, len(ordered) + 1):
            by_dim.setdefault(k - 1, set()).update(combinations(ordered, k))
    cells = {n: sorted(s) for n, s in by_dim.items()}
    index = {(n, c): i for n, cs in cells.items() for i, c in enumerate(cs)}
    faces = {
        n: [[index[(n - 1, c[:i] + c[i + 1:])] for i in range(n + 1)] if n else [] for c in cs]
        for n, cs in cells.items()
    }
    return {
        "schema": 1,
        "kind": "delta",
        "name": name,
        "truncation_dim": max(cells),
        "cells": {str(n): [list(c) for c in cells[n]] for n in sorted(cells)},
        "faces": {str(n): faces[n] for n in sorted(cells)},
    }


def write_document(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def cell_counts(doc: dict) -> Dict[str, int]:
    """Cells per dimension of a complex document."""
    return {n: len(cs) for n, cs in doc["cells"].items()}
