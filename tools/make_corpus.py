#!/usr/bin/env python3
"""Regenerates the shipped corpus of test spaces (deterministic).

Writes JSON complex documents into src/steenrod_kit/corpus/:

* delta1 … delta5        — standard simplices
* boundary_delta3        — ∂Δ³ (a 2-sphere)
* circle                 — 3-vertex circle
* torus                  — 7-vertex torus (facets {i,i+1,i+3}, {i,i+2,i+3} mod 7)
* rp2                    — 6-vertex projective plane
* klein                  — Klein bottle from a 4×4 grid with an orientation flip
* rp4                    — RP⁴ as the antipodal quotient of the barycentric
                           subdivision of the boundary of the 5-dimensional
                           cross-polytope (121 vertices, 1920 facets; see
                           ``rpn_facets``, which builds RPⁿ for any n)
* counterexample         — a simplicial-set presentation carrying the relation
                           s₀e = s₀s₀v (not degeneracy-free; strict=false)

``--check`` regenerates every document in memory, writes nothing, and exits 1
after naming the first shipped file that differs from it byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from itertools import combinations, product
from math import factorial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from steenrod_kit.documents import complex_to_document, document_text, save_complex  # noqa: E402
from steenrod_kit.simplicial import DeltaComplex, SimplicialSetPresentation  # noqa: E402

OUT = ROOT / "src" / "steenrod_kit" / "corpus"


def torus_facets():
    out = []
    for i in range(7):
        out.append(tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))))
        out.append(tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))))
    return out


RP2_FACETS = [
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6), (1, 5, 6),
    (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5), (4, 5, 6),
]


def klein_facets(n: int = 4):
    """Triangulated n×n grid on the square, x-direction glued straight and
    y-direction glued with a flip."""

    def vertex(i: int, j: int) -> int:
        # i = row (y), j = column (x); top row wraps to the bottom reversed
        if i == n:
            i, j = 0, (n - j) % n
        j %= n
        return n * i + j

    facets = []
    for i in range(n):
        for j in range(n):
            a, b = vertex(i, j), vertex(i, j + 1)
            c, d = vertex(i + 1, j), vertex(i + 1, j + 1)
            facets.append(tuple(sorted((a, b, d))))
            facets.append(tuple(sorted((a, d, c))))
    return facets


def rpn_facets(n: int):
    """Flags of the boundary of the (n+1)-dimensional cross-polytope, modulo
    the antipodal involution: a triangulation of RPⁿ.

    A face of ∂♦ⁿ⁺¹ is a set of signed coordinates {±1e_i} with no axis used
    twice; the antipodal map negates every sign and acts freely, so the
    quotient of the barycentric subdivision (whose vertices are faces and
    whose facets are complete flags) is a simplicial complex, with
    (3ⁿ⁺¹ − 1)/2 vertices and 2ⁿ·(n+1)! facets.
    """
    axes = range(1, n + 2)
    faces = []
    for k in range(1, n + 2):
        for combo in combinations(axes, k):
            for signs in product((1, -1), repeat=k):
                faces.append(frozenset(s * a for s, a in zip(signs, combo)))

    def orbit_rep(face: frozenset) -> tuple:
        a = tuple(sorted(face))
        b = tuple(sorted(-x for x in face))
        return min(a, b)

    reps = sorted({orbit_rep(f) for f in faces}, key=lambda r: (len(r), r))
    rep_id = {r: i for i, r in enumerate(reps)}
    assert len(reps) == (3 ** (n + 1) - 1) // 2

    facets = set()

    def extend(chain, current):
        if len(chain) == n + 1:
            facets.add(tuple(sorted(rep_id[orbit_rep(c)] for c in chain)))
            return
        # grow the flag by one signed axis
        used = {abs(x) for x in current}
        for a in axes:
            if a in used:
                continue
            for s in (1, -1):
                bigger = current | {s * a}
                extend(chain + [bigger], bigger)

    for a in axes:
        for s in (1, -1):
            start = frozenset({s * a})
            extend([start], start)
    assert len(facets) == 2 ** n * factorial(n + 1)
    return sorted(facets)


def counterexample_presentation() -> SimplicialSetPresentation:
    """One vertex v, one edge e with both faces v, and the relation
    s₀e = s₀s₀v in dimension 2 (the 2-cells are q = s₀e = s₀s₀v and r = s₁e).

    The relation breaks the mixed identity d₀s₀ = id on s₀v, so the
    presentation is non-strict; all pure face identities hold.  Its core is
    {v, e}, and 𝔡(core) has three 2-cells where this presentation has two,
    so it is not degeneracy-free.
    """
    cells = {0: ["v"], 1: ["e", "s0v"], 2: ["q", "r"]}
    faces = {
        0: [()],
        1: [(0, 0), (0, 0)],
        2: [
            (0, 0, 1),  # q = s0 e: (e, e, s0v)
            (1, 0, 0),  # r = s1 e: (s0v, e, e)
        ],
    }
    degeneracies = {
        0: [(1,)],      # s0 v = s0v
        1: [
            (0, 1),     # s0 e = q, s1 e = r
            (0, 0),     # s0 s0v = s1 s0v = q   (the relation)
        ],
    }
    return SimplicialSetPresentation(
        cells, faces, degeneracies, truncation_dim=2,
        name="counterexample", strict=False, basepoint=0,
    )


def shipped_spaces() -> dict:
    """Every shipped space, by document name."""
    spaces = {}
    for k in range(1, 6):
        spaces[f"delta{k}"] = DeltaComplex.from_facets([tuple(range(k + 1))], name=f"delta{k}")
    spaces["boundary_delta3"] = DeltaComplex.from_facets(
        [c for c in combinations(range(4), 3)], name="boundary_delta3"
    )
    spaces["circle"] = DeltaComplex.from_facets([(0, 1), (1, 2), (0, 2)], name="circle")
    spaces["torus"] = DeltaComplex.from_facets(torus_facets(), name="torus")
    spaces["rp2"] = DeltaComplex.from_facets(RP2_FACETS, name="rp2")
    spaces["klein"] = DeltaComplex.from_facets(klein_facets(), name="klein")
    spaces["rp4"] = DeltaComplex.from_facets(rpn_facets(4), name="rp4")
    spaces["counterexample"] = counterexample_presentation()
    return spaces


def check(out: Path = OUT) -> int:
    """Regenerate every document in memory and compare it byte for byte
    with the file in ``out``, writing nothing: 0 when all match (and ``out``
    holds no other document), else 1 after naming the first that differs."""
    texts = {f"{name}.json": document_text(obj) for name, obj in shipped_spaces().items()}
    for name in sorted(set(texts) | {path.name for path in out.glob("*.json")}):
        path = out / name
        if name not in texts or not path.exists() or path.read_bytes() != texts[name].encode("utf-8"):
            print(f"{path} differs from the generated document", file=sys.stderr)
            return 1
    print(f"{len(texts)} documents match {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the shipped documents with regenerated ones; write nothing")
    if parser.parse_args(argv).check:
        return check()
    OUT.mkdir(parents=True, exist_ok=True)
    for name, obj in sorted(shipped_spaces().items()):
        path = OUT / f"{name}.json"
        save_complex(obj, path)
        doc = complex_to_document(obj)
        counts = {n: len(v) for n, v in doc["cells"].items()}
        print(f"{name}: {counts} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
