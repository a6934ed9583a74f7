"""The boundary and coboundary columns a face table writes.

One signed-incidence routine writes ∂ₙ grouped by column and δⁿ⁻¹ grouped by
row, each degree when first read.  Every δⁿ must equal the transpose of ∂ₙ₊₁
entry for entry and in the same order, since the field reductions meet the
entries in that order; and ∂² = 0, which the chains of all cells take from
the face identities instead of checking, must hold when an explicit check
computes it.
"""

import random
import pytest

from steenrod_kit.chains import ChainComplex
from steenrod_kit.documents import corpus_names, load_corpus
from steenrod_kit.homology import cohomology, homology
from steenrod_kit.rings import F2, F3, QQ, ZZ
from steenrod_kit.simplicial import DeltaComplex, freely_add_degeneracies

RINGS = (ZZ, QQ, F2, F3)


def _transposed(columns, size):
    """The rows of the matrix with these columns, each row's entries in
    increasing column order."""
    rows = [{} for _ in range(size)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            rows[i][j] = x
    return rows


def _relabeled(name, seed):
    """A shipped space rebuilt from its top cells after a seeded permutation
    of its vertices, which reorders the cells and the faces."""
    space = load_corpus(name)
    facets = space.cells[space.dimension]
    vertices = sorted({v for facet in facets for v in facet})
    image = list(vertices)
    random.Random(seed).shuffle(image)
    perm = dict(zip(vertices, image))
    return DeltaComplex.from_facets([[perm[v] for v in facet] for facet in facets], name=f"{name}-{seed}")


def _assert_columns_agree(cx, top):
    for n in range(-1, top + 1):
        coboundary, rows = cx.coboundary_matrix(n), _transposed(cx.boundary_matrix(n + 1), cx.rank(n))
        assert coboundary == rows and list(map(list, coboundary)) == list(map(list, rows)), n  # entries, then their order
    assert cx.check_dd_zero()


SPACES = [(name, None) for name in corpus_names()] + [
    (name, seed) for name in ("rp2", "klein", "torus", "rp4") for seed in range(3)
]


@pytest.mark.parametrize("name, seed", SPACES, ids=lambda x: "shipped" if x is None else str(x))
def test_the_coboundary_is_the_transpose_of_the_boundary(name, seed, monkeypatch):
    space = load_corpus(name) if seed is None else _relabeled(name, seed)
    read = []
    boundary_matrix = ChainComplex.boundary_matrix
    monkeypatch.setattr(ChainComplex, "boundary_matrix", lambda c, n: read.append(n) or boundary_matrix(c, n))
    for ring in RINGS:
        cx = space.chains(ring)
        for n in range(space.dimension + 1):
            cx.coboundary_matrix(n)
        assert read == [], ring  # δ comes from the faces, not from ∂
        _assert_columns_agree(cx, space.dimension)
        read.clear()


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_the_columns_of_quotients_and_presentations(ring):
    # kept subsets of cells (faces quotiented away) and repeated faces
    counterexample = load_corpus("counterexample")
    free = freely_add_degeneracies(load_corpus("rp2"), 3)
    for cx in (counterexample.chains(ring), counterexample.normalized_chains(ring),
               free.chains(ring), free.normalized_chains(ring)):
        _assert_columns_agree(cx, cx.truncation_dim)


def test_a_repeated_face_cancels():
    # one vertex and one edge with faces (0, 0): ∂e = v − v = 0, so δ⁰ = 0
    circle = DeltaComplex({0: ["v"], 1: ["e"]}, {1: [(0, 0)]}, name="loop")
    cx = circle.chains(ZZ)
    assert cx.coboundary_matrix(0) == [{}] and cx.boundary_matrix(1) == [{}]
    assert [str(cohomology(cx, n)) for n in (0, 1)] == ["Z", "Z"]
    assert [str(homology(cx, n)) for n in (0, 1)] == ["Z", "Z"]
    # a 2-cell with faces (b, a, a): the two a's cancel, over ℤ and over 𝔽₂
    cone = DeltaComplex({0: ["v", "w"], 1: ["a", "b"], 2: ["t"]}, {1: [(1, 0), (1, 1)], 2: [(1, 0, 0)]}, name="t")
    assert cone.chains(F2).coboundary_matrix(1) == [{}, {0: 1}]
    assert cone.chains(ZZ).coboundary_matrix(1) == [{}, {0: 1}]
    assert cone.chains(ZZ).boundary_matrix(2) == [{1: 1}]
