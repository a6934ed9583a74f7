import random

import pytest

from steenrod_kit.chains import Simplex
from steenrod_kit.cochains import Cochain, cup_i, sq_matrix, steenrod_square
from steenrod_kit.diagonal import DiagonalTable, xi_simplex
from steenrod_kit.documents import load_corpus
from steenrod_kit.homology import cohomology
from steenrod_kit.rings import F2, ZZ
from steenrod_kit.simplicial import DeltaComplex, freely_add_degeneracies, standard_delta


def _all_ones(complex_, degree):
    return Cochain(complex_, degree, {b: 1 for b in complex_.basis_in(degree)})


def test_coboundary_squares_to_zero():
    cx = load_corpus("rp2").chains(F2)
    for degree in range(2):
        u = _all_ones(cx, degree)
        assert not u.coboundary().coboundary().values


def test_cochain_evaluation_and_vector_roundtrip():
    cx = standard_delta(2).chains(ZZ)
    u = _all_ones(cx, 1)
    assert Cochain.from_vector(cx, 1, u.vector()).values == u.values
    with pytest.raises(ValueError):
        Cochain(cx, 0, {next(iter(cx.basis_in(1))): 1})


def test_cup_i_bidegree_and_out_of_range():
    space = load_corpus("rp2")
    cx = space.chains(F2)
    table = DiagonalTable()
    u = _all_ones(cx, 1)
    assert cup_i(u, u, 0, space, table).degree == 2
    assert cup_i(u, u, 1, space, table).degree == 1
    assert not cup_i(u, u, 3, space, table).values  # i exceeds both degrees
    assert not cup_i(u, u, -1, space, table).values


def test_cup_zero_is_a_cocycle_operation():
    # on cocycles, the cup-0 product is again a cocycle
    space = load_corpus("torus")
    cx = space.chains(F2)
    table = DiagonalTable()
    h1 = cohomology(cx, 1)
    reps = [Cochain.from_vector(cx, 1, r) for r in h1.representatives]
    for u in reps:
        assert u.is_cocycle()
        for v in reps:
            assert cup_i(u, v, 0, space, table).is_cocycle()


def test_sq_requires_f2_and_cocycles():
    space = load_corpus("rp2")
    table = DiagonalTable()
    with pytest.raises(ValueError):
        steenrod_square(1, _all_ones(space.chains(ZZ), 1), space, table)
    cx = space.chains(F2)
    not_cocycle = Cochain(cx, 1, {next(iter(cx.basis_in(1))): 1})
    with pytest.raises(ValueError):
        steenrod_square(1, not_cocycle, space, table)


def test_sq0_is_the_identity():
    table = DiagonalTable()
    for name in ("rp2", "torus", "klein", "circle"):
        space = load_corpus(name)
        cx = space.chains(F2)
        for p in range(3):
            rank = cohomology(cx, p).free_rank
            columns = sq_matrix(0, p, space, table)
            identity = [[1 if i == j else 0 for i in range(rank)] for j in range(rank)]
            assert columns == identity, (name, p)


def test_sq1_on_rp2_is_the_bockstein():
    table = DiagonalTable()
    space = load_corpus("rp2")
    # Sq¹: H¹ → H² is an isomorphism on the projective plane
    assert sq_matrix(1, 1, space, table) == [[1]]
    # the cup square of the generator: Sq¹ = cup-0 square in top degree
    cx = space.chains(F2)
    u = Cochain.from_vector(cx, 1, cohomology(cx, 1).representatives[0])
    square, coords = steenrod_square(1, u, space, table)
    assert coords == [1] and square.values


def test_sq_above_degree_vanishes():
    table = DiagonalTable()
    space = load_corpus("rp2")
    cx = space.chains(F2)
    u = Cochain.from_vector(cx, 1, cohomology(cx, 1).representatives[0])
    square, coords = steenrod_square(2, u, space, table)
    assert not square.values and all(c == 0 for c in coords)


def test_sq1_on_torus_vanishes():
    table = DiagonalTable()
    space = load_corpus("torus")
    assert sq_matrix(1, 1, space, table) == [[0], [0]]


def test_klein_bottle_sq1():
    table = DiagonalTable()
    space = load_corpus("klein")
    columns = sq_matrix(1, 1, space, table)
    # the Bockstein H¹ → H² is onto for the Klein bottle (w₁² ≠ 0)
    assert len(columns) == 2 and any(col == [1] for col in columns)


def _facets(name, seed):
    """The top simplices of a corpus surface, after a seeded permutation of
    its vertices unless ``seed`` is None."""
    facets = load_corpus(name).cells[2]
    if seed is None:
        return facets
    vertices = sorted({v for facet in facets for v in facet})
    image = list(vertices)
    random.Random(seed).shuffle(image)
    perm = dict(zip(vertices, image))
    return [[perm[v] for v in facet] for facet in facets]


@pytest.mark.parametrize("name, truncation", [("counterexample", None), ("rp2", 3), ("rp2", 4)])
def test_sq_on_a_presentation_is_sq_on_the_delta_complex_of_its_cells(name, truncation):
    # the oracle copies the cells and face tables into a delta-complex, the
    # Δ-set that forgetting the degeneracies gives; the presentation itself
    # must give the same squares for every p + i its truncation determines
    x = load_corpus(name) if truncation is None else freely_add_degeneracies(load_corpus(name), truncation)
    forgotten = DeltaComplex(x.cells, x.faces, x.truncation_dim)
    table, top = DiagonalTable(), x.truncation_dim - 1
    squares = {(i, p): sq_matrix(i, p, x, table) for p in range(top + 1) for i in range(top - p + 1)}
    assert squares == {(i, p): sq_matrix(i, p, forgotten, table) for i, p in squares}
    if truncation:
        assert squares[1, 1] == [[1]]  # Sq¹ = β ≠ 0 on H¹(RP²): the comparison is not of zeros only


@pytest.mark.parametrize("ring", [F2, ZZ], ids=str)
@pytest.mark.parametrize("name", ["torus", "rp2", "klein"])
def test_cup_i_equals_the_diagonal_of_each_simplex(name, ring):
    """(u ⌣_i v)(σ) against (u⊗v)(ξ(e_i⊗σ)) on the vertex list of σ: each
    term's simplices are found by their labels, so no face table is read."""
    table = DiagonalTable()
    for seed in (None, 0, 1):
        space = DeltaComplex.from_facets(_facets(name, seed), name=name)
        cx = space.chains(ring)
        # labels are sorted vertex tuples, so their lengths tell dimensions apart
        position = {label: k for labels in space.cells.values() for k, label in enumerate(labels)}
        rng = random.Random(f"{name}/{seed}")
        cochains = {d: [rng.randint(-2, 2) for _ in range(space.n_cells(d))] for d in range(3)}
        for p in range(3):
            for q in range(3):
                u = Cochain.from_vector(cx, p, cochains[p])
                v = Cochain.from_vector(cx, q, cochains[q][::-1])  # v differs from u when p = q
                u_at, v_at = u.vector(), v.vector()
                for i in range(min(3, p + q + 1)):
                    n = p + q - i
                    want = []
                    for label in space.cells.get(n, []):
                        total = 0
                        for (left, right), c in xi_simplex(i, Simplex(label), table, ring).items():
                            a, b = left.vertices, right.vertices
                            if len(a) == p + 1 and len(b) == q + 1:
                                sign = -1 if p * q % 2 else 1  # (−1)^{deg v·deg a}
                                total += sign * c * u_at[position[a]] * v_at[position[b]]
                        want.append(ring.coerce(total))
                    assert cup_i(u, v, i, space, table).vector() == want, (seed, p, q, i)
