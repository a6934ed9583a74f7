import random

import pytest
from hypothesis import given, settings, strategies as st

from steenrod_kit.chains import Cell, Chain, ChainComplex, hom_differential
from steenrod_kit.diagonal import DiagonalTable
from steenrod_kit.documents import load_corpus
from steenrod_kit.dold_kan import (
    SimplicialAbelianGroup,
    _compose,
    chain_hurewicz,
    dold_kan_round_trip,
    free_simplicial_abelian,
    gamma,
    gamma_X,
    hurewicz_chain_map,
    hurewicz_square_defect,
    moore_complex,
    pointed_unnormalized_chains,
)
from steenrod_kit.homology import homology
from steenrod_kit.rings import F2, F3, F5, QQ, ZZ
from steenrod_kit.simplicial import freely_add_degeneracies, point_complex, standard_delta
from steenrod_kit.suite import _random_complex


def _interval(ring=ZZ, truncation=4):
    return freely_add_degeneracies(standard_delta(1), truncation)


def _sphere_complex(ring):
    # one generator in degrees 0 and 2, zero boundary
    basis = {0: [Cell(0, "pt")], 2: [Cell(2, "top")]}
    return ChainComplex(ring, basis, {0: [{}], 2: [{}]}, 3)


def test_validation_catches_broken_identities():
    ring = ZZ
    levels = {0: ["a"], 1: ["x"]}
    # d_0 and d_1 both send x to a; s_0 sends a to x — fine
    good = SimplicialAbelianGroup(
        ring,
        levels,
        {(1, 0): [{0: 1}], (1, 1): [{0: 1}]},
        {(0, 0): [{0: 1}]},
        1,
    )
    assert good.rank(1) == 1
    with pytest.raises(ValueError):
        SimplicialAbelianGroup(
            ring,
            levels,
            {(1, 0): [{0: 1}], (1, 1): [{0: 2}]},  # d_1 s_0 ≠ id
            {(0, 0): [{0: 1}]},
            1,
        )


def _two_vertex_group(ring, s0_of_a, d1_of_w=1):
    # vertices a, b; edges x, y, z, w with d_0 = d_1 = (a, b, b, b), except
    # that d_1 w = d1_of_w·b; s_0 a = s0_of_a and s_0 b = w
    return SimplicialAbelianGroup(
        ring,
        {0: ["a", "b"], 1: ["x", "y", "z", "w"]},
        {(1, 0): [{0: 1}, {1: 1}, {1: 1}, {1: 1}], (1, 1): [{0: 1}, {1: 1}, {1: 1}, {1: d1_of_w}]},
        {(0, 0): [s0_of_a, {3: 1}]},
        1,
        name="two-vertex",
    )


def test_validation_cancels_entries_in_the_ring():
    # d_i s_0 a = a + b + 2b: the identity holds only once b's entry 1 + 2 cancels mod 3
    s0_of_a = {0: 1, 1: 1, 2: 2}
    assert _two_vertex_group(F3, s0_of_a).rank(1) == 4
    for ring in (QQ, ZZ):
        with pytest.raises(ValueError, match="d_0 s_0"):
            _two_vertex_group(ring, s0_of_a)


@pytest.mark.parametrize("ring", [F3, QQ])
def test_validation_catches_a_factor_two(ring):
    assert _two_vertex_group(ring, {0: 1}).rank(0) == 2
    with pytest.raises(ValueError, match="d_1 s_0"):
        _two_vertex_group(ring, {0: 1}, d1_of_w=2)  # d_1 s_0 b = 2b


@st.composite
def _composable(draw):
    """(ring, k, second, first): sparse columns of a k×m and an m×n matrix
    over ℤ, ℚ or 𝔽₅, entries as ``ring.coerce`` gives them, zeros dropped."""
    ring = draw(st.sampled_from([ZZ, QQ, F5]))
    scalars = st.integers(-4, 4) if ring == ZZ else st.fractions(-4, 4, max_denominator=3)

    def columns(nrows, ncols):
        drawn = [draw(st.dictionaries(st.integers(0, nrows - 1), scalars, max_size=nrows)) for _ in range(ncols)]
        return [{r: x for r, y in col.items() if not ring.is_zero(x := ring.coerce(y))} for col in drawn]

    k, m, n = (draw(st.integers(1, 5)) for _ in range(3))
    return ring, k, columns(k, m), columns(m, n)


@settings(max_examples=80, deadline=None)
@given(_composable())
def test_compose_equals_the_dense_product(case):
    ring, k, second, first = case
    dense = lambda cols, nrows: [[col.get(r, 0) for col in cols] for r in range(nrows)]
    a, b = dense(second, k), dense(first, len(second))
    product = [[sum(a[r][t] * b[t][j] for t in range(len(second))) for j in range(len(first))] for r in range(k)]
    if ring.characteristic:
        product = [[x % ring.characteristic for x in row] for row in product]
    composed = _compose(second, first, ring)
    assert dense(composed, k) == product
    assert all(not ring.is_zero(x) for col in composed for x in col.values())


def test_gamma_level_ranks():
    g = gamma(_sphere_complex(ZZ), 3)
    # level m rank = Σ_n rank(C_n)·#{surjections [m]↠[n]}
    assert [g.rank(m) for m in range(4)] == [1, 1, 2, 4]
    assert moore_complex(g).check_dd_zero()


def test_normalized_of_gamma_recovers_the_complex():
    c = _sphere_complex(QQ)
    assert dold_kan_round_trip(c)


@pytest.mark.parametrize("ring", [ZZ, QQ, F2])
def test_round_trip_on_random_complexes(ring):
    rng = random.Random(99)
    for _ in range(12):
        c = _random_complex(rng, ring)
        assert c.check_dd_zero()
        assert dold_kan_round_trip(c)


def test_free_simplicial_abelian_ranks_and_pointed_quotient():
    x = _interval()
    free = free_simplicial_abelian(x, ZZ)
    assert [free.rank(m) for m in range(5)] == [2, 3, 4, 5, 6]
    pointed = free_simplicial_abelian(x, ZZ, pointed=True)
    # one basepoint degeneracy removed per level
    assert [pointed.rank(m) for m in range(5)] == [1, 2, 3, 4, 5]


def test_pointed_chains_equal_moore_of_pointed_free_group():
    for name in ("circle", "boundary_delta3"):
        x = freely_add_degeneracies(load_corpus(name), 3)
        for ring in (ZZ, F2):
            direct = pointed_unnormalized_chains(x, ring)
            via_moore = moore_complex(free_simplicial_abelian(x, ring, pointed=True))
            for n in range(4):
                assert direct.basis_in(n) == via_moore.basis_in(n)
                for b in direct.basis_in(n):
                    assert direct.boundary_of_basis(b) == via_moore.boundary_of_basis(b)


def test_point_has_trivial_pointed_chains():
    pt = freely_add_degeneracies(point_complex(), 3)
    cx = pointed_unnormalized_chains(pt, ZZ)
    assert all(cx.rank(n) == 0 for n in range(4))


def test_pointed_chains_compute_reduced_homology():
    x = freely_add_degeneracies(load_corpus("circle"), 3)
    cx = pointed_unnormalized_chains(x, ZZ)
    assert str(homology(cx, 0)) == "0"  # reduced: the basepoint kills H₀
    assert str(homology(cx, 1)) == "Z"
    assert str(homology(cx, 2)) == "0"


def test_gamma_x_retracts_the_hurewicz_map():
    x = freely_add_degeneracies(load_corpus("rp2"), 3)
    for ring in (ZZ, F2):
        h = chain_hurewicz(x, ring)
        g = gamma_X(x, ring)
        cx = pointed_unnormalized_chains(x, ring)
        for n in range(4):
            for b in cx.basis_in(n):
                image = h.on_basis(b)
                back = None
                for cell, coeff in image.terms.items():
                    term = g.on_basis(cell).scale(coeff)
                    back = term if back is None else back + term
                assert back == Chain(ring, n, {b: ring.one})


def test_hurewicz_maps_are_chain_maps():
    for name in ("circle", "boundary_delta3"):
        x = freely_add_degeneracies(load_corpus(name), 3)
        for ring in (ZZ, F2):
            h = chain_hurewicz(x, ring)
            assert hom_differential(h).is_zero_on(range(4))
            nh = hurewicz_chain_map(x, ring)
            assert hom_differential(nh).is_zero_on(range(4))


def test_hurewicz_square_defect_vanishes():
    table = DiagonalTable()
    for name in ("circle", "rp2"):
        x = freely_add_degeneracies(load_corpus(name), 3)
        for ring in (ZZ, F2):
            for level in range(2):
                for n in range(3):
                    for idx in range(x.n_cells(n)):
                        defect = hurewicz_square_defect(x, ring, table, level, n, idx)
                        assert defect.is_zero(), (name, level, n, idx)


def test_gamma_rejects_negative_grading():
    c = ChainComplex(ZZ, {-1: [Cell(-1, "aug")]}, {-1: [{}]}, 2)
    with pytest.raises(ValueError):
        gamma(c, 2)


def test_free_simplicial_abelian_is_built_once_per_presentation():
    x = _interval()
    pointed = free_simplicial_abelian(x, ZZ, pointed=True)
    assert free_simplicial_abelian(x, ZZ, pointed=True) is pointed
    assert free_simplicial_abelian(x, ZZ) is not pointed
    assert free_simplicial_abelian(x, F2, pointed=True) is not pointed
    # an equal presentation built separately keeps its own groups
    assert free_simplicial_abelian(_interval(), ZZ, pointed=True) is not pointed


def test_hurewicz_square_validates_each_free_group_once(monkeypatch):
    validated = []
    original = SimplicialAbelianGroup.validate

    def counting(self):
        validated.append(self.name)
        original(self)

    monkeypatch.setattr(SimplicialAbelianGroup, "validate", counting)
    table = DiagonalTable()
    for name in ("circle", "rp2"):
        x = freely_add_degeneracies(load_corpus(name), 3)
        for level in range(3):
            for n in sorted(x.cells):
                for idx in range(x.n_cells(n)):
                    assert hurewicz_square_defect(x, ZZ, table, level, n, idx).is_zero()
    assert sorted(validated) == ["R~(d(circle))", "R~(d(rp2))"]
