import pytest
from hypothesis import given, settings, strategies as st

from steenrod_kit.chains import Cell, ChainComplex, Simplex, render_terms, standard_simplex
from steenrod_kit.diagonal import DiagonalTable, xi_simplex
from steenrod_kit.homology import cohomology, homology
from steenrod_kit.kernel import add_into, add_term
from steenrod_kit.rings import F2, QQ, ZZ
from steenrod_kit import simplicial
from steenrod_kit.vandermonde import vandermonde_independence
from steenrod_kit.simplicial import standard_delta


def test_simplex_basics():
    s = Simplex((0, 1, 2))
    assert s.degree == 2
    assert str(s) == "[0,1,2]"
    with pytest.raises(ValueError):
        Simplex(())


def test_chain_normalization_and_algebra():
    # chains are dicts of nonzero coefficients; the kernel's sums drop what cancels
    s, t = Simplex((0, 1)), Simplex((1, 2))
    a = {(s,): 2, (t,): -1}
    total = dict(a)
    add_into(total, {(s,): -2, (t,): 1}, 1)
    assert total == {}
    scaled = {}
    add_into(scaled, a, 3)
    assert scaled == {(s,): 6, (t,): -3}
    add_term(scaled, (s,), -6)
    assert scaled == {(t,): -3}


def test_render_canonical_order():
    c = {
        (Simplex((0, 2)), Simplex((0, 1, 2))): 1,
        (Simplex((0, 1, 2)), Simplex((0, 1))): -1,
        (Simplex((0, 1, 2)), Simplex((1, 2))): -1,
    }
    # lexicographic on (left vertex list, right vertex list), ±1 as signs
    assert render_terms(c) == "-[0,1,2]⊗[0,1] - [0,1,2]⊗[1,2] + [0,2]⊗[0,1,2]"
    assert render_terms({}) == "0"
    assert render_terms({(Simplex((0,)),): 2}) == "2·[0]"
    assert render_terms({(Simplex((0,)),): -3, (Simplex((1,)),): 2}) == "-3·[0] + 2·[1]"
    # cells after simplices, by dimension, then by label
    assert render_terms({(Cell(1, "b"),): 1, (Cell(0, "z"),): -1, (Simplex((5,)),): 1}) == "[5] - <0:z> + <1:b>"


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(-3, 3)), max_size=6))
def test_chain_addition_commutes(pairs):
    terms_a = {(Simplex((v,)),): c for v, c in pairs[: len(pairs) // 2] if c}
    terms_b = {(Simplex((v,)),): c for v, c in pairs[len(pairs) // 2 :] if c}
    a_then_b, b_then_a = dict(terms_a), dict(terms_b)
    add_into(a_then_b, terms_b, 1)
    add_into(b_then_a, terms_a, 1)
    assert a_then_b == b_then_a and all(a_then_b.values())


def test_complex_dd_zero_and_boundary_matrix():
    cx = standard_delta(3).chains(ZZ)
    assert cx.check_dd_zero()
    cols = cx.boundary_matrix(1)
    assert len(cols) == cx.rank(1)
    assert all(len(col) == 2 for col in cols)


def test_a_complex_refuses_columns_that_do_not_match_its_basis():
    basis = {0: [Cell(0, "a")], 1: [Cell(1, "x"), Cell(1, "y")]}
    # a column list shorter than the basis, a missing one, and one for a degree with no basis
    for degree, columns in ((1, {0: [{}], 1: [{0: 1}]}), (0, {1: [{0: 1}, {}]}), (2, {0: [{}], 1: [{0: 1}, {}], 2: [{0: 1}]})):
        with pytest.raises(ValueError, match=f"^degree {degree} "):
            ChainComplex(QQ, basis, columns, 1, exhaustive=True)
    cx = ChainComplex(QQ, basis, {0: [{}], 1: [{0: 1}, {}], 2: []}, 1, exhaustive=True)
    assert [str(homology(cx, n)) for n in (0, 1)] == ["Q^0", "Q^1"]


def test_cell_sort_key_total_order():
    cells = [Cell(1, ("b", 2)), Cell(1, ("a", 1)), Cell(0, "z")]
    ordered = sorted(cells, key=lambda c: c.sort_key())
    assert ordered[0].dim == 0


def test_f2_chains_coerce():
    # a chain is coerced into the ring where it is read: 3 is 1 and 2 is 0 over 𝔽₂
    s = Simplex((0, 1))
    assert vandermonde_independence([{s: 3}], F2)
    with pytest.raises(ValueError, match="pairwise distinct"):
        vandermonde_independence([{s: 3}, {s: 1}], F2)
    with pytest.raises(ValueError, match="nonzero"):
        vandermonde_independence([{s: 2}], F2)
    # ξ's integer coefficients ±1 all become 1
    table = DiagonalTable()
    assert set(xi_simplex(1, standard_simplex(3), table, F2).values()) == {1}
    assert set(xi_simplex(1, standard_simplex(3), table).values()) == {1, -1}


def test_boundary_matrix_is_built_once_per_degree():
    cx = standard_delta(3).chains(F2)
    for degree in range(4):
        homology(cx, degree)
        cohomology(cx, degree)
    # the columns are the stored form: the same objects on every call
    assert cx.boundary_matrix(2) is cx.boundary_matrix(2)
    assert cx.coboundary_matrix(1) is cx.coboundary_matrix(1)
    # δ^1 is the transpose of ∂_2
    delta1 = [{} for _ in range(cx.rank(1))]
    for j, col in enumerate(cx.boundary_matrix(2)):
        for i, c in col.items():
            delta1[i][j] = c
    assert cx.coboundary_matrix(1) == delta1


def test_cells_are_built_on_the_first_chain_level_call(monkeypatch):
    space = standard_delta(3)
    built = []
    original = simplicial._basis_cell
    monkeypatch.setattr(simplicial, "_basis_cell", lambda name, n, idx: built.append((n, idx)) or original(name, n, idx))
    cx = space.chains(F2)
    for degree in range(4):
        homology(cx, degree)
        cohomology(cx, degree)
    assert built == [] and cx.degrees() == [0, 1, 2, 3] and cx.rank(2) == 4
    assert cx.basis_in(2) == [original(space.name, 2, idx) for idx in range(4)]
    assert built == [(2, idx) for idx in range(4)]
    assert cx.basis_in(2) is cx.basis_in(2) and len(built) == 4
    # the degree check runs where the basis is built
    wrong = ChainComplex(F2, lambda n: [Cell(n + 1, "x")], {0: [{}]}, 0)
    assert wrong.rank(0) == 1
    with pytest.raises(ValueError, match="listed in degree 0"):
        wrong.basis_in(0)
