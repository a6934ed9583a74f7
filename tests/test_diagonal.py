import itertools

import pytest

from steenrod_kit import kernel
from steenrod_kit.bar import eta, twist_act
from steenrod_kit.chains import Chain, Simplex, TensorPair, chain_of, e, standard_simplex, zero_chain
from steenrod_kit.diagonal import (
    DiagonalTable,
    aw_diagonal,
    big_phi,
    chain_map_defect,
    check_prime3,
    equivariance_defect,
    naturality_defect,
    phi,
    reference_xi,
    top_diagonal_sign,
    xi_cell,
    xi_simplex,
)
from steenrod_kit.rings import F2, ZZ
from steenrod_kit.simplicial import standard_delta

# Values below were frozen from an independent by-hand evaluation of the
# recursion before the implementation existed.
ORACLE = {
    (1, 2): {
        ((0, 2), (0, 1, 2)): 1,
        ((0, 1, 2), (1, 2)): -1,
        ((0, 1, 2), (0, 1)): -1,
    },
    (2, 2): {((0, 1, 2), (0, 1, 2)): -1},
    (2, 3): {
        ((0, 1, 2, 3), (0, 2, 3)): -1,
        ((1, 2, 3), (0, 1, 2, 3)): -1,
        ((0, 1, 3), (0, 1, 2, 3)): -1,
        ((0, 1, 2, 3), (0, 1, 2)): -1,
    },
}


def test_frozen_oracle_values():
    table = DiagonalTable()
    for (n, k), want in ORACLE.items():
        assert table.raw(n, k) == want


def test_aw_diagonal_front_back():
    c = aw_diagonal(Simplex((0, 1, 2)))
    assert c.terms == {
        TensorPair(Simplex((0,)), Simplex((0, 1, 2))): 1,
        TensorPair(Simplex((0, 1)), Simplex((1, 2))): 1,
        TensorPair(Simplex((0, 1, 2)), Simplex((2,))): 1,
    }


def test_xi_levels_above_dimension_vanish():
    table = DiagonalTable()
    for k in range(4):
        assert xi_simplex(e(k + 1), standard_simplex(k), table).is_zero()


def test_phi_is_a_contracting_homotopy():
    # ∂φ_k + φ_k∂ = 1 − ι_k∘ε on every face of Δ^k
    k = 3
    for dim in range(k + 1):
        for verts in itertools.combinations(range(k + 1), dim + 1):
            face = Simplex(verts)
            coned = phi(k, face)
            lhs = zero_chain(ZZ, dim)
            for s, coeff in coned.terms.items():
                lhs = lhs + _simplex_boundary_chain(s).scale(coeff)
            if dim > 0:
                for s, coeff in _simplex_boundary_chain(face).terms.items():
                    lhs = lhs + phi(k, s).scale(coeff)
            want = chain_of(ZZ, face)
            if dim == 0:
                want = want - chain_of(ZZ, Simplex((k,)))
            assert lhs == want, f"homotopy identity fails on {face}"


def _simplex_boundary_chain(s: Simplex) -> Chain:
    terms = {}
    if s.degree == 0:
        return Chain(ZZ, -1, {})
    for i in range(s.degree + 1):
        terms[s.face(i)] = terms.get(s.face(i), 0) + (1 if i % 2 == 0 else -1)
    return Chain(ZZ, s.degree - 1, terms)


def test_big_phi_squares_to_zero():
    table = DiagonalTable()
    for k in range(1, 4):
        for n in range(k):
            c = xi_simplex(e(n), standard_simplex(k), table)
            assert big_phi(k, big_phi(k, c)).is_zero()


def test_raw_kernel_maps_agree_with_the_chain_level_maps():
    # the kernel's Φ and signed swap on raw entries against big_phi and twist_act on chains
    def as_chain(entries, degree):
        return Chain(ZZ, degree, {TensorPair(Simplex(a), Simplex(b)): c for (a, b), c in entries.items()})

    table = DiagonalTable()
    for k in range(1, 5):
        for n in range(k + 1):
            raw = table.raw(n, k)
            chain = xi_simplex(e(n), standard_simplex(k), table)
            assert as_chain(kernel.big_phi(raw, k), n + k + 1) == big_phi(k, chain)
            assert as_chain(kernel.twist(raw), n + k) == twist_act(chain)
            doubled = dict(raw)
            kernel.add_into(doubled, raw, 1)
            kernel.add_into(doubled, kernel.twist(kernel.twist(raw)), -2)
            assert doubled == {}


def test_phi_rejects_bad_faces():
    with pytest.raises(ValueError):
        phi(2, Simplex((0, 3)))
    with pytest.raises(ValueError):
        phi(3, Simplex((1, 1, 2)))
    assert phi(2, Simplex((0, 2))).is_zero()  # already ends at the cone point


def test_chain_map_and_equivariance_defects_vanish():
    table = DiagonalTable()
    for k in range(5):
        for n in range(k + 2):
            assert not chain_map_defect(n, k, table), (n, k)
            assert not equivariance_defect(n, k, table), (n, k)


def test_top_diagonal_sign_matches_eta():
    table = DiagonalTable()
    for k in range(6):
        assert top_diagonal_sign(k, table) == eta(k)


def test_prime3_identity():
    table = DiagonalTable()
    for k in range(4):
        assert check_prime3(k, table)


def test_naturality_along_injections():
    table = DiagonalTable()
    for n in range(3):
        for injection in itertools.combinations(range(6), 3):
            assert not naturality_defect(n, injection, table)
    assert not naturality_defect(2, (0, 2, 3, 5), table)
    with pytest.raises(ValueError):
        naturality_defect(1, (2, 1, 3), table)


def test_reference_xi_agrees_on_standard_vertices():
    table = DiagonalTable()
    for n in range(3):
        for k in range(4):
            assert reference_xi(n, tuple(range(k + 1))) == table.raw(n, k)


def test_xi_simplex_relabels_and_handles_repeats():
    table = DiagonalTable()
    pushed = xi_simplex(e(1), Simplex((0, 2, 5)), table)
    want = {
        TensorPair(Simplex((0, 5)), Simplex((0, 2, 5))): 1,
        TensorPair(Simplex((0, 2, 5)), Simplex((2, 5))): -1,
        TensorPair(Simplex((0, 2, 5)), Simplex((0, 2))): -1,
    }
    assert pushed.terms == want
    degenerate = xi_simplex(e(1), Simplex((0, 0, 1)), table)
    assert degenerate.terms == {
        TensorPair(Simplex((0, 1)), Simplex((0, 0, 1))): 1,
        TensorPair(Simplex((0, 0, 1)), Simplex((0, 1))): -1,
        TensorPair(Simplex((0, 0, 1)), Simplex((0, 0))): -1,
    }
    with pytest.raises(ValueError):
        xi_simplex(e(1), Simplex((1, 0)), table)


def test_twisted_generator_is_signed_swap():
    table = DiagonalTable()
    plain = xi_simplex(e(1), standard_simplex(2), table)
    twisted = xi_simplex(e(1).twisted(), standard_simplex(2), table)
    for pair, coeff in plain.terms.items():
        sign = -1 if (pair.left.degree * pair.right.degree) % 2 else 1
        assert twisted.terms[TensorPair(pair.right, pair.left)] == sign * coeff


def test_xi_cell_on_delta_complex():
    table = DiagonalTable()
    d2 = standard_delta(2)
    top = 0  # the unique 2-cell
    c = xi_cell(e(1), d2, 2, top, table, ZZ)
    # same shape as the standard value, expressed in abstract cells
    assert len(c.terms) == 3
    assert sorted(coeff for coeff in c.terms.values()) == [-1, -1, 1]
    over_f2 = xi_cell(e(1), d2, 2, top, table, F2)
    assert all(coeff == 1 for coeff in over_f2.terms.values())

