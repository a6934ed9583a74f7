import itertools

import pytest

from chain_oracle import big_phi, boundary, combine, phi, swap
from steenrod_kit import kernel
from steenrod_kit.chains import Simplex, standard_simplex
from steenrod_kit.diagonal import (
    DiagonalTable,
    chain_map_defect,
    check_prime3,
    equivariance_defect,
    naturality_defect,
    reference_xi,
    top_diagonal_sign,
    xi_cell,
    xi_simplex,
)
from steenrod_kit.kernel import eta
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


def _vertices(chain):
    """A chain of Simplex pairs as the oracle's chain of vertex-tuple pairs."""
    return {(a.vertices, b.vertices): c for (a, b), c in chain.items()}


def test_aw_diagonal_front_back():
    c = xi_simplex(0, Simplex((0, 1, 2)), DiagonalTable())
    assert c == {
        (Simplex((0,)), Simplex((0, 1, 2))): 1,
        (Simplex((0, 1)), Simplex((1, 2))): 1,
        (Simplex((0, 1, 2)), Simplex((2,))): 1,
    }


def test_xi_levels_above_dimension_vanish():
    table = DiagonalTable()
    for k in range(4):
        assert xi_simplex(k + 1, standard_simplex(k), table) == {}


def test_a_negative_bar_level_is_refused():
    table = DiagonalTable()
    with pytest.raises(ValueError, match="^bar level must be nonnegative$"):
        xi_simplex(-1, standard_simplex(1), table)
    with pytest.raises(ValueError, match="^bar level must be nonnegative$"):
        xi_cell(-1, standard_delta(1), 1, 0, table, ZZ)


def test_phi_is_a_contracting_homotopy():
    # ∂φ_k + φ_k∂ = 1 − ι_k∘ε on every face of Δ^k
    k = 3
    for dim in range(k + 1):
        for face in itertools.combinations(range(k + 1), dim + 1):
            lhs = combine((1, boundary(phi(k, face))), *((c, phi(k, s)) for s, c in boundary({face: 1}).items()))
            want = {face: 1} if dim else combine((1, {face: 1}), (-1, {(k,): 1}))
            assert lhs == want, f"homotopy identity fails on {face}"


def test_big_phi_squares_to_zero():
    table = DiagonalTable()
    for k in range(1, 4):
        for n in range(k):
            c = _vertices(xi_simplex(n, standard_simplex(k), table))
            assert c and big_phi(k, big_phi(k, c)) == {}


def test_raw_kernel_maps_agree_with_the_chain_level_maps():
    # the kernel's Φ and signed swap on raw entries against the oracle's
    table = DiagonalTable()
    for k in range(1, 5):
        for n in range(k + 1):
            raw = table.raw(n, k)
            assert raw == _vertices(xi_simplex(n, standard_simplex(k), table))
            assert kernel.big_phi(raw, k) == big_phi(k, raw)
            assert kernel.twist(raw) == swap(raw)
            doubled = dict(raw)
            kernel.add_into(doubled, raw, 1)
            kernel.add_into(doubled, kernel.twist(kernel.twist(raw)), -2)
            assert doubled == {}


def test_phi_rejects_bad_faces():
    with pytest.raises(ValueError):
        phi(2, (0, 3))
    with pytest.raises(ValueError):
        phi(3, (1, 1, 2))
    assert phi(2, (0, 2)) == {}  # already ends at the cone point


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
    pushed = xi_simplex(1, Simplex((0, 2, 5)), table)
    assert pushed == {
        (Simplex((0, 5)), Simplex((0, 2, 5))): 1,
        (Simplex((0, 2, 5)), Simplex((2, 5))): -1,
        (Simplex((0, 2, 5)), Simplex((0, 2))): -1,
    }
    degenerate = xi_simplex(1, Simplex((0, 0, 1)), table)
    assert degenerate == {
        (Simplex((0, 1)), Simplex((0, 0, 1))): 1,
        (Simplex((0, 0, 1)), Simplex((0, 1))): -1,
        (Simplex((0, 0, 1)), Simplex((0, 0))): -1,
    }
    with pytest.raises(ValueError):
        xi_simplex(1, Simplex((1, 0)), table)


def test_twisted_generator_is_signed_swap():
    # ξ(T·e₁⊗Δ²) = T·ξ(e₁⊗Δ²) is the kernel's swap of the raw value
    table = DiagonalTable()
    plain = _vertices(xi_simplex(1, standard_simplex(2), table))
    twisted = kernel.twist(table.raw(1, 2))
    assert twisted == swap(plain)
    for (a, b), coeff in plain.items():
        sign = -1 if ((len(a) - 1) * (len(b) - 1)) % 2 else 1
        assert twisted[(b, a)] == sign * coeff


def test_xi_cell_on_delta_complex():
    table = DiagonalTable()
    d2 = standard_delta(2)
    top = 0  # the unique 2-cell
    c = xi_cell(1, d2, 2, top, table, ZZ)
    # same shape as the standard value, expressed in abstract cells
    assert len(c) == 3
    assert sorted(c.values()) == [-1, -1, 1]
    over_f2 = xi_cell(1, d2, 2, top, table, F2)
    assert all(coeff == 1 for coeff in over_f2.values())
