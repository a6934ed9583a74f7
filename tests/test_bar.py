from chain_oracle import bar_boundary, combine, swap
from steenrod_kit.kernel import bar_boundary_coefficients, eta, twist


def test_eta_signs():
    assert [eta(k) for k in range(7)] == [1, 1, -1, -1, 1, 1, -1]


def test_bar_boundary_squares_to_zero():
    for n in range(2, 8):
        for twisted in (False, True):
            first = bar_boundary({(twisted, n): 1})
            assert first and bar_boundary(first) == {}, f"∂∂ ≠ 0 at level {n}"


def test_bar_boundary_coefficients_shape():
    assert bar_boundary_coefficients(1) == (-1, 1)
    for n in range(2, 6):
        plain, twisted = bar_boundary_coefficients(n)
        assert plain == 1 and twisted == (1 if n % 2 == 0 else -1)
    # the kernel's coefficients are the oracle's differential on e_n
    for n in range(8):
        plain, twisted = bar_boundary_coefficients(n)
        assert bar_boundary({(False, n): 1}) == combine((plain, {(False, n - 1): 1}), (twisted, {(True, n - 1): 1}))


def test_twist_act_koszul_sign():
    c = {((0, 1), (1, 2)): 1}  # degrees 1, 1
    swapped = swap(c)
    assert swapped == {((1, 2), (0, 1)): -1}
    assert twist(c) == swapped
    # involution: T² = 1
    assert swap(swapped) == c
