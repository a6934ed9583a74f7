from steenrod_kit.bar import bar_boundary, bar_boundary_coefficients, eta, twist_act
from steenrod_kit.chains import BarElement, Chain, Simplex, TensorPair
from steenrod_kit.rings import ZZ


def test_eta_signs():
    assert [eta(k) for k in range(7)] == [1, 1, -1, -1, 1, 1, -1]


def test_bar_boundary_squares_to_zero():
    for n in range(1, 8):
        for twist in (False, True):
            b = BarElement(twist, n)
            first = bar_boundary(b, ZZ)
            acc = Chain(ZZ, n - 2, {}) if n >= 2 else None
            if n == 1:
                continue
            for elt, coeff in first.terms.items():
                acc = acc + bar_boundary(elt, ZZ).scale(coeff)
            assert acc.is_zero(), f"∂∂ ≠ 0 at level {n}"


def test_bar_boundary_coefficients_shape():
    assert bar_boundary_coefficients(1) == (-1, 1)
    for n in range(2, 6):
        plain, twisted = bar_boundary_coefficients(n)
        assert plain == 1 and twisted == (1 if n % 2 == 0 else -1)


def test_twist_act_koszul_sign():
    pair = TensorPair(Simplex((0, 1)), Simplex((1, 2)))  # degrees 1, 1
    c = Chain(ZZ, 2, {pair: 1})
    swapped = twist_act(c)
    key = TensorPair(Simplex((1, 2)), Simplex((0, 1)))
    assert swapped.terms == {key: -1}
    # involution: T² = 1
    assert twist_act(swapped) == c
