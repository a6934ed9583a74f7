"""The normalized bar resolution of S₂ and the signed swap T on C⊗C.

The resolution has one free ℤS₂ generator e_n per degree; its differential is
pinned by the requirements that the diagonal recursion be a chain map and
that the top-diagonal sign law ξ(e_k⊗x) = η_k·x⊗x with η_k = (−1)^{k(k−1)/2}
hold:

    ∂e₀ = 0,   ∂e₁ = T·e₀ − e₀,   ∂e_n = e_{n−1} + (−1)ⁿ T·e_{n−1}  (n ≥ 2).

This is the familiar ∂e_n = (1+(−1)ⁿT)e_{n−1} resolution after the basis
change e_n ↦ −e_n for n ≥ 1 (so ∂² = 0 is inherited).
"""

from __future__ import annotations

from typing import Tuple

from .chains import BarElement, BasisElement, Chain, TensorPair, e
from .rings import Coefficient, Ring


def eta(k: int) -> int:
    """The top-diagonal sign η_k = (−1)^{k(k−1)/2}."""
    return -1 if (k * (k - 1) // 2) % 2 else 1


def bar_boundary_coefficients(n: int) -> Tuple[int, int]:
    """(c₊, c_T) with ∂e_n = c₊·e_{n−1} + c_T·T·e_{n−1}; (0,0) for n = 0."""
    if n == 0:
        return (0, 0)
    if n == 1:
        return (-1, 1)
    return (1, 1 if n % 2 == 0 else -1)


def bar_boundary(b: BarElement, ring: Ring) -> Chain:
    """∂ on RS₂, extended T-equivariantly: ∂(T·e_n) = T·∂e_n."""
    plain, twisted = bar_boundary_coefficients(b.level)
    if plain == 0 and twisted == 0:
        return Chain(ring, b.level - 1, {})
    below = BarElement(False, b.level - 1)
    below_t = BarElement(True, b.level - 1)
    if b.twist:
        # T acts by swapping the two basis vectors (T² = 1)
        terms = {below_t: plain, below: twisted}
    else:
        terms = {below: plain, below_t: twisted}
    return Chain(ring, b.level - 1, terms)


def twist_act(c: Chain) -> Chain:
    """The signed swap T(a⊗b) = (−1)^{deg a·deg b} b⊗a on chains in C⊗C."""

    def swap(basis: BasisElement, coeff: Coefficient):
        if not isinstance(basis, TensorPair):
            raise ValueError(f"twist_act needs tensor-pair terms, got {basis}")
        sign = -1 if (basis.left.degree * basis.right.degree) % 2 else 1
        yield TensorPair(basis.right, basis.left), c.ring.mul(coeff, c.ring.coerce(sign))

    return c.map_terms(swap, c.degree)
