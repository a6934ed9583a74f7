"""The normalized bar resolution of S₂, symmetric-group utilities and block
composition.

The resolution has one free ℤS₂ generator e_n per degree; its differential is
pinned by the requirements that the diagonal recursion be a chain map and
that the top-diagonal sign law ξ(e_k⊗x) = η_k·x⊗x with η_k = (−1)^{k(k−1)/2}
hold:

    ∂e₀ = 0,   ∂e₁ = T·e₀ − e₀,   ∂e_n = e_{n−1} + (−1)ⁿ T·e_{n−1}  (n ≥ 2).

This is the familiar ∂e_n = (1+(−1)ⁿT)e_{n−1} resolution after the basis
change e_n ↦ −e_n for n ≥ 1 (so ∂² = 0 is inherited).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

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


# ---------------------------------------------------------------------------
# Permutations and block composition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1,…,n}, stored as the image tuple (images[i−1] = σ(i))."""

    images: Tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self ∘ other."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Permutation(tuple(self(other(i)) for i in range(1, self.size + 1)))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def transposition(n: int, a: int, b: int) -> "Permutation":
        images = list(range(1, n + 1))
        images[a - 1], images[b - 1] = b, a
        return Permutation(tuple(images))


def block_permutation(sigma: Permutation, sizes: Sequence[int]) -> Permutation:
    """The permutation of Σα_i letters moving the i-th block (size α_i) to
    where σ sends position i, keeping each block's internal order."""
    n = sigma.size
    if len(sizes) != n:
        raise ValueError("need one block size per permuted position")
    starts = [0] * n
    acc = 0
    for i in range(n):
        starts[i] = acc
        acc += sizes[i]
    total = acc
    # target position of block i: after all blocks j with σ(j) < σ(i)
    target_starts = [0] * n
    order = sorted(range(n), key=lambda i: sigma(i + 1))
    acc = 0
    for i in order:
        target_starts[i] = acc
        acc += sizes[i]
    images = [0] * total
    for i in range(n):
        for offset in range(sizes[i]):
            images[starts[i] + offset] = target_starts[i] + offset + 1
    return Permutation(tuple(images))


def block_compose(sigma: Permutation, thetas: Sequence[Permutation]) -> Permutation:
    """Operadic composition in the permutation operad:
    T_{α₁,…,α_n}(σ) ∘ (θ₁ ⊕ ⋯ ⊕ θ_n)."""
    sizes = [t.size for t in thetas]
    block = block_permutation(sigma, sizes)
    starts = [0] * len(sizes)
    acc = 0
    for i, s in enumerate(sizes):
        starts[i] = acc
        acc += s
    direct_sum_images: List[int] = []
    for i, theta in enumerate(thetas):
        direct_sum_images.extend(starts[i] + theta(j) for j in range(1, theta.size + 1))
    direct_sum = Permutation(tuple(direct_sum_images))
    return block.compose(direct_sum)
