"""Steenrod's cup-i coproduct, kept as a test oracle that shares no code
with the package (Steenrod, "Products of cocycles and extensions of
mappings", Ann. Math. 1947; Medina-Mardones, "New formulas for cup-i
products and fast computation of Steenrod squares", arXiv:2105.08025).

Over 𝔽₂ the level-j diagonal of the standard n-simplex is

    Δⱼ[n] = Σ_U d_{U⁰}[n] ⊗ d_{U¹}[n],

with U running over the subsets {u₁ < … < u_{n−j}} of {0, …, n}, U⁰ the
u_k with u_k ≡ k mod 2 (k counted from 1), U¹ the rest of U, and d_V the
face that deletes the vertices in V.  A term is written as the pair of the
vertex tuples its two factors keep.  U is U⁰ ∪ U¹, so distinct subsets give
distinct terms and every coefficient is 1.

Against the package's ξ (``DiagonalTable().raw(j, n)``) the terms agree
with the odd-coefficient support, with the two factors swapped when j is
even and positive.
"""

from __future__ import annotations

from itertools import combinations
from typing import Set, Tuple

Term = Tuple[Tuple[int, ...], Tuple[int, ...]]


def delta(j: int, n: int) -> Set[Term]:
    """The terms of Δⱼ[n] as (left kept vertices, right kept vertices)."""
    vertices = range(n + 1)
    terms = set()
    for subset in combinations(vertices, n - j):
        u0 = {u for k, u in enumerate(subset, 1) if (u - k) % 2 == 0}
        u1 = set(subset) - u0
        left = tuple(v for v in vertices if v not in u0)
        right = tuple(v for v in vertices if v not in u1)
        terms.add((left, right))
    return terms
