"""The diagonal kernel: the equivariant diagonal recursion on raw data.

Works over ℤ: a diagonal value is a dict mapping a pair of vertex tuples
(left factor, right factor) to a nonzero integer coefficient.  This is the
only kernel; ``diagonal.DiagonalTable`` memoizes its values in process.

The recursion computes ξ(e_n ⊗ Δ^k) for the standard k-simplex:

    ξ(e₀ ⊗ −)      = the front-face ⊗ back-face coproduct,
    ξ(e_n ⊗ Δ^k)   = Φ(ξ(∂e_n ⊗ Δ^k)) + (−1)ⁿ Φ(ξ(e_n ⊗ ∂Δ^k)),
    ξ(T·A ⊗ x)     = T·ξ(A ⊗ x)                       (equivariance),
    ξ(e_i ⊗ Δ^j)   = 0 for i > j,

where Φ = φ_k⊗1 + (ι_k∘ε)⊗φ_k is assembled from the contracting cochain
φ_k([i₀..i_t]) = (−1)^{t+1}[i₀..i_t,k] (zero when i_t = k), and the value on
faces is obtained by order-preserving relabeling (naturality).

The bar resolution RS₂ has one free ℤS₂ generator e_n per degree; its
differential is pinned by the requirements that the recursion be a chain
map and that the top-diagonal sign law ξ(e_k⊗x) = η_k·x⊗x with
η_k = (−1)^{k(k−1)/2} hold:

    ∂e₀ = 0,   ∂e₁ = T·e₀ − e₀,   ∂e_n = e_{n−1} + (−1)ⁿ T·e_{n−1}  (n ≥ 2).

This is the familiar ∂e_n = (1+(−1)ⁿT)e_{n−1} resolution after the basis
change e_n ↦ −e_n for n ≥ 1 (so ∂² = 0 is inherited).
"""

from __future__ import annotations

IS_COMPILED = False  # read by benchmark provenance; there is no compiled kernel

Entries = dict  # {(left_vertices, right_vertices): int}


def eta(k: int) -> int:
    """The top-diagonal sign η_k = (−1)^{k(k−1)/2}."""
    return -1 if (k * (k - 1) // 2) % 2 else 1


def bar_boundary_coefficients(n: int) -> tuple:
    """(c₊, c_T) with ∂e_n = c₊·e_{n−1} + c_T·T·e_{n−1}; (0,0) for n = 0."""
    if n == 0:
        return (0, 0)
    if n == 1:
        return (-1, 1)
    return (1, 1 if n % 2 == 0 else -1)


def add_term(acc: dict, key: object, value: int) -> None:
    """acc[key] += value, dropping the key when the sum is zero."""
    new = acc.get(key, 0) + value
    if new:
        acc[key] = new
    else:
        acc.pop(key, None)


def add_into(acc: dict, other: dict, scalar: int) -> None:
    """acc += scalar·other, term by term."""
    for key, value in other.items():
        add_term(acc, key, scalar * value)


def twist(entries: Entries) -> Entries:
    """The signed swap T(a⊗b) = (−1)^{|a||b|} b⊗a."""
    out: Entries = {}
    for (a, b), value in entries.items():
        sign = -1 if ((len(a) - 1) * (len(b) - 1)) % 2 else 1
        add_term(out, (b, a), sign * value)
    return out


def aw(vertices: tuple) -> Entries:
    """Front-face ⊗ back-face coproduct of a simplex given by its vertices."""
    out: Entries = {}
    for i in range(len(vertices)):
        key = (vertices[: i + 1], vertices[i:])
        out[key] = out.get(key, 0) + 1
    return out


def _phi(face: tuple, top: int):
    """φ: cone a face onto the vertex ``top``; None when it already ends there."""
    if face[-1] == top:
        return None
    sign = 1 if len(face) % 2 == 0 else -1  # (−1)^{t+1}, t = len(face)−1
    return face + (top,), sign


def big_phi(entries: Entries, top: int) -> Entries:
    """Φ = φ⊗1 + (ι∘ε)⊗φ, coning onto ``top``, with the Koszul sign (the
    second summand only meets degree-0 left factors, so no extra sign
    survives there)."""
    out: Entries = {}
    for (a, b), value in entries.items():
        coned = _phi(a, top)
        if coned is not None:
            face, sign = coned
            add_term(out, (face, b), sign * value)
        if len(a) == 1:  # ι ε only survives on degree-0 left factors
            coned_b = _phi(b, top)
            if coned_b is not None:
                face, sign = coned_b
                add_term(out, ((top,), face), sign * value)
    return out


def pushforward(entries: Entries, vertices: tuple) -> Entries:
    """Relabel a standard-simplex value along i ↦ vertices[i]."""
    out: Entries = {}
    for (a, b), value in entries.items():
        key = (tuple(vertices[i] for i in a), tuple(vertices[i] for i in b))
        add_term(out, key, value)
    return out


def xi_standard(n: int, k: int, cache: dict) -> Entries:
    """ξ(e_n ⊗ Δ^k) on the standard simplex, memoized in ``cache`` by (n, k)."""
    if n > k:
        return {}
    key = (n, k)
    hit = cache.get(key)
    if hit is not None:
        return hit
    simplex = tuple(range(k + 1))
    if n == 0:
        result = aw(simplex)
    else:
        plain, twisted = bar_boundary_coefficients(n)
        lower = xi_standard(n - 1, k, cache)
        bar_part: Entries = {}
        add_into(bar_part, lower, plain)
        add_into(bar_part, twist(lower), twisted)
        result = big_phi(bar_part, k)
        face_part: Entries = {}
        sub = xi_standard(n, k - 1, cache)
        for i in range(k + 1):
            face = simplex[:i] + simplex[i + 1 :]
            sign = 1 if i % 2 == 0 else -1
            add_into(face_part, pushforward(sub, face), sign)
        add_into(result, big_phi(face_part, k), 1 if n % 2 == 0 else -1)
    cache[key] = result
    return result
