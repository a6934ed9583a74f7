"""The equivariant diagonal ξ: RS₂⊗C → C⊗C and the identities it satisfies.

The memoized table stores only untwisted standard-simplex entries
ξ(e_n⊗Δ^k) from the raw kernel (``kernel.py``).  ``xi_simplex`` and
``xi_cell`` reach every simplex and cell from them by naturality
(order-preserving relabeling for vertex-list simplices, iterated faces for
abstract cells) and return chains ``{(factor, factor): coefficient}`` over a
ring; the twisted values T·ξ are ``kernel.twist`` of the raw entries.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import kernel
from .chains import Simplex
from .kernel import bar_boundary_coefficients
from .rings import Coefficient, Ring, ZZ

RawEntries = dict  # {(left vertex tuple, right vertex tuple): int}


class DiagonalTable:
    """Memoized untwisted diagonal values ξ(e_n⊗Δ^k), keyed by (n, k).

    Entries are write-once and idempotent (identical canonical values), so
    concurrent fills are safe.  The memo lives in process only: values are
    recomputed by the kernel in every process and never read from disk.
    """

    def __init__(self) -> None:
        self.entries: Dict[Tuple[int, int], RawEntries] = {}

    def raw(self, n: int, k: int) -> RawEntries:
        return kernel.xi_standard(n, k, self.entries)


# ---------------------------------------------------------------------------
# Diagonal values as chains
# ---------------------------------------------------------------------------


def _check_level(n: int) -> None:
    if n < 0:
        raise ValueError("bar level must be nonnegative")


def xi_simplex(n: int, simplex: Simplex, table: DiagonalTable, ring: Ring = ZZ) -> Dict[tuple, Coefficient]:
    """ξ(e_n⊗σ) for a vertex-list simplex (weakly increasing labels), as a
    chain ``{(Simplex, Simplex): coefficient}`` over ``ring``.

    The simplex with k+1 vertex slots is the image of Δ^k under the
    order-preserving map sending slot i to its label; the standard value is
    pushed forward by relabeling.  Repeated labels encode degeneracies.
    """
    _check_level(n)
    v = simplex.vertices
    if any(v[i] > v[i + 1] for i in range(len(v) - 1)):
        raise ValueError(f"vertex list of {simplex} is not weakly increasing")
    entries = kernel.pushforward(table.raw(n, simplex.degree), v)
    return {(Simplex(a), Simplex(b)): y for (a, b), x in entries.items() if (y := ring.coerce(x))}


def xi_cell(n: int, space, dim: int, idx: int, table: DiagonalTable, ring: Ring) -> Dict[tuple, Coefficient]:
    """ξ(e_n⊗σ) for the abstract cell σ = (dim, idx) of any presentation-like
    object, as a chain ``{(Cell, Cell): coefficient}`` over ``ring``.

    ``space`` must provide ``iterated_face(dim, idx, keep)`` and
    ``basis_cell(dim, idx)``.  This is the colimit extension: each standard
    term [i₀..i_s]⊗[j₀..j_t] becomes (face of σ keeping i's)⊗(face keeping
    j's).  Works for delta-complexes and simplicial-set presentations.
    """
    _check_level(n)
    acc: Dict[tuple, Coefficient] = {}
    for (a, b), coeff in table.raw(n, dim).items():
        key = tuple(space.basis_cell(*space.iterated_face(dim, idx, keep)) for keep in (a, b))
        acc[key] = ring.add(acc.get(key, ring.zero), ring.coerce(coeff))
    return {key: x for key, x in acc.items() if x}


# ---------------------------------------------------------------------------
# Identities (used by the verification suite and property tests)
# ---------------------------------------------------------------------------


def _simplex_boundary(vertices: tuple) -> List[Tuple[tuple, int]]:
    return [
        (vertices[:i] + vertices[i + 1 :], 1 if i % 2 == 0 else -1)
        for i in range(len(vertices))
        if len(vertices) > 1
    ]


def _tensor_boundary(entries: RawEntries) -> RawEntries:
    out: RawEntries = {}
    for (a, b), value in entries.items():
        for face, sign in _simplex_boundary(a):
            kernel.add_term(out, (face, b), sign * value)
        left_sign = -1 if (len(a) - 1) % 2 else 1
        for face, sign in _simplex_boundary(b):
            kernel.add_term(out, (a, face), left_sign * sign * value)
    return out


def _defect(n: int, k: int, table: DiagonalTable, swap) -> RawEntries:
    """∂(S·ξ(e_n⊗Δ^k)) − S·ξ(∂e_n⊗Δ^k) − (−1)ⁿ S·ξ(e_n⊗∂Δ^k), where S is
    ``swap`` applied to each value of ξ; empty iff satisfied."""
    defect = _tensor_boundary(swap(table.raw(n, k)))
    if n > 0:
        plain, twisted = bar_boundary_coefficients(n)
        lower = table.raw(n - 1, k)
        kernel.add_into(defect, swap(lower), -plain)
        kernel.add_into(defect, swap(kernel.twist(lower)), -twisted)
    face_sign = 1 if n % 2 else -1
    for face, sign in _simplex_boundary(tuple(range(k + 1))):
        kernel.add_into(defect, swap(kernel.pushforward(table.raw(n, len(face) - 1), face)), face_sign * sign)
    return defect


def chain_map_defect(n: int, k: int, table: DiagonalTable) -> RawEntries:
    """∂ξ(e_n⊗Δ^k) − ξ(∂e_n⊗Δ^k) − (−1)ⁿ ξ(e_n⊗∂Δ^k); empty iff satisfied."""
    return _defect(n, k, table, lambda entries: entries)


def equivariance_defect(n: int, k: int, table: DiagonalTable) -> RawEntries:
    """Chain-map defect on the twisted generator T·e_n.

    The twisted value is defined by the signed swap, ξ(T·e_n⊗x) = T·ξ(e_n⊗x);
    this checks it still satisfies the chain-map identity with the twisted
    bar differential ∂(T·e_n) = T·∂e_n:

        ∂(T·ξ(e_n⊗Δ^k)) = ξ(∂(T·e_n)⊗Δ^k) + (−1)ⁿ ξ(T·e_n⊗∂Δ^k).

    Empty iff satisfied.
    """
    return _defect(n, k, table, kernel.twist)


def reference_xi(n: int, vertices: Tuple[int, ...]) -> RawEntries:
    """Independent evaluation of ξ(e_n⊗σ) running the recursion natively on an
    arbitrary strictly increasing vertex set (coning onto its own top vertex)
    instead of relabeling a standard-simplex value.  Used to verify
    naturality: this must agree with the pushforward route for every
    order-preserving injection.  Deliberately unmemoized and slow.
    """
    k = len(vertices) - 1
    if n > k:
        return {}
    top = vertices[-1]
    if n == 0:
        return kernel.aw(vertices)
    plain, twisted = bar_boundary_coefficients(n)
    lower = reference_xi(n - 1, vertices)
    bar_part: RawEntries = {}
    kernel.add_into(bar_part, lower, plain)
    kernel.add_into(bar_part, kernel.twist(lower), twisted)
    result = kernel.big_phi(bar_part, top)
    face_part: RawEntries = {}
    for face, sign in _simplex_boundary(vertices):
        kernel.add_into(face_part, reference_xi(n, face), sign)
    kernel.add_into(result, kernel.big_phi(face_part, top), -1 if n % 2 else 1)
    return result


def naturality_defect(n: int, injection: Sequence[int], table: DiagonalTable) -> RawEntries:
    """Pushforward of the standard value along an order-preserving injection
    versus the recursion run natively on the image vertex set; empty iff the
    construction is natural along that injection."""
    injection = tuple(injection)
    if any(injection[i] >= injection[i + 1] for i in range(len(injection) - 1)):
        raise ValueError("need a strictly increasing injection")
    pushed = kernel.pushforward(table.raw(n, len(injection) - 1), injection)
    direct = reference_xi(n, injection)
    defect = dict(pushed)
    kernel.add_into(defect, direct, -1)
    return defect


def top_diagonal_sign(k: int, table: DiagonalTable) -> Optional[int]:
    """The coefficient η with ξ(e_k⊗Δ^k) = η·Δ^k⊗Δ^k, or None if not of that form."""
    entries = table.raw(k, k)
    top = (tuple(range(k + 1)), tuple(range(k + 1)))
    if set(entries) != {top}:
        return None
    return entries[top]


def check_prime3(k: int, table: DiagonalTable) -> bool:
    """The arity-3 boundary identity tying the level-1 diagonal to the cyclic
    rotation: on every basis simplex σ of Δ^k,

        ∂{(1⊗Δ)Δ₂}(σ) + {(1⊗Δ)Δ₂}(∂σ) = {(1,2,3) − 1}(1⊗Δ)Δ(σ),

    where Δ = ξ(e₀⊗−), Δ₂ = ξ(e₁⊗−), and (1,2,3) is the Koszul-signed cyclic
    rotation a⊗b⊗c ↦ (−1)^{|c|(|a|+|b|)} c⊗a⊗b.
    """
    from itertools import combinations

    def diag1(vertices: tuple) -> RawEntries:
        return kernel.pushforward(table.raw(1, len(vertices) - 1), vertices)

    def one_x_diag(entries: RawEntries) -> dict:
        out: dict = {}
        for (a, b), value in entries.items():
            for (x, y), w in kernel.aw(b).items():
                kernel.add_term(out, (a, x, y), value * w)
        return out

    def triple_boundary(entries: dict) -> dict:
        out: dict = {}
        for (a, b, c), value in entries.items():
            shift = 0
            for pos, part in enumerate((a, b, c)):
                sign_shift = -1 if shift % 2 else 1
                for face, sign in _simplex_boundary(part):
                    key = tuple(face if i == pos else (a, b, c)[i] for i in range(3))
                    kernel.add_term(out, key, sign_shift * sign * value)
                shift += len(part) - 1
        return out

    def rotate(entries: dict) -> dict:
        out: dict = {}
        for (a, b, c), value in entries.items():
            sign = -1 if ((len(c) - 1) * (len(a) + len(b) - 2)) % 2 else 1
            kernel.add_term(out, (c, a, b), sign * value)
        return out

    for d in range(k + 1):
        for verts in combinations(range(k + 1), d + 1):
            lhs = triple_boundary(one_x_diag(diag1(verts)))
            for face, sign in _simplex_boundary(verts):
                kernel.add_into(lhs, one_x_diag(diag1(face)), sign)
            base = one_x_diag(kernel.aw(verts))
            rhs = rotate(base)
            kernel.add_into(rhs, base, -1)
            kernel.add_into(lhs, rhs, -1)
            if lhs:
                return False
    return True
