"""Cochains, cup-i products, and Steenrod squares on delta-complex cells.

A cochain is a vector over the basis of one degree; on the chains of all the
cells of a delta-complex (a presentation among them), index k of degree n is
the n-cell k, so cup-i reads cochain values through per-dimension face index
lists and builds no cell object.

A cup-i product is the pairing dual to the level-i diagonal:

    (u ⌣_i v)(σ) = (u⊗v)(ξ(e_i⊗σ)),

evaluated with the Koszul sign (u⊗v)(a⊗b) = (−1)^{deg v·deg a} u(a)v(b)
(signs vanish over 𝔽₂, the only ring where Steenrod squares are formed).
Cup-0 is the classical front/back cup product; over 𝔽₂ the class of
u ⌣_{p−i} u for a p-cocycle u is Sq^i[u].
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .chains import ChainComplex
from .diagonal import DiagonalTable
from .homology import cohomology
from .linalg import HomologyDescriptor
from .rings import F2, Coefficient, Ring
from .simplicial import DeltaComplex


class Cochain:
    """A linear functional on one degree of a complex, kept as its values in
    basis order: entry k is the value on the k-th basis element, a coerced
    ring element, so falsy exactly when it is zero."""

    def __init__(self, complex_: ChainComplex, degree: int, values: Dict[object, Coefficient]):
        """The functional with the given values on basis elements (missing
        entries are zero)."""
        self.complex, self.degree = complex_, degree
        ring = complex_.ring
        self._vector = [ring.zero] * complex_.rank(degree)
        for basis, coeff in values.items():
            coeff = ring.coerce(coeff)
            if ring.is_zero(coeff):
                continue
            if basis.degree != degree:
                raise ValueError(f"value on {basis} of degree {basis.degree} in a degree-{degree} cochain")
            self._vector[complex_.index_of(basis)] = coeff

    @staticmethod
    def from_vector(complex_: ChainComplex, degree: int, vector) -> "Cochain":
        return Cochain._wrap(complex_, degree, list(map(complex_.ring.coerce, vector)))

    @staticmethod
    def _wrap(complex_: ChainComplex, degree: int, vector: List[Coefficient]) -> "Cochain":
        """The cochain with this vector of ring elements, kept as it is."""
        cochain = Cochain.__new__(Cochain)
        cochain.complex, cochain.degree, cochain._vector = complex_, degree, vector
        return cochain

    @property
    def ring(self) -> Ring:
        return self.complex.ring

    @property
    def values(self) -> Dict[object, Coefficient]:
        """The nonzero values, by basis element."""
        basis, is_zero = self.complex.basis_in(self.degree), self.ring.is_zero
        return {basis[k]: x for k, x in enumerate(self._vector) if not is_zero(x)}

    def vector(self) -> List[Coefficient]:
        return list(self._vector)

    def coboundary(self) -> "Cochain":
        """(δu)(σ) = u(∂σ), summed over the columns of δ at the support of u."""
        ring, complex_ = self.ring, self.complex
        out = [ring.zero] * complex_.rank(self.degree + 1)
        for x, col in zip(self._vector, complex_.coboundary_matrix(self.degree)):
            if x:
                for k, c in col.items():
                    out[k] = ring.add(out[k], ring.mul(x, c))
        return Cochain._wrap(complex_, self.degree + 1, out)

    def is_cocycle(self) -> bool:
        return not any(self.coboundary()._vector)

    def __add__(self, other: "Cochain") -> "Cochain":
        return Cochain._wrap(self.complex, self.degree, list(map(self.ring.add, self._vector, other._vector)))

    def __str__(self) -> str:
        parts = [
            f"{coeff}·{basis}" for basis, coeff in sorted(self.values.items(), key=lambda kv: kv[0].sort_key())
        ]
        return " + ".join(parts) if parts else "0"


def cup_i(
    u: Cochain,
    v: Cochain,
    i: int,
    space: DeltaComplex,
    table: DiagonalTable,
) -> Cochain:
    """(u ⌣_i v)(σ) = (u⊗v)(ξ(e_i⊗σ)) on the cells of a delta-complex,
    a simplicial-set presentation's included: there every cell, degenerate
    or not, as the delta-complex that forgetting its degeneracies gives.

    ``u`` and ``v`` must live on ``space.chains(ring)`` (for a delta-complex
    equivalently the normalized chains of its freely-degenerate presentation,
    for a presentation its unnormalized chains), whose basis index k is cell
    k.  The terms of ξ(e_i⊗Δⁿ) in the bidegree of u⊗v are taken once, and
    each of their vertex subsets becomes the index of that face of every
    n-cell, so u and v are read by index throughout.
    Out-of-range i (negative, or exceeding min(deg u, deg v)) yields the zero
    cochain: the diagonal has no terms in the required bidegree.
    """
    if u.complex.ring != v.complex.ring:
        raise ValueError("cochains over different rings")
    ring = u.ring
    p, q = u.degree, v.degree
    n = p + q - i
    if i < 0 or n < 0:
        return Cochain(u.complex, max(n, 0), {})
    terms = [(a, b, ring.coerce(c)) for (a, b), c in table.raw(i, n).items() if len(a) == p + 1 and len(b) == q + 1]
    faces = {keep: space.face_indices(n, keep) for keep in {k for a, b, _ in terms for k in (a, b)}}
    out = [ring.zero] * space.n_cells(n)
    for a, b, c in terms:
        for k, x, y in zip(range(len(out)), map(u._vector.__getitem__, faces[a]), map(v._vector.__getitem__, faces[b])):
            if x and y:
                out[k] = ring.add(out[k], ring.mul(c, ring.mul(x, y)))
    sign = ring.coerce(-1 if (p * q) % 2 else 1)  # (−1)^{deg v·deg a} with deg a = p
    return Cochain._wrap(u.complex, n, [ring.mul(x, sign) for x in out])


def steenrod_square(
    i: int,
    u: Cochain,
    space: DeltaComplex,
    table: DiagonalTable,
    target: Optional[HomologyDescriptor] = None,
) -> tuple:
    """Sq^i of the class of a mod-2 cocycle: the class of u ⌣_{p−i} u.

    Returns (cocycle, coordinates) where coordinates express the class in the
    basis of H^{p+i} chosen by the cohomology computation (pass ``target`` to
    reuse one).  Sq^i = 0 for i > p; Sq^p is the cup square; Sq^0 is the
    identity on cohomology.
    """
    ring = u.ring
    if ring.characteristic != 2:
        raise ValueError("Steenrod squares are formed over F2")
    if not u.is_cocycle():
        raise ValueError("input cochain is not a cocycle")
    p = u.degree
    complex_ = u.complex
    if i > p:
        square = Cochain(complex_, p + i, {})
    else:
        square = cup_i(u, u, p - i, space, table)
    if target is None:
        target = cohomology(complex_, p + i)
    coords = target.coordinates(square.vector())
    return square, coords


def sq_matrix(i: int, p: int, space: DeltaComplex, table: DiagonalTable) -> List[List[Coefficient]]:
    """The matrix of Sq^i: H^p(space; 𝔽₂) → H^{p+i} (columns = images of the
    chosen basis).

    The chain complex and both cohomology groups are the ones memoized on
    ``space``, shared with every other caller."""
    complex_ = space.chains(F2)
    source = cohomology(complex_, p)
    target = cohomology(complex_, p + i)
    columns = []
    for rep in source.representatives:
        u = Cochain.from_vector(complex_, p, rep)
        _, coords = steenrod_square(i, u, space, table, target)
        columns.append(coords)
    return columns
