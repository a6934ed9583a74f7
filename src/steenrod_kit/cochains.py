"""Cochains, cup-i products, and Steenrod squares on delta-complex cells.

A cup-i product is the pairing dual to the level-i diagonal:

    (u ⌣_i v)(σ) = (u⊗v)(ξ(e_i⊗σ)),

evaluated with the Koszul sign (u⊗v)(a⊗b) = (−1)^{deg v·deg a} u(a)v(b)
(signs vanish over 𝔽₂, the only ring where Steenrod squares are formed).
Cup-0 is the classical front/back cup product; over 𝔽₂ the class of
u ⌣_{p−i} u for a p-cocycle u is Sq^i[u].
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .chains import Cell, Chain, ChainComplex
from .diagonal import DiagonalTable
from .homology import cohomology, vector_from_chain
from .linalg import HomologyDescriptor
from .rings import Coefficient, Ring
from .simplicial import DeltaComplex


class Cochain:
    """A linear functional on one degree of a complex, given by its values on
    basis elements (missing entries are zero)."""

    def __init__(self, complex_: ChainComplex, degree: int, values: Dict[object, Coefficient]):
        self.complex = complex_
        self.degree = degree
        ring = complex_.ring
        self.values = {}
        for basis, coeff in values.items():
            coeff = ring.coerce(coeff)
            if ring.is_zero(coeff):
                continue
            if basis.degree != degree:
                raise ValueError(f"value on {basis} of degree {basis.degree} in a degree-{degree} cochain")
            self.values[basis] = coeff

    @property
    def ring(self) -> Ring:
        return self.complex.ring

    def evaluate(self, chain: Chain) -> Coefficient:
        ring = self.ring
        total = ring.zero
        for basis, coeff in chain.terms.items():
            value = self.values.get(basis)
            if value is not None:
                total = ring.add(total, ring.mul(coeff, value))
        return total

    def coboundary(self) -> "Cochain":
        """(δu)(σ) = u(∂σ), summed over the columns of δ at the support of u."""
        ring, complex_ = self.ring, self.complex
        upper = complex_.basis_in(self.degree + 1)
        values: Dict[object, Coefficient] = {}
        for x, col in zip(self.vector(), complex_.coboundary_matrix(self.degree)):
            if not ring.is_zero(x):
                for k, c in col.items():
                    values[upper[k]] = ring.add(values.get(upper[k], ring.zero), ring.mul(x, c))
        return Cochain(complex_, self.degree + 1, values)

    def is_cocycle(self) -> bool:
        return not self.coboundary().values

    def __add__(self, other: "Cochain") -> "Cochain":
        ring = self.ring
        values = dict(self.values)
        for basis, coeff in other.values.items():
            values[basis] = ring.add(values.get(basis, ring.zero), coeff)
        return Cochain(self.complex, self.degree, values)

    def vector(self) -> List[Coefficient]:
        ring = self.ring
        return [self.values.get(b, ring.zero) for b in self.complex.basis_in(self.degree)]

    @staticmethod
    def from_vector(complex_: ChainComplex, degree: int, vector) -> "Cochain":
        return Cochain(
            complex_, degree, dict(zip(complex_.basis_in(degree), vector))
        )

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
    """(u ⌣_i v)(σ) = (u⊗v)(ξ(e_i⊗σ)) on the cells of a delta-complex.

    ``u`` and ``v`` must live on ``space.chains(ring)`` (equivalently, the
    normalized chains of the freely-degenerate presentation of ``space``).
    Out-of-range i (negative, or exceeding min(deg u, deg v)) yields the zero
    cochain: the diagonal has no terms in the required bidegree.
    """
    if u.complex.ring != v.complex.ring:
        raise ValueError("cochains over different rings")
    ring = u.ring
    p, q = u.degree, v.degree
    out_degree = p + q - i
    complex_ = u.complex
    values: Dict[object, Coefficient] = {}
    if i < 0 or out_degree < 0:
        return Cochain(complex_, max(out_degree, 0), {})
    eval_sign = ring.coerce(-1 if (p * q) % 2 else 1)  # (−1)^{deg v·deg a} with deg a = p
    for idx in range(space.n_cells(out_degree)):
        total = ring.zero
        for (a, b), coeff in table.raw(i, out_degree).items():
            if len(a) - 1 != p or len(b) - 1 != q:
                continue
            da, ia = space.iterated_face(out_degree, idx, a)
            db, ib = space.iterated_face(out_degree, idx, b)
            left = u.values.get(space.basis_cell(da, ia))
            if left is None:
                continue
            right = v.values.get(space.basis_cell(db, ib))
            if right is None:
                continue
            total = ring.add(total, ring.mul(ring.coerce(coeff), ring.mul(left, right)))
        total = ring.mul(total, eval_sign)
        if not ring.is_zero(total):
            values[space.basis_cell(out_degree, idx)] = total
    return Cochain(complex_, out_degree, values)


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


def sq_matrix(
    i: int,
    p: int,
    space: DeltaComplex,
    ring: Ring,
    table: DiagonalTable,
) -> List[List[Coefficient]]:
    """The matrix of Sq^i: H^p → H^{p+i} (columns = images of the chosen basis).

    The chain complex and both cohomology groups are the ones memoized on
    ``space``, shared with every other caller."""
    complex_ = space.chains(ring)
    source = cohomology(complex_, p)
    target = cohomology(complex_, p + i)
    columns = []
    for rep in source.representatives:
        u = Cochain.from_vector(complex_, p, rep)
        _, coords = steenrod_square(i, u, space, table, target)
        columns.append(coords)
    return columns
