"""The injectivity witness: truncated diagonal vectors and their independence.

For a chain c the truncated diagonal vector is e(c) = (1, c, c⊗c, …,
c^{⊗(t−1)}).  Projecting each tensor power to the symmetric algebra on the
chain basis (sort the tensor factors, multiply as commuting monomials) turns
e(c) into a vector of polynomial values, and for distinct nonzero chains
c₁,…,c_t the vectors e(c₁),…,e(c_t) are linearly independent over the
fraction field — the evaluation matrix is Vandermonde-structured, with
determinant Π_{i<j}(f(c_i) − f(c_j)).  ``vandermonde_independence`` verifies
the independence by exact rank computation; ``vandermonde_det_factorization``
verifies the determinant identity symbolically.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import permutations
from typing import Dict, List, Tuple

from .chains import BasisElement, Chain
from .linalg import field_rank
from .rings import Coefficient, QQ, Ring

Monomial = Tuple[BasisElement, ...]  # sorted tuple of basis elements
Polynomial = Dict[Monomial, Coefficient]  # in the symmetric algebra on the basis


def _sorted_monomial(factors: Monomial) -> Monomial:
    return tuple(sorted(factors, key=lambda b: b.sort_key()))


def _symmetrized_powers(
    terms: List[Tuple[int, Coefficient]], count: int, field: Ring
) -> List[Dict[Tuple[int, ...], Coefficient]]:
    """The images of c^{⊗0}, …, c^{⊗(count−1)}, each the previous times c,
    for the chain c with the given (position, coefficient) terms.

    A monomial is the sorted tuple of the positions of its factors, so
    monomials are compared and hashed as int tuples; positions must follow
    the sort keys of the basis elements they stand for.  Coefficients are
    field elements as ``coerce`` gives them (mod p over 𝔽_p).
    """
    p = field.characteristic
    powers: List[Dict[Tuple[int, ...], Coefficient]] = [{(): field.one}]
    while len(powers) < count:
        nxt: Dict[Tuple[int, ...], Coefficient] = {}
        for mono, coeff in powers[-1].items():
            for k, value in terms:
                at = bisect_right(mono, k)
                key = mono[:at] + (k,) + mono[at:]
                v = nxt.get(key, 0) + coeff * value
                if p:
                    v %= p
                if v:
                    nxt[key] = v
                else:
                    nxt.pop(key, None)
        powers.append(nxt)
    return powers


def symmetrized_power(c: Chain, power: int, field: Ring) -> Polynomial:
    """The image of c^{⊗power} in the symmetric algebra on the chain basis."""
    return TruncatedDiagonalVector.of(c, power + 1, field).components[power]


@dataclass
class TruncatedDiagonalVector:
    """e(c) = (1, c, c⊗c, …, c^{⊗(t−1)}), with tensor powers symmetrized."""

    components: List[Polynomial]
    t: int

    @staticmethod
    def of(c: Chain, t: int, field: Ring) -> "TruncatedDiagonalVector":
        basis = sorted(c.terms, key=lambda b: b.sort_key())
        powers = _symmetrized_powers([(k, field.coerce(c.terms[b])) for k, b in enumerate(basis)], t, field)
        return TruncatedDiagonalVector(
            [{tuple(basis[k] for k in mono): x for mono, x in power.items()} for power in powers], t
        )

    def check_powers(self, field: Ring) -> bool:
        """Component i must be the i-fold product of component 1."""
        acc: Polynomial = {(): field.one}
        base = self.components[1] if self.t > 1 else {}
        for i, comp in enumerate(self.components):
            if comp != acc:
                return False
            nxt: Polynomial = {}
            for mono, coeff in acc.items():
                for extra, value in base.items():
                    key = _sorted_monomial(mono + extra)
                    v = field.add(nxt.get(key, field.zero), field.mul(coeff, value))
                    if field.is_zero(v):
                        nxt.pop(key, None)
                    else:
                        nxt[key] = v
            acc = nxt
        return True


def _fraction_field(ring: Ring) -> Ring:
    return QQ if not ring.is_field else ring


def vandermonde_independence(cs: List[Chain], ring: Ring) -> bool:
    """Whether e(c₁),…,e(c_t) are linearly independent over the fraction field.

    Preconditions (violations raise, they are never reported as ``False``):
    the chains are pairwise distinct, nonzero, and homogeneous of a common
    degree; t ≥ 1.
    """
    t = len(cs)
    if t < 1:
        raise ValueError("need at least one chain")
    degree = cs[0].degree
    for c in cs:
        if c.is_zero():
            raise ValueError("chains must be nonzero")
        if c.degree != degree:
            raise ValueError("chains must share a degree")
        if c.ring != ring:
            raise ValueError("chain ring differs from the requested ring")
    for i in range(t):
        for j in range(i + 1, t):
            if cs[i] == cs[j]:
                raise ValueError("chains must be pairwise distinct")
    field = _fraction_field(ring)
    # one basis for all t chains, in sort-key order, so that a monomial is the
    # same int tuple in every row
    support = sorted({b for c in cs for b in c.terms}, key=lambda b: b.sort_key())
    position = {b: k for k, b in enumerate(support)}
    # common coordinate space: (power, monomial) pairs, numbered as they occur
    columns: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    rows = []
    for c in cs:
        terms = sorted((position[b], field.coerce(x)) for b, x in c.terms.items())
        rows.append([
            (columns.setdefault((power, mono), len(columns)), coeff)
            for power, comp in enumerate(_symmetrized_powers(terms, t, field))
            for mono, coeff in comp.items()
        ])
    return field_rank(rows, field) == t


# ---------------------------------------------------------------------------
# Symbolic determinant factorization (exact multivariate polynomials over ℤ)
# ---------------------------------------------------------------------------

IntPoly = Dict[Tuple[int, ...], int]  # exponent vector in x_1..x_t → coefficient


def _poly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    out: IntPoly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(key, 0) + ca * cb
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def _poly_add(a: IntPoly, b: IntPoly, scalar: int = 1) -> IntPoly:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + scalar * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def vandermonde_det_factorization(t: int) -> bool:
    """det [x_i^j]_{1≤i≤t, 0≤j<t} = Π_{i<j} (x_j − x_i), verified symbolically
    by expanding both sides as exact integer polynomials."""

    def variable(i: int) -> IntPoly:
        e = [0] * t
        e[i] = 1
        return {tuple(e): 1}

    def power(p: IntPoly, n: int) -> IntPoly:
        out: IntPoly = {tuple([0] * t): 1}
        for _ in range(n):
            out = _poly_mul(out, p)
        return out

    # determinant by Leibniz expansion (t is small: the witness runs at t = 3)
    det: IntPoly = {}
    for perm in permutations(range(t)):
        sign = 1
        seen = [False] * t
        for start in range(t):
            if seen[start]:
                continue
            length = 0
            cur = start
            while not seen[cur]:
                seen[cur] = True
                cur = perm[cur]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term: IntPoly = {tuple([0] * t): sign}
        for i in range(t):
            term = _poly_mul(term, power(variable(i), perm[i]))
        det = _poly_add(det, term)
    product: IntPoly = {tuple([0] * t): 1}
    for i in range(t):
        for j in range(i + 1, t):
            product = _poly_mul(product, _poly_add(variable(j), variable(i), -1))
    return det == product
