"""The injectivity witness: truncated diagonal vectors and their independence.

For a chain c the truncated diagonal vector is e(c) = (1, c, c⊗c, …,
c^{⊗(t−1)}).  Projecting each tensor power to the symmetric algebra on the
chain basis (sort the tensor factors, multiply as commuting monomials) turns
e(c) into a vector of polynomial values: by the multinomial theorem the
image of c^{⊗e} for c = Σ c_k b_k is Σ_α M(α)·Π c_k^{α_k}·b^α over the
monomials b^α of degree e, with M(α) the multinomial coefficient.  For
distinct nonzero chains c₁,…,c_t the vectors e(c₁),…,e(c_t) are linearly
independent over the fraction field — the evaluation matrix is
Vandermonde-structured, with determinant Π_{i<j}(f(c_i) − f(c_j)).
``vandermonde_independence`` verifies the independence by exact rank
computation; ``vandermonde_det_factorization`` verifies the determinant
identity symbolically.

The rank is taken on the truncations (1, c, …, c^{⊗d}) for d = 1, 2, … in
turn, stopping at the first d whose rank is t.  Those columns are a subset of
the columns of e(c), and the rank of a subset of the columns is at most the
rank of all of them, which is at most t, the number of rows: a truncation of
rank t proves e(c₁),…,e(c_t) independent, and the last truncation, d = t − 1,
is e(c) itself.  So the answer is the full matrix's, and distinct chains that
are affinely independent (the usual case) are settled at d = 1.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, List, Tuple

from .linalg import field_rank
from .rings import Coefficient, QQ, Ring


def _symmetrized_powers(
    terms: List[Tuple[int, Coefficient]], count: int, field: Ring
) -> List[Dict[Tuple[int, ...], Coefficient]]:
    """The images of c^{⊗0}, …, c^{⊗(count−1)} for the chain c with the given
    (position, coefficient) terms, in ascending position order.

    A monomial is the sorted tuple of the positions of its factors, so
    monomials are compared and hashed as int tuples; positions must follow
    the sort keys of the basis elements they stand for.  Each monomial x^α of
    degree e is built once, from the monomial x^α′ of degree e − 1 that is α
    without its largest factor k, and its coefficient is M(α)·Π c^α with the
    multinomial M(α) = M(α′)·e/α_k, an exact integer division.  Coefficients
    are field elements as ``coerce`` gives them (mod p over 𝔽_p); a monomial
    whose multinomial vanishes mod p (e ≥ p) is left out of its power but
    still extended to the next.
    """
    p = field.characteristic
    powers: List[Dict[Tuple[int, ...], Coefficient]] = [{(): field.one}]
    # per monomial of the last degree: (monomial, M, Π c^α, term index of its
    # largest factor, multiplicity of that factor)
    layer = [((), 1, field.one, 0, 0)]
    for e in range(1, count):
        nxt, power = [], {}
        for mono, m, prod, last, run in layer:
            for k in range(last, len(terms)):
                pos, c = terms[k]
                r = run + 1 if k == last else 1
                key, mk, pk = mono + (pos,), m * e // r, prod * c
                if p:
                    pk %= p
                nxt.append((key, mk, pk, k, r))
                if v := (mk * pk % p if p else mk * pk):
                    power[key] = v
        powers.append(power)
        layer = nxt
    return powers


def _fraction_field(ring: Ring) -> Ring:
    return QQ if not ring.is_field else ring


def vandermonde_independence(cs: List[Dict[object, Coefficient]], ring: Ring) -> bool:
    """Whether e(c₁),…,e(c_t) are linearly independent over the fraction field.

    Each chain is a dict ``{basis element: coefficient}``, coerced into
    ``ring`` once, zero coefficients dropped.  For d = 1, 2, …, t − 1 in turn
    (d = 0 when t = 1), each chain gives one row: its symmetrized powers
    0 … d side by side, a column per monomial (a monomial's length is its
    power), numbered as the monomials first occur; the rank of the rows is
    taken by ``field_rank``.  The answer is True at the first d whose rank
    is t, and False if d = t − 1, the whole of e(c), falls short.  Stopping
    early gives the full matrix's answer: the truncated columns are some of
    its columns, and a subset of the columns has at most their rank, which
    is at most t.

    Preconditions (violations raise, they are never reported as ``False``):
    the chains are pairwise distinct, nonzero, and homogeneous of a common
    degree; t ≥ 1.
    """
    t = len(cs)
    if t < 1:
        raise ValueError("need at least one chain")
    cs = [{b: y for b, x in c.items() if (y := ring.coerce(x))} for c in cs]
    if not all(cs):
        raise ValueError("chains must be nonzero")
    if len({b.degree for c in cs for b in c}) != 1:
        raise ValueError("chains must share a degree")
    if len({frozenset(c.items()) for c in cs}) != t:
        raise ValueError("chains must be pairwise distinct")
    field = _fraction_field(ring)
    # one basis for all t chains, in sort-key order, so that a monomial is the
    # same int tuple in every row
    support = sorted({b for c in cs for b in c}, key=lambda b: b.sort_key())
    position = {b: k for k, b in enumerate(support)}
    chain_terms = [sorted((position[b], x) for b, x in c.items()) for c in cs]
    for d in range(min(1, t - 1), t):
        columns: Dict[Tuple[int, ...], int] = {}
        rows = [
            [
                (columns.setdefault(mono, len(columns)), coeff)
                for comp in _symmetrized_powers(terms, d + 1, field)
                for mono, coeff in comp.items()
            ]
            for terms in chain_terms
        ]
        if field_rank(rows, field) == t:
            return True
    return False


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
