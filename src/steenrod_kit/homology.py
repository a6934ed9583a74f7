"""Homology and cohomology of a ChainComplex, with representatives and
coordinates (delegates the linear algebra to ``linalg``).

Each group is computed once per complex and degree: the descriptors are
kept in the complex's ``derived`` memo, so every caller holding the same
complex shares them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .chains import Chain, ChainComplex
from .linalg import HomologyDescriptor, homology_of_matrices
from .rings import Coefficient

Columns = List[Dict[int, Coefficient]]


def _transpose(cols: Sequence[Dict[int, Coefficient]], nrows: int) -> Columns:
    rows: Columns = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, value in col.items():
            rows[i][j] = value
    return rows


def _boundaries(complex_: ChainComplex, degree: int):
    """Columns of ∂_degree (empty in degree 0) and ∂_{degree+1}, checked to
    compose to zero: the field engine relies on it without checking."""
    lower = complex_.boundary_matrix(degree) if degree > 0 else []
    upper = complex_.boundary_matrix(degree + 1)
    ring = complex_.ring
    for col in upper if lower else ():
        total: Dict[int, Coefficient] = {}
        for j, c in col.items():
            for i, x in lower[j].items():
                total[i] = total.get(i, 0) + c * x
        if any(not ring.is_zero(x) for x in total.values()):
            raise ArithmeticError("boundary image escaped the cycle space (∂²≠0?)")
    return lower, upper


def homology(complex_: ChainComplex, degree: int) -> HomologyDescriptor:
    """H_degree: ker ∂ / im ∂, as rank + torsion (or dimension over a field),
    with cycle representatives and coordinate data."""
    if degree + 1 > complex_.truncation_dim and not complex_.exhaustive:
        raise ValueError(
            f"degree {degree} needs boundaries up to {degree + 1}, "
            f"but the complex is truncated at {complex_.truncation_dim}"
        )
    key = ("homology", degree)
    if key not in complex_.derived:
        lower, upper = _boundaries(complex_, degree)
        # the rows of ∂_degree are the columns of its transpose
        out_rows = _transpose(lower, complex_.rank(degree - 1))
        complex_.derived[key] = homology_of_matrices(complex_.ring, out_rows, upper, complex_.rank(degree))
    return complex_.derived[key]


def cohomology(complex_: ChainComplex, degree: int) -> HomologyDescriptor:
    """H^degree of the dual complex; representatives are cocycle vectors over
    the degree-``degree`` basis."""
    if degree + 1 > complex_.truncation_dim and not complex_.exhaustive:
        raise ValueError(
            f"degree {degree} needs the complex up to {degree + 1}, "
            f"but it is truncated at {complex_.truncation_dim}"
        )
    key = ("cohomology", degree)
    if key not in complex_.derived:
        lower, upper = _boundaries(complex_, degree)
        # the rows of δ^degree are the columns of ∂_{degree+1}; the columns
        # of δ^{degree−1} those of the transpose of ∂_degree
        in_cols = _transpose(lower, complex_.rank(degree - 1))
        complex_.derived[key] = homology_of_matrices(complex_.ring, upper, in_cols, complex_.rank(degree))
    return complex_.derived[key]


def chain_from_vector(complex_: ChainComplex, degree: int, vector) -> Chain:
    terms = {
        basis: coeff
        for basis, coeff in zip(complex_.basis_in(degree), vector)
    }
    return Chain(complex_.ring, degree, terms)


def vector_from_chain(complex_: ChainComplex, chain: Chain):
    vec = [complex_.ring.zero] * complex_.rank(chain.degree)
    for basis, coeff in chain.terms.items():
        vec[complex_.index_of(basis)] = coeff
    return vec
