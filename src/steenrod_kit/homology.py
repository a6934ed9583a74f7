"""Homology and cohomology of a ChainComplex, with representatives and
coordinates (delegates the linear algebra to ``linalg``): homology takes the
columns of ∂, cohomology the columns of δ, each built once per degree when
first read; a complex from a face table builds δ from its faces, so the
cohomology of the chains of all its cells, which need no ∂² check, builds
no ∂.

Each group is computed once per complex and degree: the descriptors are
kept in the complex's ``derived`` memo, so every caller holding the same
complex shares them.  Over a field each map is reduced once when the degrees
are asked for in turn (homology downward, cohomology upward): a degree's
out-map pivots wait in ``derived`` until the neighbouring degree takes them
as its in-map's, which then clear its out-map (``linalg.reduce_columns``).
Over ℤ the groups are read off the invariant factors of the two maps, each
map's from one Smith form without transforms, kept in ``derived`` under the
index n of the ∂ₙ it is or whose transpose it is (δⁿ⁻¹ has ∂ₙ's factors), so
that both degrees the map joins, and homology and cohomology, share it; the
representatives and coordinates are built from transformed forms only when
first read (``linalg.integer_groups``).
"""

from __future__ import annotations

from .chains import ChainComplex
from .linalg import HomologyDescriptor, field_homology, integer_groups, invariant_factors, reduce_columns


def _check_dd_zero(complex_: ChainComplex, degree: int) -> None:
    """The field engine relies on ∂_degree ∘ ∂_{degree+1} = 0 without
    checking it: checked here once per complex and degree, for homology and
    cohomology alike, unless the complex's ``derived`` already records it.
    ``DeltaComplex.chains_from_faces`` records it for the chains of all the
    cells of a validated face table, where the face identities imply it;
    every other complex is checked."""
    key = ("dd_zero", degree)
    if key not in complex_.derived:
        if not complex_.composes_to_zero(degree):
            raise ArithmeticError("boundary image escaped the cycle space (∂²≠0?)")
        complex_.derived[key] = True


def homology(complex_: ChainComplex, degree: int) -> HomologyDescriptor:
    """H_degree: ker ∂ / im ∂, as rank + torsion (or dimension over a field),
    with cycle representatives and coordinate data."""
    return _group(complex_, degree, "homology", complex_.boundary_matrix, -1)


def cohomology(complex_: ChainComplex, degree: int) -> HomologyDescriptor:
    """H^degree of the dual complex; representatives are cocycle vectors over
    the degree-``degree`` basis."""
    return _group(complex_, degree, "cohomology", complex_.coboundary_matrix, 1)


def _group(complex_: ChainComplex, degree: int, kind: str, matrix, step: int) -> HomologyDescriptor:
    """ker(out)/im(in) at ``degree``, where ``matrix(n)`` gives the columns of
    the map out of degree n, into degree n + ``step``.  Over a field the
    in-map's pivots are taken from ``derived`` when the degree it leaves
    computed them, and the out-map's are left there under
    ``(kind, "pivots", degree)`` unless the degree that would take them is
    already computed.  Over ℤ each map's invariant factors are kept under
    ``("factors", n)`` for the higher degree n it joins, since the map is ∂ₙ
    or its transpose."""
    if degree + 1 > complex_.truncation_dim and not complex_.exhaustive:
        raise ValueError(
            f"degree {degree} needs the complex up to {degree + 1}, "
            f"but it is truncated at {complex_.truncation_dim}"
        )
    ring, derived = complex_.ring, complex_.derived
    if (kind, degree) in derived:
        return derived[kind, degree]
    _check_dd_zero(complex_, degree)
    out_cols, in_cols, rank = matrix(degree), matrix(degree - step), complex_.rank(degree)
    if not ring.is_field:
        out_factors = _factors(complex_, max(degree, degree + step), out_cols)
        in_factors = _factors(complex_, max(degree, degree - step), in_cols)
        group = integer_groups(out_cols, in_cols, rank, out_factors, in_factors)
    else:
        in_pivots = derived.pop((kind, "pivots", degree - step), None)
        if in_pivots is None:
            in_pivots = reduce_columns(ring, in_cols)
        logs: list = []
        out_pivots = reduce_columns(ring, out_cols, in_pivots, logs)
        group = field_homology(ring, out_cols, rank, out_pivots, logs, in_pivots)
        if (kind, degree + step) not in derived:
            derived[kind, "pivots", degree] = out_pivots
    derived[kind, degree] = group
    return group


def _factors(complex_: ChainComplex, n: int, columns) -> list:
    """The invariant factors of ∂ₙ or of its transpose, with the given
    columns, kept in ``derived``."""
    key = ("factors", n)
    if key not in complex_.derived:
        complex_.derived[key] = invariant_factors(columns)
    return complex_.derived[key]
