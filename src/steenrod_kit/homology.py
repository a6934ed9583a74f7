"""Homology and cohomology of a ChainComplex, with representatives and
coordinates (delegates the linear algebra to ``linalg``): homology takes the
stored columns of ∂, cohomology the columns of δ, built once per degree.

Each group is computed once per complex and degree: the descriptors are
kept in the complex's ``derived`` memo, so every caller holding the same
complex shares them.  Over a field each map is reduced once when the degrees
are asked for in turn (homology downward, cohomology upward): a degree's
out-map pivots wait in ``derived`` until the neighbouring degree takes them
as its in-map's, which then clear its out-map (``linalg.reduce_columns``).
"""

from __future__ import annotations

from .chains import ChainComplex
from .linalg import HomologyDescriptor, field_homology, integer_homology, reduce_columns


def _check_dd_zero(complex_: ChainComplex, degree: int) -> None:
    """The field engine relies on ∂_degree ∘ ∂_{degree+1} = 0 without
    checking it: checked here once per complex and degree, for homology and
    cohomology alike."""
    key = ("dd_zero", degree)
    if key not in complex_.derived:
        if not complex_.composes_to_zero(degree):
            raise ArithmeticError("boundary image escaped the cycle space (∂²≠0?)")
        complex_.derived[key] = True


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
        _check_dd_zero(complex_, degree)
        out_cols, in_cols = complex_.boundary_matrix(degree), complex_.boundary_matrix(degree + 1)
        maps = ("boundary_pivots", degree), ("boundary_pivots", degree + 1), ("homology", degree - 1)
        complex_.derived[key] = _group(complex_, degree, out_cols, in_cols, *maps)
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
        _check_dd_zero(complex_, degree)
        out_cols, in_cols = complex_.coboundary_matrix(degree), complex_.coboundary_matrix(degree - 1)
        maps = ("coboundary_pivots", degree), ("coboundary_pivots", degree - 1), ("cohomology", degree + 1)
        complex_.derived[key] = _group(complex_, degree, out_cols, in_cols, *maps)
    return complex_.derived[key]


def _group(complex_: ChainComplex, degree: int, out_cols, in_cols, out_map, in_map, user) -> HomologyDescriptor:
    """ker(out)/im(in) at ``degree``.  Over a field the in-map's pivots are
    taken from ``derived`` at ``in_map`` when a neighbouring degree left them
    there, and the out-map's are left at ``out_map`` unless the degree that
    would take them, ``user``, is already computed."""
    ring, rank, derived = complex_.ring, complex_.rank(degree), complex_.derived
    if not ring.is_field:
        return integer_homology(out_cols, in_cols, rank)
    in_pivots = derived.pop(in_map, None)
    if in_pivots is None:
        in_pivots = reduce_columns(ring, in_cols)
    logs: list = []
    out_pivots = reduce_columns(ring, out_cols, in_pivots, logs)
    group = field_homology(ring, out_cols, rank, out_pivots, logs, in_pivots)
    if user not in derived:
        derived[out_map] = out_pivots
    return group

