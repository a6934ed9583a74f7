"""The dense elimination engines that computed (co)homology and span solves
before the sparse engines of ``steenrod_kit.linalg``, kept only as test
oracles.

Over a field, rows are dense lists, or Python ints used as bitsets over 𝔽₂;
every echelon form is fully reduced (RREF), so kernels, representatives and
coordinates come out in their canonical form, and no field elimination code
is imported from the library.  Over ℤ, homology comes from dense Smith
normal forms of whole matrices, by ``smith_form`` here: Bézout steps on
pairs of rows and columns, an elimination that shares no code and no pivot
rule with the library's Smith forms.  ``homology`` and ``cohomology``
mirror the library entry points without their memo.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from steenrod_kit.chains import ChainComplex
from steenrod_kit.linalg import HomologyDescriptor, Vector
from steenrod_kit.rings import ZZ, Coefficient, Ring

Matrix = List[List[Coefficient]]


def rref_field(rows: Matrix, ncols: int, ring: Ring) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form over a field; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots: List[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(rows)):
            if not ring.is_zero(rows[i][col]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = ring.inv(rows[rank][col])
        rows[rank] = [ring.mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and not ring.is_zero(rows[i][col]):
                factor = rows[i][col]
                rows[i] = [ring.add(x, ring.neg(ring.mul(factor, y))) for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


class SpanSolver:
    """Expresses vectors in the span of a fixed generating set over a field,
    by RREF of the generators augmented with an identity block."""

    def __init__(self, generators: Sequence[Vector], ncols: int, ring: Ring):
        self.ring = ring
        self.ncols = ncols
        self.ngen = len(generators)
        augmented = []
        for i, g in enumerate(generators):
            tail = [ring.zero] * self.ngen
            tail[i] = ring.one
            augmented.append(list(g) + tail)
        self._rows, pivots = rref_field(augmented, ncols, ring)
        self._pivots = [p for p in pivots if p < ncols]

    def express(self, vec: Vector) -> Optional[Vector]:
        ring = self.ring
        work = list(vec) + [ring.zero] * self.ngen
        for row, p in zip(self._rows, self._pivots):
            factor = work[p]
            if not ring.is_zero(factor):
                work = [ring.add(x, ring.neg(ring.mul(factor, y))) for x, y in zip(work, row)]
        if any(not ring.is_zero(x) for x in work[: self.ncols]):
            return None
        return [ring.neg(x) for x in work[self.ncols :]]


def field_kernel(rows: Matrix, ncols: int, ring: Ring) -> List[Vector]:
    """Basis of the kernel of a row-matrix over a field."""
    rref, pivots = rref_field(rows, ncols, ring)
    pivot_set = set(pivots)
    basis: List[Vector] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ring.zero] * ncols
        vec[free] = ring.one
        for r, p in enumerate(pivots):
            vec[p] = ring.neg(rref[r][free])
        basis.append(vec)
    return basis


def f2_pack(vec: Sequence[int]) -> int:
    word = 0
    for j, x in enumerate(vec):
        if x % 2:
            word |= 1 << j
    return word


def f2_unpack(word: int, ncols: int) -> Vector:
    return [(word >> j) & 1 for j in range(ncols)]


def f2_rref(rows: List[int], ncols: int) -> Tuple[List[int], List[int]]:
    """RREF of packed 𝔽₂ rows; pivots restricted to the first ``ncols`` bits."""
    reduced: List[int] = []
    pivots: List[int] = []
    for row in rows:
        for r, p in zip(reduced, pivots):
            if (row >> p) & 1:
                row ^= r
        if row:
            low = row & ((1 << ncols) - 1)
            if low == 0:
                continue
            p = (low & -low).bit_length() - 1
            # back-substitute into existing rows
            for i in range(len(reduced)):
                if (reduced[i] >> p) & 1:
                    reduced[i] ^= row
            reduced.append(row)
            pivots.append(p)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [reduced[i] for i in order], sorted(pivots)


def f2_kernel(rows: List[int], ncols: int) -> List[int]:
    rref, pivots = f2_rref(list(rows), ncols)
    pivot_set = set(pivots)
    basis: List[int] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = 1 << free
        for row, p in zip(rref, pivots):
            if (row >> free) & 1:
                vec |= 1 << p
        basis.append(vec)
    return basis


class F2SpanSolver:
    """𝔽₂ analogue of SpanSolver with packed rows and an identity augmentation."""

    def __init__(self, generators: Sequence[int], ncols: int):
        self.ncols = ncols
        self.ngen = len(generators)
        augmented = [g | (1 << (ncols + i)) for i, g in enumerate(generators)]
        self._rows, self._pivots = f2_rref(augmented, ncols)

    def express(self, vec: int) -> Optional[int]:
        work = vec
        for row, p in zip(self._rows, self._pivots):
            if (work >> p) & 1:
                work ^= row
        if work & ((1 << self.ncols) - 1):
            return None
        return work >> self.ncols


def _columns_to_rows(cols: Sequence[Dict[int, Coefficient]], nrows: int, ring: Ring) -> Matrix:
    rows = [[ring.zero] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            rows[i][j] = ring.coerce(x)
    return rows


def _homology_field(ring, boundary_out, nrows_out, boundary_in, rank_here) -> HomologyDescriptor:
    out_rows = _columns_to_rows(boundary_out, nrows_out, ring)
    kernel = field_kernel(out_rows, rank_here, ring) if out_rows else [
        [ring.one if i == j else ring.zero for i in range(rank_here)] for j in range(rank_here)
    ]
    m = len(kernel)
    solver = SpanSolver(kernel, rank_here, ring)
    image_coords: List[Vector] = []
    for col in boundary_in:
        vec = [ring.coerce(col.get(i, 0)) for i in range(rank_here)]
        y = solver.express(vec)
        if y is None:
            raise ArithmeticError("boundary image escaped the cycle space (∂²≠0?)")
        image_coords.append(y)
    image_rref, pivots = rref_field(image_coords, m, ring)
    pivot_set = set(pivots)
    free_idx = [i for i in range(m) if i not in pivot_set]
    reps = [kernel[i] for i in free_idx]

    def coord_fn(cycle: Vector) -> Optional[Vector]:
        y = solver.express([ring.coerce(x) for x in cycle])
        if y is None:
            return None
        for row, p in zip(image_rref, pivots):
            factor = y[p]
            if not ring.is_zero(factor):
                y = [ring.add(a, ring.neg(ring.mul(factor, b))) for a, b in zip(y, row)]
        return [y[i] for i in free_idx]

    return HomologyDescriptor(ring, len(free_idx), [], reps, coord_fn)


def _homology_f2(boundary_out, boundary_in, rank_here, ring) -> HomologyDescriptor:
    nout = len(boundary_out)
    # rows of ∂_out as bitsets over the C_n index: row i has bit j iff M[i][j]=1.
    row_bits: Dict[int, int] = {}
    for j, col in enumerate(boundary_out):
        for i, x in col.items():
            if x % 2:
                row_bits[i] = row_bits.get(i, 0) | (1 << j)
    kernel = f2_kernel(list(row_bits.values()), rank_here) if nout else []
    if not nout:
        kernel = [1 << j for j in range(rank_here)]
    m = len(kernel)
    solver = F2SpanSolver(kernel, rank_here)
    image_coords: List[int] = []
    for col in boundary_in:
        vec = 0
        for i, x in col.items():
            if x % 2:
                vec |= 1 << i
        y = solver.express(vec)
        if y is None:
            raise ArithmeticError("boundary image escaped the cycle space (∂²≠0?)")
        image_coords.append(y)
    image_rref, pivots = f2_rref(image_coords, m)
    pivot_set = set(pivots)
    free_idx = [i for i in range(m) if i not in pivot_set]
    reps = [f2_unpack(kernel[i], rank_here) for i in free_idx]

    def coord_fn(cycle: Vector) -> Optional[Vector]:
        y = solver.express(f2_pack([int(x) % 2 for x in cycle]))
        if y is None:
            return None
        for row, p in zip(image_rref, pivots):
            if (y >> p) & 1:
                y ^= row
        return [(y >> i) & 1 for i in free_idx]

    return HomologyDescriptor(ring, len(free_idx), [], reps, coord_fn)


def _clearing_step(a: int, b: int) -> Tuple[int, int, int, int]:
    """(p, q, r, s), p·s − q·r = 1, with p·a + q·b = g > 0 dividing a and b
    and r·a + s·b = 0: (1, 0, −b/a, 1) when a divides b, which leaves the
    pivot a alone; else from Bézout's x·a + y·b = gcd(a, b), which lowers |a|."""
    if b % a == 0:
        return 1, 0, -(b // a), 1
    (r0, x0, y0), (r1, x1, y1) = (a, 1, 0), (b, 0, 1)
    while r1:
        k = r0 // r1
        (r0, x0, y0), (r1, x1, y1) = (r1, x1, y1), (r0 - k * r1, x0 - k * x1, y0 - k * y1)
    g, x, y = (r0, x0, y0) if r0 > 0 else (-r0, -x0, -y0)
    return x, y, -b // g, a // g


def smith_form(a: Matrix) -> Tuple[Matrix, Matrix, Matrix, Matrix]:
    """(D, U, U⁻¹, V) with U·A·V = D diagonal, each diagonal entry ≥ 0 and
    dividing the next, U and V unimodular.

    Position t takes the first nonzero entry of the remaining block.  Each
    entry below and right of it is cleared by a unimodular 2×2 step on rows
    (or columns) t and i (``_clearing_step``); a column step that lowers
    the pivot can fill column t again, and the clearing repeats.  An entry
    the pivot does not divide has its row added to row t, and the clearing
    starts again with a smaller pivot."""
    rows, cols = len(a), len(a[0]) if a else 0
    d = [list(row) for row in a]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    uinv = [row[:] for row in u]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def rows_op(i: int, j: int, p: int, q: int, r: int, s: int) -> None:
        """(row i, row j) ← (p·row i + q·row j, r·row i + s·row j), p·s − q·r = ±1."""
        for m in (d, u):
            m[i], m[j] = [p * x + q * y for x, y in zip(m[i], m[j])], [r * x + s * y for x, y in zip(m[i], m[j])]
        e = p * s - q * r  # U⁻¹ ← U⁻¹·T⁻¹ on columns i and j, T⁻¹ = e·[[s, −q], [−r, p]]
        for row in uinv:
            x, y = row[i], row[j]
            row[i], row[j] = e * (s * x - r * y), e * (p * y - q * x)

    def cols_op(i: int, j: int, p: int, q: int, r: int, s: int) -> None:
        """(column i, column j) ← (p·column i + q·column j, r·column i + s·column j)."""
        for m in (d, v):
            for row in m:
                row[i], row[j] = p * row[i] + q * row[j], r * row[i] + s * row[j]

    for t in range(min(rows, cols)):
        nonzero = next(((i, j) for i in range(t, rows) for j in range(t, cols) if d[i][j]), None)
        if nonzero is None:
            break
        i, j = nonzero
        if i != t:
            rows_op(t, i, 0, 1, 1, 0)
        if j != t:
            cols_op(t, j, 0, 1, 1, 0)
        while True:
            for i in range(t + 1, rows):
                if d[i][t]:
                    rows_op(t, i, *_clearing_step(d[t][t], d[i][t]))
            for j in range(t + 1, cols):
                if d[t][j]:
                    cols_op(t, j, *_clearing_step(d[t][t], d[t][j]))
            if any(d[i][t] for i in range(t + 1, rows)):
                continue
            offender = next((i for i in range(t + 1, rows) for j in range(t + 1, cols) if d[i][j] % d[t][t]), None)
            if offender is None:
                break
            rows_op(t, offender, 1, 1, 0, 1)
        if d[t][t] < 0:  # a pivot no Bézout step replaced keeps the sign of the entry it started as
            d[t], u[t] = [-x for x in d[t]], [-x for x in u[t]]
            for row in uinv:
                row[t] = -row[t]
    return d, u, uinv, v


def integer_kernel(a: Matrix, ncols: int) -> List[Vector]:
    """Basis of the kernel lattice of an integer matrix (a saturated summand)."""
    if not a:
        return [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    d, _, _, v = smith_form(a)
    r = 0
    while r < min(len(d), ncols) and d[r][r] != 0:
        r += 1
    return [[v[i][j] for i in range(ncols)] for j in range(r, ncols)]


class IntegerSolver:
    """Solves A·x = b over ℤ from one dense Smith normal form of A."""

    def __init__(self, a: Matrix, ncols: int):
        self.ncols = ncols
        self.nrows = len(a)
        if a:
            self._d, self._u, _, self._v = smith_form(a)

    def solve(self, b: Vector) -> Optional[Vector]:
        ncols = self.ncols
        if not self.nrows:
            return [0] * ncols if all(x == 0 for x in b) else None
        d, u, v = self._d, self._u, self._v
        ub = [sum(u[i][k] * b[k] for k in range(len(b))) for i in range(self.nrows)]
        y = [0] * ncols
        for i in range(self.nrows):
            di = d[i][i] if i < ncols else 0
            if di == 0:
                if ub[i] != 0:
                    return None
            else:
                if ub[i] % di != 0:
                    return None
                y[i] = ub[i] // di
        return [sum(v[i][j] * y[j] for j in range(ncols)) for i in range(ncols)]


def _homology_integers(out_rows, in_cols, rank_here) -> HomologyDescriptor:
    kernel = integer_kernel([[row.get(j, 0) for j in range(rank_here)] for row in out_rows], rank_here)
    m = len(kernel)
    # express the image in kernel coordinates: K · y = image column
    solver = IntegerSolver([[kernel[j][i] for j in range(m)] for i in range(rank_here)], m)
    image_coords: List[Vector] = []
    for col in in_cols:
        y = solver.solve([col.get(i, 0) for i in range(rank_here)])
        if y is None:
            raise ArithmeticError("boundary image escaped the cycle lattice (∂²≠0?)")
        image_coords.append(y)
    if image_coords:
        x_rows = [[image_coords[j][i] for j in range(len(image_coords))] for i in range(m)]
        d, u, uinv, _ = smith_form(x_rows)
        diag = [d[i][i] for i in range(min(m, len(image_coords)))]
    else:
        diag = []
        u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        uinv = [row[:] for row in u]
    r = sum(1 for x in diag if x != 0)
    torsion = [x for x in diag if x > 1]
    torsion_idx = [i for i, x in enumerate(diag) if x > 1]
    free_idx = list(range(r, m))
    reps: List[Vector] = []
    for i in torsion_idx + free_idx:
        coords = [uinv[row][i] for row in range(m)]
        reps.append([sum(kernel[j][c] * coords[j] for j in range(m)) for c in range(rank_here)])

    def coord_fn(cycle: Vector) -> Optional[Vector]:
        y = solver.solve(list(cycle))
        if y is None:
            return None
        c = [sum(u[i][j] * y[j] for j in range(m)) for i in range(m)]
        out = []
        for pos, i in enumerate(torsion_idx):
            out.append(c[i] % torsion[pos])
        out.extend(c[i] for i in free_idx)
        return out

    return HomologyDescriptor(ZZ, m - r, torsion, reps, coord_fn)


def _homology_of_columns(ring: Ring, boundary_out, nrows_out: int, boundary_in, rank_here: int) -> HomologyDescriptor:
    """ker(∂_out)/im(∂_in), from the sparse columns of both maps."""
    if not ring.is_field:
        return _homology_integers(_transpose(boundary_out, nrows_out), boundary_in, rank_here)
    if ring.characteristic == 2:
        return _homology_f2(boundary_out, boundary_in, rank_here, ring)
    return _homology_field(ring, boundary_out, nrows_out, boundary_in, rank_here)


def _transpose(cols, nrows: int):
    rows: List[Dict[int, Coefficient]] = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, value in col.items():
            rows[i][j] = value
    return rows


def homology(complex_: ChainComplex, degree: int) -> HomologyDescriptor:
    boundary_out = complex_.boundary_matrix(degree) if degree > 0 else [{} for _ in range(complex_.rank(degree))]
    return _homology_of_columns(
        complex_.ring,
        boundary_out,
        complex_.rank(degree - 1) if degree > 0 else 0,
        complex_.boundary_matrix(degree + 1),
        complex_.rank(degree),
    )


def cohomology(complex_: ChainComplex, degree: int) -> HomologyDescriptor:
    out_cols = _transpose(complex_.boundary_matrix(degree + 1), complex_.rank(degree))
    in_cols = _transpose(complex_.boundary_matrix(degree), complex_.rank(degree - 1)) if degree > 0 else []
    return _homology_of_columns(complex_.ring, out_cols, complex_.rank(degree + 1), in_cols, complex_.rank(degree))
