"""Exact linear algebra: one sparse Smith normal form over ℤ, one column
reduction engine over fields, and homology with explicit cycle bases and
change-of-basis data.

Every ℤ computation (kernels, solves, homology) runs on ``sparse_smith``:
rows are dicts ``{column: nonzero entry}``, ±1 pivots are eliminated
sparsely, and only the residual block, which holds no unit entry, goes
through the dense ``smith_normal_form``.  Every field computation (kernels,
ranks, span solves, (co)homology) runs on ``_reduce``, which reduces vectors
(dicts ``{index: nonzero entry}``, or 𝔽₂ int bitsets) left to right by the
pivots of the earlier ones; over ℚ an entry is an int, as ``Ring.coerce``
gives it, until a pivot's inverse makes it a fraction.  Kernels reduce the
columns of a map by highest-index pivots (the persistence order) and log
each step, which yields the canonical kernel vector of each column that
reduces to zero; ranks use the same order; images and span solves use
lowest-index pivots.

``kernel`` and ``solver`` choose the engine from the ring, so callers never
do: both take a matrix as sparse columns and give sparse vectors back.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .rings import ZZ, Coefficient, Ring

Matrix = List[List[Coefficient]]
Vector = List[Coefficient]
SparseVector = Dict[int, int]


# ---------------------------------------------------------------------------
# Smith normal form over the integers
# ---------------------------------------------------------------------------


def _dense_smith(a: Matrix) -> Tuple[Matrix, Matrix, Matrix, Matrix, Matrix]:
    """(D, U, Uinv, V, Vinv) with U·A·V = D diagonal, U and V unimodular.

    Pivoting picks the smallest nonzero absolute value, which keeps
    intermediate entries tame at desk scale.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [list(row) for row in a]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    uinv = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    vinv = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for r in range(rows):  # column swap on Uinv
            uinv[r][i], uinv[r][j] = uinv[r][j], uinv[r][i]

    def col_swap(i, j):
        for r in range(rows):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def row_add(dst, src, k):  # row dst += k * row src
        if k == 0:
            return
        drow, srow = d[dst], d[src]
        for c in range(cols):
            drow[c] += k * srow[c]
        urow, usrow = u[dst], u[src]
        for c in range(rows):
            urow[c] += k * usrow[c]
        for r in range(rows):  # Uinv column src -= k * column dst
            uinv[r][src] -= k * uinv[r][dst]

    def col_add(dst, src, k):  # col dst += k * col src
        if k == 0:
            return
        for r in range(rows):
            d[r][dst] += k * d[r][src]
        for r in range(cols):
            v[r][dst] += k * v[r][src]
        vsrc, vdst = vinv[src], vinv[dst]  # Vinv row src -= k * row dst
        for c in range(cols):
            vsrc[c] -= k * vdst[c]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for r in range(rows):
            uinv[r][i] = -uinv[r][i]

    t = 0
    while t < min(rows, cols):
        # locate smallest-magnitude nonzero pivot in the remaining block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = d[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        row_swap(t, pi)
        col_swap(t, pj)
        while True:
            p = d[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    q = d[i][t] // p
                    row_add(i, t, -q)
                    if d[i][t] != 0:
                        row_swap(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    q = d[t][j] // p
                    col_add(j, t, -q)
                    if d[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # row and column cleared; enforce that the pivot divides the rest
            p = d[t][t]
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        if d[t][t] < 0:
            row_negate(t)
        t += 1
    return d, u, uinv, v, vinv


def smith_normal_form(a: Matrix) -> Tuple[Matrix, Matrix, Matrix, Matrix]:
    """Return (D, U, Uinv, V) with U·A·V = D diagonal, U and V unimodular.

    Dense: it is the residual step of ``sparse_smith``, which every library
    caller uses.
    """
    d, u, uinv, v, _ = _dense_smith(a)
    return d, u, uinv, v


def _axpy(dst: SparseVector, src: SparseVector, k: int, p: Optional[int] = None) -> SparseVector:
    """dst += k·src in place (mod p when p is given), dropping entries that
    cancel; k is nonzero (mod p)."""
    for j, y in src.items():
        z = dst.get(j, 0) + k * y
        if p:
            z %= p
        if z:
            dst[j] = z
        else:
            del dst[j]
    return dst


def transpose(vectors: Sequence[Dict[int, Coefficient]], size: int) -> List[Dict[int, Coefficient]]:
    """The sparse rows of the matrix with the given sparse columns (or back)."""
    out: List[Dict[int, Coefficient]] = [{} for _ in range(size)]
    for j, vec in enumerate(vectors):
        for i, x in vec.items():
            out[i][j] = x
    return out


def _combine(terms: Iterable[Tuple[int, SparseVector]]) -> SparseVector:
    """Σ k·vector over the (k, vector) pairs."""
    out: SparseVector = {}
    for k, vec in terms:
        if k:
            _axpy(out, vec, k)
    return out


@dataclass
class SmithForm:
    """U·A·V = D for an integer matrix A, where D is zero except at the
    ``pivots`` (row, col, d): every d ≥ 1 and each divides the next.

    U is kept by rows, U⁻¹, V and V⁻¹ by columns, as sparse dicts; only the
    transforms asked of ``sparse_smith`` are filled in.
    """

    pivots: List[Tuple[int, int, int]]
    u_rows: List[SparseVector]
    uinv_cols: List[SparseVector]
    v_cols: List[SparseVector]
    vinv_cols: List[SparseVector]


def sparse_smith(rows: Sequence[SparseVector], ncols: int, u: bool = False, v: bool = False) -> SmithForm:
    """Smith normal form of the matrix with the given sparse rows; ``u``
    asks for U and U⁻¹, ``v`` for V and V⁻¹.

    Phase 1 repeatedly takes a ±1 entry, from the sparsest row and then the
    shortest column, clears its column by row operations and its row by
    column operations (which only V and V⁻¹ see: the row leaves the active
    matrix), negating the row when the entry is −1.  No phase-1 step touches
    U⁻¹ or V⁻¹ outside the pivot's own column of U⁻¹ and row of V⁻¹, which
    are set once.  V does not depend on ``u``.  Phase 2 puts the
    residual block, which holds no unit entry, in dense Smith normal form and
    composes its transforms into the sparse ones.
    """
    nrows = len(rows)
    a: List[Optional[SparseVector]] = [{j: x for j, x in row.items() if x} for row in rows]
    cols = transpose(a, ncols)
    u_rows = [{i: 1} for i in range(nrows)] if u else []
    uinv_cols = [{i: 1} for i in range(nrows)] if u else []
    v_cols = [{j: 1} for j in range(ncols)] if v else []
    vinv_cols = [{j: 1} for j in range(ncols)] if v else []
    pivots: List[Tuple[int, int, int]] = []

    heap = [(len(row), i) for i, row in enumerate(a) if row]
    heapq.heapify(heap)
    while heap:
        size, r = heapq.heappop(heap)
        row = a[r]
        if row is None or len(row) != size:
            continue  # eliminated, or changed since it was queued
        units = [j for j, x in row.items() if x == 1 or x == -1]
        if not units:
            continue  # queued again if a row operation changes it
        c = min(units, key=lambda j: (len(cols[j]), j))
        p = row[c]
        # clear column c: row i −= (x·p)·row r
        for i, x in cols[c].items():
            if i == r:
                continue
            f = x * p
            target = a[i]
            del target[c]
            for j, y in row.items():
                if j == c:
                    continue
                z = target.get(j, 0) - f * y
                if z:
                    target[j] = z
                    cols[j][i] = z
                else:
                    del target[j]
                    del cols[j][i]
            heapq.heappush(heap, (len(target), i))
            if u:
                _axpy(u_rows[i], u_rows[r], -f)
                uinv_cols[r][i] = f
        # clear row r: column j −= (y·p)·column c
        cols[c] = {}
        for j, y in row.items():
            if j == c:
                continue
            del cols[j][r]
            if v:
                _axpy(v_cols[j], v_cols[c], -y * p)
                vinv_cols[j][c] = y * p
        if p < 0 and u:  # make the pivot +1
            u_rows[r] = {k: -x for k, x in u_rows[r].items()}
            uinv_cols[r] = {k: -x for k, x in uinv_cols[r].items()}
        a[r] = None
        pivots.append((r, c, 1))

    live = [i for i, row in enumerate(a) if row]
    if live:
        block_cols = sorted({j for i in live for j in a[i]})
        d, bu, buinv, bv, bvinv = _dense_smith([[a[i].get(j, 0) for j in block_cols] for i in live])
        for t in range(min(len(live), len(block_cols))):
            if d[t][t] == 0:
                break
            pivots.append((live[t], block_cols[t], d[t][t]))
        if u:  # U ← B_U·U on the live rows, whose U⁻¹ columns were unit vectors
            old = [u_rows[i] for i in live]
            for i, bu_row, buinv_col in zip(live, bu, zip(*buinv)):
                u_rows[i] = _combine(zip(bu_row, old))
                uinv_cols[i] = {k: x for k, x in zip(live, buinv_col) if x}
        if v:  # V ← V·B_V on the block columns, whose V⁻¹ rows were unit vectors
            old = [v_cols[j] for j in block_cols]
            for j, bv_col in zip(block_cols, zip(*bv)):
                v_cols[j] = _combine(zip(bv_col, old))
                del vinv_cols[j][j]
            for j, bvinv_row in zip(block_cols, bvinv):
                for k, x in zip(block_cols, bvinv_row):
                    if x:
                        vinv_cols[k][j] = x
    return SmithForm(pivots, u_rows, uinv_cols, v_cols, vinv_cols)


# ---------------------------------------------------------------------------
# Column reduction engine over a field
# ---------------------------------------------------------------------------


class _BitVectors:
    """𝔽₂ vectors packed into Python integers (bit j = entry j); the only
    nonzero scalar is 1, so subtracting a multiple is XOR."""

    @staticmethod
    def pack(entries: Iterable[Tuple[int, Coefficient]]) -> int:
        word = 0
        for j, x in entries:
            if x % 2:
                word |= 1 << j
        return word

    low = staticmethod(lambda v: (v & -v).bit_length() - 1)
    high = staticmethod(lambda v: v.bit_length() - 1)
    entry = staticmethod(lambda v, j: (v >> j) & 1)
    inverse = staticmethod(lambda v, j: 1)
    factor = staticmethod(lambda v, j, inv: 1)
    sub = staticmethod(lambda v, w, c: v ^ w)
    restrict = staticmethod(lambda v, keep: v & keep)


class _SparseVectors:
    """Vectors over ℚ or 𝔽_p as dicts of nonzero entries; ``sub`` (v − c·w)
    updates v in place.  Over ℚ a whole entry is an int, as ``Ring.coerce``
    and ``Ring.inv`` give it, until a division makes it a fraction."""

    def __init__(self, ring: Ring):
        self.ring, self.p = ring, ring.p

    def pack(self, entries: Iterable[Tuple[int, Coefficient]]) -> Dict[int, Coefficient]:
        ring = self.ring
        coerced = ((j, ring.coerce(x)) for j, x in entries)
        return {j: x for j, x in coerced if not ring.is_zero(x)}

    low, high = staticmethod(min), staticmethod(max)
    restrict = staticmethod(lambda v, keep: {i: x for i, x in v.items() if i in keep})

    def entry(self, v: Dict[int, Coefficient], j: int) -> Coefficient:
        return v.get(j, self.ring.zero)

    def inverse(self, v: Dict[int, Coefficient], j: int) -> Coefficient:
        return self.ring.inv(v[j])

    def factor(self, v: Dict[int, Coefficient], j: int, inv: Coefficient) -> Coefficient:
        return self.ring.mul(v[j], inv)

    def sub(self, v: Dict[int, Coefficient], w: Dict[int, Coefficient], c: Coefficient) -> Dict[int, Coefficient]:
        return _axpy(v, w, -c, self.p)


def _vectors(ring: Ring):
    return _BitVectors() if ring.characteristic == 2 else _SparseVectors(ring)


def _reduce(ops, vectors: Iterable, top: bool = False, logs: Optional[List[list]] = None) -> Dict[int, tuple]:
    """Reduce the vectors in order, each by the pivots of the earlier ones:
    {pivot: (position, reduced vector, inverse of its pivot entry)} over the
    vectors that stay nonzero.  The pivot is the highest index for ``top``
    (the persistence order), else the lowest; either way a vector reduces to
    zero exactly when it lies in the span of the earlier ones.  ``logs`` gets
    per vector the flat list [position, factor, …] of what it subtracted."""
    lead, factor, sub = (ops.high if top else ops.low), ops.factor, ops.sub
    pivots: Dict[int, tuple] = {}
    for k, v in enumerate(vectors):
        log = []
        while v:
            p = lead(v)
            hit = pivots.get(p)
            if hit is None:
                pivots[p] = (k, v, ops.inverse(v, p))
                break
            j, w, inv = hit
            c = factor(v, p, inv)
            v = sub(v, w, c)
            log += (j, c)
        if logs is not None:
            logs.append(log)
    return pivots


def _clear(ops, ring: Ring, v, pivots: Sequence[tuple]):
    """v reduced to zero at each pivot of ascending lowest-index triples."""
    for p, w, inv in pivots:
        if not ring.is_zero(ops.entry(v, p)):
            v = ops.sub(v, w, ops.factor(v, p, inv))
    return v


def _kernel_vector(ring: Ring, logs: List[list], f: int) -> Dict[int, Coefficient]:
    """V_f for a vector f that reduced to zero, where V_k = e_k − Σ c·V_j over
    the log of k: 1 at f, support in f and the earlier pivots, zero image.
    Expanded from the top down, each V_k once with its final multiplicity."""
    out: Dict[int, Coefficient] = {}
    pending, heap = {f: ring.one}, [-f]
    while heap:
        k = -heapq.heappop(heap)
        m = pending.pop(k)
        if ring.is_zero(m):
            continue
        out[k] = m
        for j, c in zip(logs[k][::2], logs[k][1::2]):
            if j not in pending:
                pending[j] = ring.zero
                heapq.heappush(heap, -j)
            pending[j] = ring.add(pending[j], ring.neg(ring.mul(m, c)))
    return out


def _free_columns(ops, columns: Sequence[Dict[int, Coefficient]], logs: List[list]) -> List[int]:
    """The columns in the span of the earlier ones, found by reducing them
    left to right by highest-index pivots, each step logged."""
    kept = {k for k, _, _ in _reduce(ops, (ops.pack(col.items()) for col in columns), top=True, logs=logs).values()}
    return [f for f in range(len(columns)) if f not in kept]


def field_rank(rows: Iterable[Iterable[Tuple[int, Coefficient]]], ring: Ring) -> int:
    """Rank over a field of vectors given by their (index, entry) pairs.

    Reduced by highest-index pivots, as the kernels are: the rank does not
    depend on the order, and a vector whose top index no earlier vector has
    becomes a pivot as it is, with no elimination."""
    ops = _vectors(ring)
    return len(_reduce(ops, (ops.pack(row) for row in rows), top=True))


# ---------------------------------------------------------------------------
# Kernels and span solves over any ring
# ---------------------------------------------------------------------------


def kernel(columns: Sequence[Dict[int, Coefficient]], ring: Ring) -> List[Dict[int, Coefficient]]:
    """Basis of the kernel of the matrix with the given sparse columns, as
    sparse vectors.  Over a field: per column in the span of the earlier
    ones, the vector with 1 there and 0 at the other such columns.  Over ℤ:
    the columns of V off the pivots, a basis of the kernel lattice (a
    saturated summand)."""
    if ring.is_field:
        logs: List[list] = []
        return [_kernel_vector(ring, logs, f) for f in _free_columns(_vectors(ring), columns, logs)]
    nrows = 1 + max((max(col) for col in columns if col), default=-1)
    form = sparse_smith(transpose(columns, nrows), len(columns), v=True)
    pivot_cols = {c for _, c, _ in form.pivots}
    return [form.v_cols[j] for j in range(len(columns)) if j not in pivot_cols]


class _EchelonSolver:
    """Each column of A is tagged with a unit vector past row ``nrows``:
    reducing b by the echelon pivots below ``nrows`` leaves −x in the tags."""

    def __init__(self, columns: Sequence[Dict[int, Coefficient]], nrows: int, ring: Ring):
        self.ring, self.nrows, self.ncols = ring, nrows, len(columns)
        self._ops = ops = _vectors(ring)
        echelon = _reduce(ops, (ops.pack([*col.items(), (nrows + i, ring.one)]) for i, col in enumerate(columns)))
        self._pivots = sorted((p, w, inv) for p, (_, w, inv) in echelon.items() if p < nrows)

    def solve(self, b: Dict[int, Coefficient]) -> Optional[Dict[int, Coefficient]]:
        ops, ring, nrows = self._ops, self.ring, self.nrows
        work = _clear(ops, ring, ops.pack(b.items()), self._pivots)
        if work and ops.low(work) < nrows:
            return None
        x = ((i, ring.coerce(ring.neg(ops.entry(work, nrows + i)))) for i in range(self.ncols))
        return {i: c for i, c in x if not ring.is_zero(c)}


class _SmithSolver:
    """From one Smith form U·A·V = D: A·x = b has a solution exactly when
    U·b vanishes off the pivot rows and each pivot d divides its entry."""

    def __init__(self, columns: Sequence[SparseVector], nrows: int):
        self._form = sparse_smith(transpose(columns, nrows), len(columns), u=True, v=True)
        self._pivot_of = {r: (c, d) for r, c, d in self._form.pivots}

    def solve(self, b: SparseVector) -> Optional[SparseVector]:
        x: SparseVector = {}
        for r, u_row in enumerate(self._form.u_rows):
            ub = sum(y * b[k] for k, y in u_row.items() if k in b)
            if not ub:
                continue
            if r not in self._pivot_of:
                return None
            c, d = self._pivot_of[r]
            q, rem = divmod(ub, d)
            if rem:
                return None
            _axpy(x, self._form.v_cols[c], q)
        return x


def solver(columns: Sequence[Dict[int, Coefficient]], nrows: int, ring: Ring):
    """Solves A·x = b for the matrix A with the given sparse columns over
    ``nrows`` rows: ``.solve(b)`` takes a sparse b and gives a sparse x, or
    None when there is none.  A is put in echelon (or Smith) form once for
    all right-hand sides."""
    return _EchelonSolver(columns, nrows, ring) if ring.is_field else _SmithSolver(columns, nrows)


# ---------------------------------------------------------------------------
# Homology of a pair of boundary matrices
# ---------------------------------------------------------------------------


@dataclass
class HomologyDescriptor:
    """Homology at one degree: rank/torsion, cycle representatives, coordinates.

    ``representatives[i]`` is a cycle vector (over the degree-n basis)
    generating the i-th summand; torsion summands come first, in the order of
    ``torsion``.  ``coordinates`` expresses any cycle vector in the same
    order (torsion coordinates reduced mod the torsion order).
    """

    ring: Ring
    free_rank: int
    torsion: List[int] = field(default_factory=list)
    representatives: List[Vector] = field(default_factory=list)
    _coord_fn: object = None

    @property
    def dimension(self) -> int:
        if not self.ring.is_field:
            raise ValueError("dimension only makes sense over a field")
        return self.free_rank

    def coordinates(self, cycle: Vector) -> Vector:
        if self._coord_fn is None:
            raise ValueError("no coordinate data attached")
        coords = self._coord_fn(cycle)
        if coords is None:
            raise ValueError("vector is not a cycle in this degree")
        return coords

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        if self.ring.is_field:
            return f"{self.ring}^{self.free_rank}"
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def homology_of_matrices(
    ring: Ring, out_cols: Sequence[Dict[int, Coefficient]], in_cols: Sequence[Dict[int, Coefficient]], rank_here: int
) -> HomologyDescriptor:
    """Homology ker(out)/im(in) at a degree of rank ``rank_here``.

    ``out_cols`` holds the sparse columns of the map out of this degree (one
    per basis element), ``in_cols`` the sparse columns of the map into it;
    the caller checks that out∘in = 0.
    """
    if ring.is_field:
        return _homology_field(ring, out_cols, in_cols, rank_here)
    return _homology_integers(out_cols, in_cols, rank_here)


def _homology_field(ring, out_cols, in_cols, rank_here) -> HomologyDescriptor:
    ops = _vectors(ring)
    out_cols = [*out_cols, *[{}] * (rank_here - len(out_cols))]  # missing columns are zero
    logs: List[list] = []
    # the columns in the span of the earlier ones are the free columns of the
    # lowest-index row echelon form; a cycle is determined by its entries there
    free = _free_columns(ops, out_cols, logs)
    keep = ops.pack((j, ring.one) for j in free)
    # the image in kernel coordinates, by lowest-index pivots (an invariant of the
    # span): the reduced independent columns span it, and right to left fill in least
    independent = _reduce(ops, (ops.pack(col.items()) for col in in_cols), top=True).values()
    image = _reduce(ops, (ops.restrict(w, keep) for _, w, _ in sorted(independent, key=lambda hit: -hit[0])))
    classes = [f for f in free if f not in image]
    reps = [[v.get(j, ring.zero) for j in range(rank_here)] for v in (_kernel_vector(ring, logs, f) for f in classes)]
    ascending = sorted((p, w, inv) for p, (_, w, inv) in image.items())

    def coord_fn(cycle: Vector) -> Optional[Vector]:
        total = ops.pack(())  # packing only the columns the cycle touches
        for j, x in enumerate(cycle):
            if not ring.is_zero(x):
                total = ops.sub(total, ops.pack(out_cols[j].items()), -ring.coerce(x))
        if total:
            return None
        y = _clear(ops, ring, ops.restrict(ops.pack(enumerate(cycle)), keep), ascending)
        return [ring.coerce(ops.entry(y, f)) for f in classes]

    return HomologyDescriptor(ring, len(classes), [], reps, coord_fn)


def _homology_integers(out_cols, in_cols, rank_here) -> HomologyDescriptor:
    nrows = max((i for col in out_cols for i in col), default=-1) + 1
    cycles = sparse_smith(transpose(out_cols, nrows), rank_here, v=True)
    pivot_cols = {c for _, c, _ in cycles.pivots}
    free = [j for j in range(rank_here) if j not in pivot_cols]
    position = {j: k for k, j in enumerate(free)}
    vinv_cols = cycles.vinv_cols

    def kernel_coordinates(entries: Iterable[Tuple[int, int]]) -> Optional[SparseVector]:
        """V⁻¹z at the free columns (the kernel is spanned by V there), or
        None when z is not a cycle: V⁻¹z is nonzero at a pivot column."""
        acc = _combine((x, vinv_cols[j]) for j, x in entries)
        if any(i in pivot_cols for i in acc):
            return None
        return {position[i]: y for i, y in acc.items()}

    # the image in kernel coordinates, as rows over the incoming columns
    image_rows: List[SparseVector] = [{} for _ in free]
    for n, col in enumerate(in_cols):
        y = kernel_coordinates(col.items())
        if y is None:
            raise ArithmeticError("boundary image escaped the cycle lattice (∂²≠0?)")
        for k, x in y.items():
            image_rows[k][n] = x
    classes = sparse_smith(image_rows, len(in_cols), u=True)
    pivot_rows = {r for r, _, _ in classes.pivots}
    summands = [(r, d) for r, _, d in classes.pivots if d > 1]
    summands += [(k, 0) for k in range(len(free)) if k not in pivot_rows]
    reps: List[Vector] = []
    for k, _ in summands:
        rep = _combine((w, cycles.v_cols[free[i]]) for i, w in classes.uinv_cols[k].items())
        reps.append([rep.get(j, 0) for j in range(rank_here)])

    def coord_fn(cycle: Vector) -> Optional[Vector]:
        y = kernel_coordinates(enumerate(cycle))
        if y is None:
            return None
        out = []
        for k, order in summands:
            c = sum(x * y[i] for i, x in classes.u_rows[k].items() if i in y)
            out.append(c % order if order else c)
        return out

    torsion = [d for _, d in summands if d]
    return HomologyDescriptor(ZZ, len(summands) - len(torsion), torsion, reps, coord_fn)
