"""Exact linear algebra: one sparse Smith normal form over ℤ, one column
reduction engine over fields, and homology with explicit cycle bases and
change-of-basis data.

Every ℤ computation (kernels, solves, homology) runs on ``sparse_smith``:
rows are dicts ``{column: nonzero entry}``; ±1 pivots are eliminated first,
and the residual block, which holds no unit entry, is finished in the same
dicts with pivots of least absolute value and division with remainder.
What depends only on the invariant factors (homology groups, invertibility)
is read off a form built without transforms.
Every field computation (kernels, ranks, span solves, (co)homology) runs on
``_reduce``, which reduces vectors (dicts ``{index: nonzero entry}``, over
𝔽₂ as over every field) left to right by the highest-index pivots (the
persistence order) of the earlier ones; over ℚ an entry is an int, as
``Ring.coerce`` gives it, until a pivot's inverse makes it a fraction, and
over 𝔽₂ every entry is 1, so a vector update is a symmetric difference of
supports.  Entries are coerced once, where vectors come in from outside
(``_pack``); a ``ChainComplex`` coerces its columns when it is built, so
they are only copied.  Kernels log each step, which yields the canonical
kernel vector of each column that reduces to zero; span solves tag each
column with a unit vector below its rows.  (Co)homology clears
(Chen–Kerber's twist): the columns of the map out of a degree at the pivot
rows of the map into it are known to reduce to zero and are skipped, and a
class on one of them gets its log by reducing that column alone against the
final pivots.  The image is not reduced a second time: the pivots of the map
into the degree are triangular, and one upward pass over them solves for the
image's annihilator, from which the classes and the coordinates are read
(``field_homology``).

``kernel`` and ``solver`` choose the engine from the ring, so callers never
do: both take a matrix as sparse columns and give sparse vectors back.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .rings import ZZ, Coefficient, Ring

Vector = List[Coefficient]
SparseVector = Dict[int, int]


# ---------------------------------------------------------------------------
# Smith normal form over the integers
# ---------------------------------------------------------------------------


def _axpy(dst: SparseVector, src: SparseVector, k: int, p: Optional[int] = None) -> SparseVector:
    """dst += k·src in place (mod p when p is given), dropping entries that
    cancel; k is nonzero (mod p).  Over 𝔽₂ every stored entry is 1, so the
    support changes by symmetric difference."""
    if p == 2:
        for j in src:
            if j in dst:
                del dst[j]
            else:
                dst[j] = 1
        return dst
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


class SmithForm:
    """U·A·V = D for an integer matrix A, where D is zero except at the
    ``pivots`` (row, col, d): every d ≥ 1 and each divides the next.

    U is kept by rows, U⁻¹, V and V⁻¹ by columns, as sparse dicts; only the
    transforms asked of ``sparse_smith`` are filled in.
    """

    def __init__(
        self,
        pivots: List[Tuple[int, int, int]],
        u_rows: List[SparseVector],
        uinv_cols: List[SparseVector],
        v_cols: List[SparseVector],
        vinv_cols: List[SparseVector],
    ) -> None:
        self.pivots, self.u_rows, self.uinv_cols, self.v_cols, self.vinv_cols = pivots, u_rows, uinv_cols, v_cols, vinv_cols


def _add_line(lines: List[Optional[SparseVector]], cross: List[Optional[SparseVector]], dst: int, src: int, k: int) -> None:
    """Line dst += k·line src of a matrix held both by rows and by columns:
    ``lines`` are its rows and ``cross`` its columns, or the other way round."""
    target = lines[dst]
    for j, y in lines[src].items():
        z = target.get(j, 0) + k * y
        if z:
            target[j] = cross[j][dst] = z
        else:
            del target[j], cross[j][dst]


def sparse_smith(rows: Sequence[SparseVector], ncols: int, u: bool = False, v: bool = False) -> SmithForm:
    """Smith normal form of the matrix with the given sparse rows; ``u``
    asks for U and U⁻¹, ``v`` for V and V⁻¹.  The pivots are chosen from
    the matrix alone, so they and each side's transforms do not depend on
    which sides are asked for.

    Phase 1 repeatedly takes a ±1 entry, from the sparsest row and then the
    shortest column, clears its column by row operations and its row by
    column operations (which only V and V⁻¹ see: the row leaves the active
    matrix), negating the row when the entry is −1.  No phase-1 step touches
    U⁻¹ or V⁻¹ outside the pivot's own column of U⁻¹ and row of V⁻¹, which
    are set once.

    Phase 2 works on the rows phase 1 leaves, which hold no unit entry.  It
    takes the live entry of least absolute value, ties broken by (row,
    column), and clears its column by row operations and its row by column
    operations with division with remainder; a nonzero remainder is smaller
    and becomes the pivot.  Once both are clear, a row with an entry that
    the pivot does not divide is added to the pivot row, and the clearing
    goes on.  The rows of V⁻¹ at the block's columns are unit rows when
    phase 2 starts, and its column operations keep them inside the block:
    they are kept as row dicts and written into the columns at the end.
    """
    nrows = len(rows)
    a: List[Optional[SparseVector]] = [{j: x for j, x in row.items() if x} for row in rows]
    cols = transpose(a, ncols)
    u_rows = [{i: 1} for i in range(nrows)] if u else []
    uinv_cols = [{i: 1} for i in range(nrows)] if u else []
    v_cols = [{j: 1} for j in range(ncols)] if v else []
    vinv_cols = [{j: 1} for j in range(ncols)] if v else []
    pivots: List[Tuple[int, int, int]] = []

    def settle(r: int, c: int, p: int) -> None:
        """Row r and column c are clear but for the pivot p: both leave the
        active matrix."""
        if p < 0 and u:  # make the pivot positive
            u_rows[r] = {k: -x for k, x in u_rows[r].items()}
            uinv_cols[r] = {k: -x for k, x in uinv_cols[r].items()}
        a[r], cols[c] = None, {}
        pivots.append((r, c, abs(p)))

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
        for j, y in row.items():
            if j == c:
                continue
            del cols[j][r]
            if v:
                _axpy(v_cols[j], v_cols[c], -y * p)
                vinv_cols[j][c] = y * p
        settle(r, c, p)

    live = {i for i, row in enumerate(a) if row}
    vinv_rows = {j: {j: 1} for i in live for j in a[i]} if v else {}

    def add_rows(dst: int, src: int, k: int) -> None:
        _add_line(a, cols, dst, src, k)
        if u:
            _axpy(u_rows[dst], u_rows[src], k)
            _axpy(uinv_cols[src], uinv_cols[dst], -k)

    def add_cols(dst: int, src: int, k: int) -> None:
        _add_line(cols, a, dst, src, k)
        if v:
            _axpy(v_cols[dst], v_cols[src], k)
            _axpy(vinv_rows[src], vinv_rows[dst], -k)

    def clear(r: int, c: int) -> Optional[Tuple[int, int]]:
        """Column c, then row r, cleared by the pivot at (r, c) as far as
        division goes: the position of the first nonzero remainder, or None."""
        for i in sorted(cols[c].keys() - {r}):
            q = a[i][c] // a[r][c]
            if q:
                add_rows(i, r, -q)
            if c in a[i]:
                return i, c
        for j in sorted(a[r].keys() - {c}):
            q = a[r][j] // a[r][c]
            if q:
                add_cols(j, c, -q)
            if j in a[r]:
                return r, j
        return None

    while live:
        _, r, c = min((abs(x), i, j) for i in live for j, x in a[i].items())
        while True:
            while moved := clear(r, c):
                r, c = moved
            p = a[r][c]
            offender = next((i for i in sorted(live) if i != r and any(x % p for x in a[i].values())), None)
            if offender is None:
                break
            add_rows(r, offender, 1)
        settle(r, c, p)
        live = {i for i in live if a[i]}
    for j, row in vinv_rows.items():
        v_cols[j] = dict(v_cols[j])  # a dict keeps the room of its deleted entries
        del vinv_cols[j][j]
        for k, x in row.items():
            vinv_cols[k][j] = x
    return SmithForm(pivots, u_rows, uinv_cols, v_cols, vinv_cols)


# ---------------------------------------------------------------------------
# Column reduction engine over a field
# ---------------------------------------------------------------------------


def _pack(ring: Ring, entries: Iterable[Tuple[int, Coefficient]]) -> Dict[int, Coefficient]:
    """A vector given from outside as (index, entry) pairs, as the dict of its
    coerced nonzero entries: over ℚ and 𝔽_p a coerced entry is falsy exactly
    when it is zero."""
    coerce = ring.coerce
    return {j: y for j, x in entries if (y := coerce(x))}


def _reduce(ring: Ring, vectors: Iterable[Dict[int, Coefficient]], logs: Optional[List[list]] = None) -> Dict[int, list]:
    """Reduce the vectors in order, each in place by the pivots of the earlier
    ones: {pivot: [position, reduced vector, inverse of its pivot entry or
    None]} over the vectors that stay nonzero; the pivot is the highest index
    (the persistence order), and the inverse is computed when the pivot first
    eliminates an entry (``_pivot_factor``).  A vector reduces to zero
    exactly when it lies in the span of the earlier ones.  ``logs`` gets per
    vector the flat list [position, factor, …] of what it subtracted."""
    inv, mul, p = ring.inv, ring.mul, ring.p
    pivots: Dict[int, list] = {}
    for k, v in enumerate(vectors):
        log = []
        i = max(v) if v else None
        while v:
            hit = pivots.get(i)
            if hit is None:
                pivots[i] = [k, v, None]
                break
            j, w, w_inv = hit
            if w_inv is None:  # as in _pivot_factor, inline on the hot path
                w_inv = hit[2] = inv(w[i])
            c = mul(v[i], w_inv)
            _axpy(v, w, -c, p)
            log += (j, c)
            i = _lead_past(v, i)
        if logs is not None:
            logs.append(log)
    return pivots


def _pivot_factor(ring: Ring, x: Coefficient, hit: list, i: int) -> Coefficient:
    """x over the pivot entry at row i of the pivot ``hit``: the multiple of
    its vector that clears x.  The entry's inverse is computed on the first
    call and kept in the pivot, so a pivot that never eliminates an entry
    costs no inversion."""
    if hit[2] is None:
        hit[2] = ring.inv(hit[1][i])
    return ring.mul(x, hit[2])


def _lead_past(v: Dict[int, Coefficient], i: int) -> Optional[int]:
    """The lead of v once its entry at the lead i has been eliminated: below
    i and most often close to it, so about a quarter as many indices as v has
    entries are probed under i before all of v is scanned; None when v is
    zero."""
    for j in range(i - 1, i - 2 - len(v) // 4, -1):
        if j in v:
            return j
    return max(v) if v else None


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


def reduce_columns(ring: Ring, columns: Sequence[Dict[int, Coefficient]], cleared=(), logs: Optional[List[list]] = None):
    """The columns of a map over a field reduced left to right by
    highest-index pivots: {pivot row: [column, reduced column, inverse of its
    pivot entry or None]}, and per column its log in ``logs``.  The columns
    are taken as a ``ChainComplex`` stores them (nonzero field elements) and
    copied, since the reduction works in place.

    The columns at the indices in ``cleared`` (the pivot rows of the map into
    this degree, given out∘in = 0) are skipped with an empty log: each lies
    in the span of the earlier ones, since a reduced in-column is a cycle
    whose highest entry is there, so it would reduce to zero and add no
    pivot (clearing).  The pivots are those of the full reduction."""
    return _reduce(ring, ({} if k in cleared else dict(col) for k, col in enumerate(columns)), logs)


def _replay(ring: Ring, v: Dict[int, Coefficient], pivots: Dict[int, list]) -> list:
    """The log of a vector skipped by clearing, reduced alone by the final
    pivots: the log it would have had, since a pivot is never overwritten and
    a vector that reduces to zero adds none, so every step meets the pivot
    it met in the full reduction."""
    log: list = []
    i = max(v) if v else None
    while v:
        hit = pivots.get(i)
        if hit is None:
            raise ArithmeticError("a cleared column is not in the span of the earlier ones (∂²≠0?)")
        c = _pivot_factor(ring, v[i], hit, i)
        _axpy(v, hit[1], -c, ring.p)
        log += (hit[0], c)
        i = _lead_past(v, i)
    return log


def _free_columns(pivots: Dict[int, list], size: int) -> List[int]:
    """The columns that a reduction with these pivots reduced to zero: those
    in the span of the earlier ones."""
    owners = {k for k, _, _ in pivots.values()}
    return [f for f in range(size) if f not in owners]


def field_rank(rows: Iterable[Iterable[Tuple[int, Coefficient]]], ring: Ring) -> int:
    """Rank over a field of vectors given by their (index, entry) pairs: a
    vector whose top index no earlier vector has becomes a pivot as it is,
    with no elimination."""
    return len(_reduce(ring, (_pack(ring, row) for row in rows)))


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
        pivots = _reduce(ring, (_pack(ring, col.items()) for col in columns), logs)
        return [_kernel_vector(ring, logs, f) for f in _free_columns(pivots, len(columns))]
    nrows = 1 + max((max(col) for col in columns if col), default=-1)
    form = sparse_smith(transpose(columns, nrows), len(columns), v=True)
    pivot_cols = {c for _, c, _ in form.pivots}
    return [form.v_cols[j] for j in range(len(columns)) if j not in pivot_cols]


class _EchelonSolver:
    """Column i of A is tagged with the unit vector at i and its rows are
    shifted past the tags: reducing b, shifted too, by the echelon pivots at
    or above the shift leaves −x in the tags."""

    def __init__(self, columns: Sequence[Dict[int, Coefficient]], ring: Ring):
        self.ring, self.shift = ring, len(columns)
        tagged = (_pack(ring, [(i, ring.one), *((self.shift + r, x) for r, x in col.items())]) for i, col in enumerate(columns))
        self._pivots = sorted(((p, hit) for p, hit in _reduce(ring, tagged).items() if p >= self.shift), reverse=True)

    def solve(self, b: Dict[int, Coefficient]) -> Optional[Dict[int, Coefficient]]:
        ring, shift = self.ring, self.shift
        work = _pack(ring, ((shift + r, x) for r, x in b.items()))
        for i, hit in self._pivots:  # descending: each step clears entry i and changes only lower ones
            if x := work.get(i):
                _axpy(work, hit[1], -_pivot_factor(ring, x, hit, i), ring.p)
        if work and max(work) >= shift:
            return None
        return {j: ring.coerce(ring.neg(x)) for j, x in sorted(work.items())}


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
    return _EchelonSolver(columns, ring) if ring.is_field else _SmithSolver(columns, nrows)


# ---------------------------------------------------------------------------
# Homology of a pair of boundary matrices
# ---------------------------------------------------------------------------


class HomologyDescriptor:
    """Homology at one degree: rank/torsion, cycle representatives, coordinates.

    ``representatives[i]`` is a cycle vector (over the degree-n basis)
    generating the i-th summand; torsion summands come first, in the order of
    ``torsion``.  They are given as a list, or as a function that builds it
    on the first access.  ``coordinates`` expresses any cycle vector in the
    same order (torsion coordinates reduced mod the torsion order); over ℤ
    what it needs is built on its first call too (``integer_groups``).
    """

    def __init__(self, ring: Ring, free_rank: int, torsion: List[int],
                 representatives: Union[List[Vector], Callable[[], List[Vector]]], _coord_fn) -> None:
        self.ring, self.free_rank, self.torsion = ring, free_rank, torsion
        self._representatives, self._coord_fn = representatives, _coord_fn

    @property
    def representatives(self) -> List[Vector]:
        if callable(self._representatives):
            self._representatives = self._representatives()
        return self._representatives

    @property
    def dimension(self) -> int:
        if not self.ring.is_field:
            raise ValueError("dimension only makes sense over a field")
        return self.free_rank

    def coordinates(self, cycle: Vector) -> Vector:
        coords = self._coord_fn(cycle)
        if coords is None:
            raise ValueError("vector is not a cycle in this degree")
        return coords

    def __str__(self) -> str:
        if self.ring.is_field:
            return f"{self.ring}^{self.free_rank}"
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def field_homology(ring, out_cols, rank_here, out_pivots, logs, in_pivots) -> HomologyDescriptor:
    """Homology over a field from ``reduce_columns`` of the out-map (its
    pivots and logs, cleared by the in-map's pivot rows) and the in-map's
    pivots, read off the image's annihilator in one pass.

    A cycle is determined by its entries at the free columns F of the
    out-map.  Each reduced in-column w_h is a boundary whose highest entry is
    at its pivot row h ∈ F (clearing skipped that column), and the rest E of
    F has dim H elements.  ``row[e]`` is the unit vector of e ∈ E in K^E;
    upward over the in-pivots, ``row[h]`` solves Σ w_h[i]·row[i] = 0, entries
    off F counting as 0.  So z ↦ Σ z_i·row[i] maps the cycles onto K^E with
    the image as its kernel, at a cost of Σ_h Σ_{i∈w_h} |row[i]|.  A free
    column is a class when its row is independent of the rows above it (the
    rows are reduced from the top down), and the coordinates of a cycle
    express its image in the classes' rows.  The classes' kernel vectors are
    kept sparse; the representatives, the same vectors as dense lists as long
    as the basis, are built on their first access."""
    free = set(_free_columns(out_pivots, rank_here))
    if not in_pivots.keys() <= free:
        raise ArithmeticError("a boundary's pivot row is not a free column (∂²≠0?)")
    row = {f: {f: ring.one} for f in free - in_pivots.keys()}  # the nonzero rows only
    for h, hit in sorted(in_pivots.items()):
        w, acc = hit[1], {}
        for i in w.keys() & row.keys():  # i < h, free, with a nonzero row
            _axpy(acc, row[i], -_pivot_factor(ring, w[i], hit, h), ring.p)
        if acc:
            row[h] = acc
    order = sorted(row, reverse=True)
    classes = sorted(order[k] for k, _, _ in _reduce(ring, (dict(row[i]) for i in order)).values())
    for f in classes:
        if out_cols[f] and not logs[f]:  # a nonzero column that clearing skipped
            logs[f] = _replay(ring, dict(out_cols[f]), out_pivots)
    vectors = [_kernel_vector(ring, logs, f) for f in classes]
    solve = solver([row[f] for f in classes], rank_here, ring).solve

    def coord_fn(cycle: Vector) -> Optional[Vector]:
        total: Dict[int, Coefficient] = {}
        image: Dict[int, Coefficient] = {}
        for j, x in enumerate(cycle):
            if y := ring.coerce(x):
                _axpy(total, out_cols[j], y, ring.p)
                if j in row:
                    _axpy(image, row[j], y, ring.p)
        if total:
            return None
        x = solve(image)
        return [x.get(k, 0) for k in range(len(classes))]

    def representatives() -> List[Vector]:
        return [[v.get(j, ring.zero) for j in range(rank_here)] for v in vectors]

    return HomologyDescriptor(ring, len(classes), [], representatives, coord_fn)


def invariant_factors(columns: Sequence[SparseVector]) -> List[int]:
    """The nonzero invariant factors of the integer matrix with the given
    sparse columns, ascending: the pivots of its Smith form, built without
    transforms.  A matrix with no nonzero entry has none and builds no form."""
    if not any(columns):
        return []
    nrows = 1 + max(i for col in columns for i in col)
    return sorted(d for _, _, d in sparse_smith(transpose(columns, nrows), len(columns)).pivots)


def is_invertible(columns: Sequence[Dict[int, Coefficient]], size: int, ring: Ring) -> bool:
    """Whether the square matrix with the given sparse columns over ``size``
    rows is invertible, which for a square matrix is the same as onto: over
    a field when it has full rank, over ℤ when its ``size`` invariant
    factors are all 1."""
    if ring.is_field:
        return field_rank((col.items() for col in columns), ring) == size
    return invariant_factors(columns) == [1] * size


def integer_groups(out_cols, in_cols, rank_here, out_factors: List[int], in_factors: List[int]) -> HomologyDescriptor:
    """ker(out)/im(in) over ℤ read off the nonzero invariant factors of both
    maps (Dumas, Heckenbach, Saunders and Welker): since out∘in = 0, which the
    caller checks, the free rank is ``rank_here`` − rank(out) − rank(in), and
    the torsion is the in-map's factors > 1.  The representatives and the
    coordinates are those of ``integer_homology``, built on the first read of
    either and checked against these groups."""
    free_rank = rank_here - len(out_factors) - len(in_factors)
    torsion = [d for d in in_factors if d > 1]
    built: List[HomologyDescriptor] = []

    def full() -> HomologyDescriptor:
        if not built:
            group = integer_homology(out_cols, in_cols, rank_here)
            if (group.free_rank, group.torsion) != (free_rank, torsion):
                raise ArithmeticError("the invariant factors disagree with the transformed Smith forms")
            built.append(group)
        return built[0]

    return HomologyDescriptor(ZZ, free_rank, torsion, lambda: full().representatives,
                              lambda cycle: full()._coord_fn(cycle))


def integer_homology(out_cols, in_cols, rank_here) -> HomologyDescriptor:
    """ker(out)/im(in) over ℤ at a degree of rank ``rank_here``, with its
    representatives and coordinates: the cycle lattice from a Smith form of
    the out-map with V and V⁻¹, and the image in its coordinates from a Smith
    form with U and U⁻¹; the caller checks out∘in = 0."""
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
